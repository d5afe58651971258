// Bit-exact golden of the offline planner: every candidate value the
// provisioning search logs (the task-level planner trace) and every field
// of the resulting Plan, over W3, W1 and TPC-H batches, both objectives,
// the widest-job-first ablation, a placement-constrained batch, a
// multi-window rolling plan and a batch of identical jobs. Each digest must
// come out the same at pool widths 1, 2 and 8. A second test replays every
// logged candidate through prioritize() and requires the logged value bit
// for bit, so an incremental evaluation of the chain cannot drift from a
// from-scratch prioritization pass.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "corral/latency_model.h"
#include "corral/placement.h"
#include "corral/planner.h"
#include "exec/exec.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "workload/tpch.h"
#include "workload/workloads.h"

namespace corral {
namespace {

constexpr int kWidths[] = {1, 2, 8};

// 64-bit FNV-1a over the text images below.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string hex(std::uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "0x%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

// Appends the IEEE-754 bit image of `value` as 16 hex digits.
void append_bits(std::string* out, double value) {
  *out += hex(std::bit_cast<std::uint64_t>(value));
  *out += ' ';
}

void append_int(std::string* out, long value) {
  *out += std::to_string(value);
  *out += ' ';
}

std::string plan_image(const Plan& plan) {
  std::string out;
  append_bits(&out, plan.predicted_makespan);
  append_bits(&out, plan.predicted_avg_completion);
  append_int(&out, static_cast<long>(plan.evaluated_candidates));
  out += '\n';
  for (const PlannedJob& job : plan.jobs) {
    append_int(&out, job.job_index);
    append_int(&out, job.num_racks);
    for (int r : job.racks) append_int(&out, r);
    append_bits(&out, job.start_time);
    append_bits(&out, job.predicted_latency);
    append_int(&out, job.priority);
    out += '\n';
  }
  return out;
}

enum class Workload { kW3, kW1, kTpch, kW1Constrained, kTies, kW3Rolling };

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kW3: return "w3";
    case Workload::kW1: return "w1";
    case Workload::kTpch: return "tpch";
    case Workload::kW1Constrained: return "w1-constrained";
    case Workload::kTies: return "ties";
    case Workload::kW3Rolling: return "w3-rolling";
  }
  return "?";
}

ClusterConfig golden_cluster(Workload workload) {
  ClusterConfig config;
  config.racks = 10;
  config.machines_per_rack = 20;
  config.slots_per_machine = 8;
  config.nic_bandwidth = 2.5 * kGbps;
  config.oversubscription = 5.0;
  if (workload == Workload::kW1Constrained) {
    config.resource_classes = {{"accel", 3, 5}};
  }
  return config;
}

// One planning input: the response functions and, for the constrained
// batch, the placements resolved against the golden cluster.
struct Input {
  std::vector<ResponseFunction> functions;
  std::vector<JobPlacement> placements;
  int racks = 0;
};

// Twelve jobs drawn from three response functions, in two arrival groups:
// equal widths and equal latencies everywhere, so every priority decision
// falls through to the job-index tie-break.
std::vector<ResponseFunction> tie_functions(int racks, bool online) {
  std::vector<ResponseFunction> functions;
  for (int j = 0; j < 12; ++j) {
    const double base = 600.0 * static_cast<double>(1 + j % 3);
    std::vector<Seconds> latency;
    for (int r = 1; r <= racks; ++r) {
      latency.push_back(base / std::sqrt(static_cast<double>(r)));
    }
    const Seconds arrival = online && j >= 6 ? 300.0 : 0.0;
    functions.emplace_back(std::move(latency), arrival);
  }
  return functions;
}

Input golden_input(Workload workload, bool online) {
  const ClusterConfig cluster = golden_cluster(workload);
  Input input;
  input.racks = cluster.racks;
  if (workload == Workload::kTies) {
    input.functions = tie_functions(cluster.racks, online);
    return input;
  }
  Rng rng(17);
  std::vector<JobSpec> jobs;
  if (workload == Workload::kW3 || workload == Workload::kW3Rolling) {
    W3Config config;
    config.num_jobs = 40;
    jobs = make_w3(config, rng);
  } else if (workload == Workload::kTpch) {
    jobs = make_tpch(TpchConfig{}, rng);
  } else {
    W1Config config;
    config.num_jobs = 30;
    config.task_scale = 0.5;
    jobs = make_w1(config, rng);
  }
  if (workload == Workload::kW1Constrained) {
    jobs = with_placement_mix(std::move(jobs), PlacementMixConfig{});
    input.placements = resolve_placements(jobs, cluster);
  }
  // The constrained batch keeps every arrival at zero: an exclusive job
  // that arrives after the others have touched every equipped rack cannot
  // be seated under any allocation.
  if ((online && workload != Workload::kW1Constrained) ||
      workload == Workload::kW3Rolling) {
    // Arrivals land on 5-minute marks, so the online order's arrival key
    // ties often and its width, latency and index keys all decide.
    assign_uniform_arrivals(jobs, 30 * kMinute, rng);
    for (JobSpec& job : jobs) {
      job.arrival = 5 * kMinute * std::floor(job.arrival / (5 * kMinute));
    }
  }
  input.functions = build_response_functions(
      jobs, cluster.racks, LatencyModelParams::from_cluster(cluster));
  return input;
}

struct Case {
  Workload workload;
  Objective objective;
  bool widest_job_first;
  std::uint64_t digest;
};

bool online(const Case& c) {
  return c.objective == Objective::kAverageCompletionTime;
}

PlannerConfig case_config(const Case& c, const Input& input) {
  PlannerConfig config;
  config.objective = c.objective;
  config.widest_job_first = c.widest_job_first;
  if (!input.placements.empty()) config.placements = &input.placements;
  return config;
}

struct GoldenRun {
  std::string image;  // plan image followed by the task-level trace
  std::vector<obs::TraceEvent> events;
  Plan plan;
};

GoldenRun golden_run(const Case& c, const Input& input, int width) {
  PlannerConfig config = case_config(c, input);
  exec::ThreadPool pool(width);
  config.pool = &pool;
  obs::TracerOptions options;
  options.level = obs::TraceLevel::kTasks;
  obs::Tracer tracer(options);
  config.tracer = &tracer;
  GoldenRun run;
  run.plan = c.workload == Workload::kW3Rolling
                 ? plan_rolling(input.functions, input.racks, config,
                                8 * kMinute)
                 : plan_offline(input.functions, input.racks, config);
  EXPECT_EQ(tracer.total_dropped(), 0u);
  run.image = plan_image(run.plan) + obs::chrome_trace_string(tracer);
  run.events = tracer.sinks().front()->events();
  return run;
}

// Recorded with GCC 12 (RelWithDebInfo) from the planner that re-sorted
// every job and replayed the whole packing pass for each candidate, at the
// commit that added this test. If a compiler or libm change moves them,
// re-record them with the new toolchain from that code: check out the
// commit that added this test, build it, and copy the digests its failure
// messages print. Never re-record them from a later planner, which would
// only pin what it now computes.
constexpr Objective kMakespan = Objective::kMakespan;
constexpr Objective kAvg = Objective::kAverageCompletionTime;
constexpr Case kCases[] = {
    {Workload::kW3, kMakespan, true, 0xd1c6766e64384dc6ull},
    {Workload::kW3, kMakespan, false, 0xa3e5e0c3b3e80365ull},
    {Workload::kW3, kAvg, true, 0x15ab0d153578e4c1ull},
    {Workload::kW3, kAvg, false, 0xfb18a21f454ccadaull},
    {Workload::kW1, kMakespan, true, 0x818b1d7ac1d43cc2ull},
    {Workload::kW1, kMakespan, false, 0x7965fa5e5790fa31ull},
    {Workload::kW1, kAvg, true, 0xbecdc6f46098df21ull},
    {Workload::kW1, kAvg, false, 0x219d66a7306595d8ull},
    {Workload::kTpch, kMakespan, true, 0x2d00fc7edc2428b5ull},
    {Workload::kTpch, kMakespan, false, 0x49748d491069999dull},
    {Workload::kTpch, kAvg, true, 0x472b4fe444b2c2f5ull},
    {Workload::kTpch, kAvg, false, 0xb45cdb4629bb3855ull},
    {Workload::kW1Constrained, kMakespan, true, 0x95eb819aed3d62fdull},
    {Workload::kW1Constrained, kAvg, true, 0x2bd3ecbb37f9486eull},
    {Workload::kTies, kMakespan, true, 0x769dea6337a29dfaull},
    {Workload::kTies, kAvg, false, 0xb89009c0894396ceull},
    {Workload::kW3Rolling, kMakespan, true, 0xac29a6ca1826d468ull},
    {Workload::kW3Rolling, kAvg, true, 0xd320c24924de8626ull},
};

std::string case_label(const Case& c) {
  return std::string(workload_name(c.workload)) +
         (online(c) ? " avg" : " makespan") +
         (c.widest_job_first ? " widest-first" : " lpt");
}

TEST(PlannerGolden, CandidateValuesAndPlansAreBitExact) {
  for (const Case& c : kCases) {
    const Input input = golden_input(c.workload, online(c));
    for (int width : kWidths) {
      const GoldenRun run = golden_run(c, input, width);
      EXPECT_EQ(hex(fnv1a(run.image)), hex(c.digest))
          << case_label(c) << " width " << width;
    }
  }
}

double arg_num(const obs::TraceEvent& event, const std::string& key) {
  for (const obs::TraceArg& a : event.args) {
    if (a.key == key) return a.num;
  }
  ADD_FAILURE() << "event " << event.name << " lacks arg " << key;
  return 0;
}

TEST(PlannerGolden, LoggedCandidateValuesMatchPrioritize) {
  // Black-box differential: rebuild each logged candidate's rack vector
  // from the chain (widened_job, widened_to) and re-run the prioritization
  // phase from scratch on it. Its objective must equal the logged value
  // bit for bit; a candidate logged as infinitely bad must be one that
  // prioritize() rejects as unseatable.
  int tie_candidates = 0;
  int rejected = 0;
  for (const Case& c : kCases) {
    if (c.workload == Workload::kW3Rolling) continue;  // windows chain F_i
    const Input input = golden_input(c.workload, online(c));
    const PlannerConfig config = case_config(c, input);
    const GoldenRun run = golden_run(c, input, 2);
    std::vector<int> racks(input.functions.size(), 1);
    std::size_t candidates = 0;
    for (const obs::TraceEvent& event : run.events) {
      if (event.name != "candidate") continue;
      const auto step = static_cast<std::size_t>(arg_num(event, "step"));
      ASSERT_EQ(step, candidates) << case_label(c);
      if (step > 0) {
        const auto job =
            static_cast<std::size_t>(arg_num(event, "widened_job"));
        const int to = static_cast<int>(arg_num(event, "widened_to"));
        ASSERT_LT(job, racks.size());
        ASSERT_EQ(to, racks[job] + 1) << case_label(c) << " step " << step;
        racks[job] = to;
      }
      const double logged = arg_num(event, "value");
      if (std::isinf(logged)) {
        ++rejected;
        EXPECT_THROW(prioritize(input.functions, racks, input.racks, config),
                     std::invalid_argument)
            << case_label(c) << " step " << step;
      } else {
        const Plan plan =
            prioritize(input.functions, racks, input.racks, config);
        const double value = online(c) ? plan.predicted_avg_completion
                                       : plan.predicted_makespan;
        EXPECT_EQ(hex(std::bit_cast<std::uint64_t>(value)),
                  hex(std::bit_cast<std::uint64_t>(logged)))
            << case_label(c) << " step " << step;
      }
      ++candidates;
    }
    EXPECT_EQ(candidates, run.plan.evaluated_candidates) << case_label(c);
    if (c.workload == Workload::kTies) {
      tie_candidates += static_cast<int>(candidates);
    }
  }
  EXPECT_GT(tie_candidates, 0);
  EXPECT_GT(rejected, 0);  // the constrained batch rejects some candidates
}

}  // namespace
}  // namespace corral
