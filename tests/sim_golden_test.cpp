// Bit-exact golden of whole simulations: every SimResult/JobResult field
// and the task-level trace of seeded W1 batches, under two network
// policies and three fault regimes (none; machine churn with stragglers,
// speculation and replicated output writes; a rack outage with replicated
// output writes). The digests pin the task-attempt machinery — start,
// kill, requeue, backup promotion, speculation winners, map reruns and job
// failure — so a refactor of it must reproduce every event, RNG draw and
// flow start exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "corral/planner.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "sim/faults.h"
#include "sim/simulator.h"
#include "workload/workloads.h"

namespace corral {
namespace {

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

std::string result_image(const SimResult& result) {
  std::string out = result.policy_name + '\n';
  append_bits(&out, result.makespan);
  append_bits(&out, result.total_cross_rack_bytes);
  append_bits(&out, result.total_compute_hours);
  append_bits(&out, result.input_balance_cov);
  for (double u : result.rack_uplink_utilization) append_bits(&out, u);
  append_int(&out, result.tasks_killed);
  append_int(&out, result.maps_rerun);
  append_int(&out, result.speculative_launched);
  append_bits(&out, result.speculative_wasted_seconds);
  append_int(&out, result.stragglers_injected);
  append_bits(&out, result.bytes_rereplicated);
  append_int(&out, result.chunks_lost);
  append_int(&out, result.jobs_failed);
  append_bits(&out, result.degraded_time);
  out += '\n';
  for (const JobResult& job : result.jobs) {
    append_int(&out, job.job_id);
    out += job.name + ' ';
    append_int(&out, job.recurring ? 1 : 0);
    append_bits(&out, job.arrival);
    append_bits(&out, job.first_task_start);
    append_bits(&out, job.finish);
    append_bits(&out, job.cross_rack_bytes);
    append_bits(&out, job.compute_seconds);
    for (double d : job.reduce_durations) append_bits(&out, d);
    append_int(&out, job.failed ? 1 : 0);
    append_int(&out, job.tasks_killed);
    append_int(&out, job.maps_rerun);
    append_int(&out, job.speculative_launched);
    append_bits(&out, job.speculative_wasted_seconds);
    out += '\n';
  }
  return out;
}

ClusterConfig golden_cluster() {
  ClusterConfig config;
  config.racks = 4;
  config.machines_per_rack = 6;
  config.slots_per_machine = 3;
  config.nic_bandwidth = 1 * kGbps;
  config.oversubscription = 4.0;
  return config;
}

std::vector<JobSpec> golden_jobs() {
  Rng rng(15);
  W1Config config;
  config.num_jobs = 10;
  config.task_scale = 0.2;
  std::vector<JobSpec> jobs = make_w1(config, rng);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].arrival = 20.0 * static_cast<double>(i);
  }
  return jobs;
}

enum class Regime { kNone, kChurn, kOutage };

SimConfig golden_config(NetPolicy net, Regime regime) {
  SimConfig config;
  config.cluster = golden_cluster();
  config.net_policy = net;
  config.seed = 2015;
  if (regime == Regime::kChurn) {
    FaultModelConfig churn;
    churn.machine_mtbf = 15 * kMinute;
    churn.machine_mttr = 2 * kMinute;
    churn.horizon = 4 * kHour;
    churn.straggler_frac = 0.2;
    churn.straggler_slowdown = 4.0;
    config.faults = generate_fault_schedule(config.cluster, churn, 77);
    config.enable_speculation = true;
    config.speculation_cap = 0.5;
    config.write_output_replicas = true;
  } else if (regime == Regime::kOutage) {
    // Rack 1 goes down for good mid-run and rack 2 for ten minutes; with
    // two replicas per chunk some inputs lose every copy.
    config.dfs.replicas = 2;
    config.write_output_replicas = true;
    const int per_rack = config.cluster.machines_per_rack;
    for (int m = 0; m < per_rack; ++m) {
      config.faults.events.push_back({60.0, FaultType::kCrash, per_rack + m});
      config.faults.events.push_back(
          {90.0, FaultType::kCrash, 2 * per_rack + m});
      config.faults.events.push_back(
          {690.0, FaultType::kRecover, 2 * per_rack + m});
    }
  }
  return config;
}

struct GoldenRun {
  std::string image;  // result image followed by the task-level trace
  SimResult result;
};

GoldenRun golden_run(NetPolicy net, Regime regime, bool corral) {
  const std::vector<JobSpec> jobs = golden_jobs();
  SimConfig config = golden_config(net, regime);
  obs::TracerOptions options;
  options.level = obs::TraceLevel::kTasks;
  obs::Tracer tracer(options);
  config.tracer = &tracer;
  const Plan plan = plan_offline(jobs, config.cluster, PlannerConfig{});
  const PlanLookup lookup(jobs, plan);
  YarnCapacityPolicy yarn;
  CorralPolicy corral_policy(&lookup);
  SchedulingPolicy& policy =
      corral ? static_cast<SchedulingPolicy&>(corral_policy) : yarn;
  GoldenRun run;
  run.result = run_simulation(jobs, policy, config);
  EXPECT_EQ(tracer.total_dropped(), 0u);
  run.image = result_image(run.result) + obs::chrome_trace_string(tracer);
  return run;
}

TEST(SimGolden, ResultsAndTaskTraceAreByteIdentical) {
  // One digest per (net policy, fault regime), each over a Yarn-CS and a
  // Corral run. They were recorded with GCC 12 (RelWithDebInfo) from the
  // simulator that kept separate map and reduce attempt bookkeeping, at
  // the commit that added this test. If a compiler or libm change moves
  // them, re-record them with the new toolchain from that code: check out
  // the commit that added this test, build it, and copy the digests its
  // failure messages print. Never re-record them from a later simulator,
  // which would only pin what it now computes.
  struct Golden {
    NetPolicy net;
    Regime regime;
    std::uint64_t digest;
  };
  const Golden goldens[] = {
      {NetPolicy::kTcp, Regime::kNone, 0xcc5eee10c819d923ull},
      {NetPolicy::kTcp, Regime::kChurn, 0xd991c8cdabf2d23eull},
      {NetPolicy::kTcp, Regime::kOutage, 0x55f50bccc7695d79ull},
      {NetPolicy::kVarys, Regime::kNone, 0x59015809fda2c46dull},
      {NetPolicy::kVarys, Regime::kChurn, 0xedd1083a7e98bfa8ull},
      {NetPolicy::kVarys, Regime::kOutage, 0x6267a3a319c7b146ull},
  };
  SimResult seen;  // per-counter maxima over every run
  for (const Golden& golden : goldens) {
    std::string image;
    for (bool corral : {false, true}) {
      const GoldenRun run = golden_run(golden.net, golden.regime, corral);
      image += run.image;
      const SimResult& r = run.result;
      seen.tasks_killed = std::max(seen.tasks_killed, r.tasks_killed);
      seen.maps_rerun = std::max(seen.maps_rerun, r.maps_rerun);
      seen.speculative_launched =
          std::max(seen.speculative_launched, r.speculative_launched);
      seen.jobs_failed = std::max(seen.jobs_failed, r.jobs_failed);
      seen.chunks_lost = std::max(seen.chunks_lost, r.chunks_lost);
    }
    EXPECT_EQ(hex(fnv1a(image)), hex(golden.digest))
        << to_string(golden.net) << " regime "
        << static_cast<int>(golden.regime);
  }
  // Every branch of the attempt machinery the digests pin is exercised.
  EXPECT_GT(seen.tasks_killed, 0);
  EXPECT_GT(seen.maps_rerun, 0);
  EXPECT_GT(seen.speculative_launched, 0);
  EXPECT_GT(seen.jobs_failed, 0);
  EXPECT_GT(seen.chunks_lost, 0);
}

}  // namespace
}  // namespace corral
