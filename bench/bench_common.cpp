#include "bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>

#include "obs/export.h"
#include "util/table.h"

namespace corral::bench {
namespace {

void write_env_trace() {
  const char* out = std::getenv("CORRAL_TRACE_OUT");
  if (out == nullptr || bench_tracer() == nullptr) return;
  try {
    obs::write_chrome_trace_file(out, *bench_tracer());
    std::fprintf(stderr, "trace written to %s\n", out);
  } catch (const std::exception& e) {
    // Throwing out of an atexit handler would call std::terminate.
    std::fprintf(stderr, "trace write to %s failed: %s\n", out, e.what());
  }
}

// Next free sink id for the env tracer. Advanced per batch in program
// order (the bench mains are single-threaded between batches), so lane
// assignment stays deterministic.
int next_trace_sink = 0;

}  // namespace

FlagParser parse_args(int argc, char** argv, const std::string& figure,
                      const std::string& claim,
                      const std::function<void(FlagParser&)>& add_flags) {
  FlagParser flags(figure);
  flags.add_int("threads", 0,
                "worker threads of the shared pool (0 = hardware "
                "concurrency); results are identical at any width");
  if (add_flags) add_flags(flags);
  // Usage goes through a string, not std::cerr: with GCC 12, <iostream>
  // adds a static stream initializer to every binary linking this file,
  // perfbench included, whose peak RSS it raises by ~0.25 MiB.
  std::ostringstream usage;
  if (!flags.parse(argc, argv, usage)) {
    std::fputs(usage.str().c_str(), stderr);
    std::exit(2);
  }
  const long threads = flags.get_int("threads");
  if (threads < 0) {
    std::fputs("--threads must be >= 0\n", stderr);
    std::exit(2);
  }
  if (threads > 0) exec::set_default_threads(static_cast<int>(threads));
  std::printf("==============================================================\n");
  std::printf("%s\n", figure.c_str());
  std::printf("Paper: %s\n", claim.c_str());
  std::printf("==============================================================\n");
  return flags;
}

void add_smoke_flag(FlagParser& flags) {
  flags.add_bool("smoke", false, "reduced inputs for a quick CI run");
}

exec::ThreadPool& pool() { return exec::ThreadPool::shared(); }

obs::Tracer* bench_tracer() {
  // Intentionally leaked: std::atexit(write_env_trace) is registered during
  // this static's initialization, so a destructor registered *after*
  // initialization (e.g. a unique_ptr's) would run before the handler and
  // the export would read a destroyed tracer.
  static obs::Tracer* const tracer = []() -> obs::Tracer* {
    const char* out = std::getenv("CORRAL_TRACE_OUT");
    if (out == nullptr || *out == '\0') return nullptr;
    obs::TracerOptions options;
    const char* level = std::getenv("CORRAL_TRACE_LEVEL");
    options.level = level != nullptr ? obs::parse_trace_level(level)
                                     : obs::TraceLevel::kJobs;
    std::atexit(write_env_trace);
    return new obs::Tracer(options);
  }();
  return tracer;
}

std::vector<BatchResult> run_traced(std::span<const BatchCase> cases) {
  BatchRunner runner(&pool());
  if (obs::Tracer* tracer = bench_tracer()) {
    runner.set_tracer(tracer, next_trace_sink);
    next_trace_sink += static_cast<int>(cases.size());
  }
  return runner.run(cases);
}

ClusterConfig testbed() {
  ClusterConfig config;
  config.racks = 7;
  config.machines_per_rack = 30;
  config.slots_per_machine = 8;
  config.nic_bandwidth = 2.5 * kGbps;
  config.oversubscription = 5.0;
  return config;
}

SimConfig default_sim(const ClusterConfig& cluster) {
  SimConfig config;
  config.cluster = cluster;
  config.cluster.background_core_fraction = 0.5;  // §6.1
  config.write_output_replicas = true;
  config.seed = 2015;
  return config;
}

std::vector<JobSpec> w1(Rng& rng, int jobs) {
  W1Config config;
  config.num_jobs = jobs;
  return make_w1(config, rng);
}

std::vector<JobSpec> w2(Rng& rng) { return make_w2(W2Config{}, rng); }

std::vector<JobSpec> w3(Rng& rng, int jobs) {
  W3Config config;
  config.num_jobs = jobs;
  return make_w3(config, rng);
}

PlannedWorkload plan_workload(const std::vector<JobSpec>& jobs,
                              const ClusterConfig& cluster,
                              Objective objective) {
  PlannerConfig config;
  config.objective = objective;
  std::vector<JobSpec> recurring;
  for (const JobSpec& job : jobs) {
    if (job.recurring) recurring.push_back(job);
  }
  Plan plan = plan_offline(recurring, cluster, config);
  PlanLookup lookup(recurring, plan);
  return PlannedWorkload{std::move(plan), std::move(lookup)};
}

std::vector<BatchCase> policy_cases(const std::vector<JobSpec>& jobs,
                                    const PlannedWorkload& planned,
                                    const SimConfig& sim,
                                    const std::string& label_prefix,
                                    bool include_shufflewatcher) {
  // The factories run on pool workers; they capture only read-only state
  // (the plan lookup, value copies of sim knobs) per the BatchCase rule.
  const PlanLookup* lookup = &planned.lookup;
  std::vector<BatchCase> cases;
  const auto add = [&](const std::string& name, auto factory) {
    BatchCase batch_case;
    batch_case.label = label_prefix + name;
    batch_case.jobs = jobs;
    batch_case.config = sim;
    batch_case.make_policy = std::move(factory);
    cases.push_back(std::move(batch_case));
  };
  add("yarn", []() -> std::unique_ptr<SchedulingPolicy> {
    return std::make_unique<YarnCapacityPolicy>();
  });
  add("corral", [lookup]() -> std::unique_ptr<SchedulingPolicy> {
    return std::make_unique<CorralPolicy>(lookup);
  });
  add("local-shuffle", [lookup]() -> std::unique_ptr<SchedulingPolicy> {
    return std::make_unique<LocalShufflePolicy>(lookup);
  });
  if (include_shufflewatcher) {
    const int slots_per_rack = sim.cluster.slots_per_rack();
    add("shufflewatcher", [slots_per_rack]() -> std::unique_ptr<SchedulingPolicy> {
      return std::make_unique<ShuffleWatcherPolicy>(slots_per_rack);
    });
  }
  return cases;
}

PolicyComparison run_all_policies(const std::vector<JobSpec>& jobs,
                                  Objective objective, const SimConfig& sim,
                                  bool include_shufflewatcher) {
  const PlannedWorkload planned =
      plan_workload(jobs, sim.cluster, objective);
  const std::vector<BatchCase> cases =
      policy_cases(jobs, planned, sim, "", include_shufflewatcher);
  const std::vector<BatchResult> batch = run_traced(cases);

  PolicyComparison results;
  results.yarn = batch[0].result;
  results.corral = batch[1].result;
  results.localshuffle = batch[2].result;
  if (include_shufflewatcher) results.shufflewatcher = batch[3].result;
  return results;
}

TwoPolicyComparison run_yarn_and_corral(const std::vector<JobSpec>& jobs,
                                        Objective objective,
                                        const SimConfig& sim) {
  const PlannedWorkload planned =
      plan_workload(jobs, sim.cluster, objective);
  std::vector<BatchCase> cases =
      policy_cases(jobs, planned, sim, "", /*include_shufflewatcher=*/false);
  cases.resize(2);  // yarn + corral only
  const std::vector<BatchResult> batch = run_traced(cases);
  TwoPolicyComparison results;
  results.yarn = batch[0].result;
  results.corral = batch[1].result;
  return results;
}

std::string pct(double fraction) { return TextTable::pct(fraction, 1); }

void print_cdf(const std::string& title, const std::vector<double>& samples,
               int points) {
  Cdf cdf(samples);
  std::printf("  %s (n=%zu):\n", title.c_str(), cdf.size());
  for (const auto& [value, fraction] : cdf.sample_points(points)) {
    std::printf("    p%-5.1f %12.1f\n", fraction * 100, value);
  }
}

}  // namespace corral::bench
