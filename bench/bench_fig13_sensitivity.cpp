// Figure 13: robustness of Corral's gains to (a) errors in predicted job
// input sizes and (b) errors in predicted job start times. The plan is
// computed from the *predicted* workload while execution uses the
// *perturbed* one.
#include <cstdio>

#include "bench_common.h"

using namespace corral;

int main(int argc, char** argv) {
  bench::parse_args(
      argc, argv, "Figure 13 - sensitivity to prediction errors (W1)",
      "(a) 25-35% makespan reduction up to 50% size error; (b) online gains "
      "fall from ~40% to ~25% as up to 50% of jobs shift by +/-4 min");

  Rng rng(13);
  const SimConfig sim = bench::default_sim(bench::testbed());

  // (a) Batch scenario, size errors. Plan on the nominal sizes, run the
  // perturbed ones.
  {
    const auto nominal = bench::w1(rng, 200);
    const auto planned =
        bench::plan_workload(nominal, sim.cluster, Objective::kMakespan);
    std::printf("\n(a) Error in predicted input size (batch):\n");
    std::printf("    %-10s %20s\n", "error", "makespan reduction");
    for (double error : {0.0, 0.1, 0.2, 0.3, 0.4, 0.5}) {
      const auto actual = perturb_sizes(nominal, error, rng);
      YarnCapacityPolicy yarn;
      const SimResult yarn_result = run_simulation(actual, yarn, sim);
      CorralPolicy corral(&planned.lookup);
      const SimResult corral_result = run_simulation(actual, corral, sim);
      std::printf("    %-10.0f %19.1f%%\n", error * 100,
                  100 * reduction(yarn_result.makespan,
                                  corral_result.makespan));
    }
    std::printf("    (paper: stays within 25-35%% up to 50%% error)\n");
  }

  // (b) Online scenario, arrival errors: a fraction f of jobs shifts by a
  // random offset in [-4min, +4min].
  {
    auto nominal = bench::w1(rng, 200);
    assign_uniform_arrivals(nominal, 60 * kMinute, rng);
    const auto planned = bench::plan_workload(
        nominal, sim.cluster, Objective::kAverageCompletionTime);
    std::printf("\n(b) Error in job start times (online, t = 4 min):\n");
    std::printf("    %-14s %24s\n", "jobs delayed", "avg job time reduction");
    for (double fraction : {0.0, 0.1, 0.2, 0.3, 0.4, 0.5}) {
      const auto actual =
          perturb_arrivals(nominal, fraction, 4 * kMinute, rng);
      YarnCapacityPolicy yarn;
      const SimResult yarn_result = run_simulation(actual, yarn, sim);
      CorralPolicy corral(&planned.lookup);
      const SimResult corral_result = run_simulation(actual, corral, sim);
      std::printf("    %-14.0f %23.1f%%\n", fraction * 100,
                  100 * reduction(yarn_result.avg_completion(),
                                  corral_result.avg_completion()));
    }
    std::printf("    (paper: declines from ~40%% to no less than ~25%%)\n");
  }
  return 0;
}
