// Figure 12: Corral's gains over Yarn-CS as the background traffic on each
// rack's 60 Gbps core connection grows from 30 to 40 Gbps (50% -> 67%).
//
// Two W1 variants are shown. With the paper's symmetric output
// selectivities our Corral becomes bound on its own (unavoidable)
// cross-rack replica writes, so its gain saturates around 30% instead of
// growing; with aggregation-heavy outputs (output <= input, the common case
// for reporting/rollup pipelines) Corral stays compute-bound and the
// paper's ">2x higher benefits" shape reproduces.
#include <cstdio>

#include "bench_common.h"

using namespace corral;

namespace {

void sweep(const char* label, const std::vector<JobSpec>& batch_jobs,
           const std::vector<JobSpec>& online_jobs) {
  std::printf("\n%s\n", label);
  std::printf("%-22s %20s %24s\n", "background (of 60Gbps)",
              "makespan reduction", "avg job time reduction");
  for (double fraction : {0.50, 0.583, 0.667}) {
    SimConfig sim = bench::default_sim(bench::testbed());
    sim.cluster.background_core_fraction = fraction;

    const auto batch = bench::run_yarn_and_corral(
        batch_jobs, Objective::kMakespan, sim);
    const auto online = bench::run_yarn_and_corral(
        online_jobs, Objective::kAverageCompletionTime, sim);

    std::printf("%-22s %19.1f%% %23.1f%%\n",
                (std::to_string(static_cast<int>(fraction * 60 + 0.5)) +
                 " Gbps")
                    .c_str(),
                100 * reduction(batch.yarn.makespan, batch.corral.makespan),
                100 * reduction(online.yarn.avg_completion(),
                                online.corral.avg_completion()));
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_args(
      argc, argv, "Figure 12 - benefit vs background core load (W1)",
      "gains more than double as background traffic grows from 30 Gbps "
      "(50%) to 40 Gbps (67%) of the rack uplink");

  Rng rng(12);
  {
    const auto batch_jobs = bench::w1(rng, 200);
    auto online_jobs = bench::w1(rng, 200);
    assign_uniform_arrivals(online_jobs, 60 * kMinute, rng);
    sweep("(a) W1 with symmetric selectivities (our default):", batch_jobs,
          online_jobs);
  }
  {
    W1Config config;
    config.num_jobs = 200;
    config.min_output_selectivity = 0.125;
    config.max_output_selectivity = 1.0;
    const auto batch_jobs = make_w1(config, rng);
    auto online_jobs = make_w1(config, rng);
    assign_uniform_arrivals(online_jobs, 60 * kMinute, rng);
    sweep("(b) aggregation-heavy W1 (output <= input):", batch_jobs,
          online_jobs);
  }
  std::printf(
      "\nVariant (b) is where the paper's steep growth appears: Corral's\n"
      "only core-bandwidth exposure is replica writes, so when those are\n"
      "small its makespan is immune to background load while Yarn-CS's\n"
      "grows with it.\n");
  return 0;
}
