// Figure 7 (+ the §6.2 data-balance paragraph): cross-rack data, compute
// hours, reduce-time distribution and input-balance CoV for W1 as a batch.
#include <cstdio>

#include "bench_common.h"
#include "util/stats.h"

using namespace corral;

int main(int argc, char** argv) {
  bench::parse_args(
      argc, argv,
      "Figure 7 - W1 batch: cross-rack data / compute hours / reduce times",
      "(a) Corral moves 20-90% less cross-rack data; (b) up to 20% fewer "
      "compute hours; (c) ~40% faster average reduce time at the median; "
      "input-balance CoV 0.004 (Corral) vs 0.014 (HDFS)");

  Rng rng(7);
  const auto jobs = bench::w1(rng);
  const SimConfig sim = bench::default_sim(bench::testbed());
  const auto r = bench::run_all_policies(jobs, Objective::kMakespan, sim);

  const double base_bytes = r.yarn.total_cross_rack_bytes;
  std::printf("\n(a) Cross-rack data transferred:\n");
  std::printf("    %-16s %10.1f TB\n", "yarn-cs", base_bytes / kTB);
  for (const SimResult* result :
       {&r.corral, &r.localshuffle, &r.shufflewatcher}) {
    std::printf("    %-16s %10.1f TB  reduction %s\n",
                result->policy_name.c_str(),
                result->total_cross_rack_bytes / kTB,
                bench::pct(reduction(base_bytes,
                                     result->total_cross_rack_bytes))
                    .c_str());
  }

  const double base_hours = r.yarn.total_compute_hours;
  std::printf("\n(b) Compute hours:\n");
  std::printf("    %-16s %10.1f h\n", "yarn-cs", base_hours);
  for (const SimResult* result :
       {&r.corral, &r.localshuffle, &r.shufflewatcher}) {
    std::printf("    %-16s %10.1f h  reduction %s\n",
                result->policy_name.c_str(), result->total_compute_hours,
                bench::pct(reduction(base_hours,
                                     result->total_compute_hours))
                    .c_str());
  }

  std::printf("\n(c) Average reduce time per job (seconds):\n");
  const auto yarn_reduce = r.yarn.per_job_avg_reduce_time();
  const auto corral_reduce = r.corral.per_job_avg_reduce_time();
  bench::print_cdf("yarn-cs", yarn_reduce);
  bench::print_cdf("corral", corral_reduce);
  std::printf("    median reduction: %s   (paper: ~40%% at the median)\n",
              bench::pct(reduction(percentile(yarn_reduce, 50),
                                   percentile(corral_reduce, 50)))
                  .c_str());

  std::printf("\nMean rack-uplink utilization (lower = more core headroom "
              "for other tenants):\n");
  for (const SimResult* result :
       {&r.yarn, &r.corral, &r.localshuffle, &r.shufflewatcher}) {
    std::printf("    %-16s %6.1f%%\n", result->policy_name.c_str(),
                100 * result->avg_uplink_utilization());
  }

  std::printf("\nInput data balance (CoV of per-rack input bytes):\n");
  std::printf("    corral  %.4f   (paper: <= 0.004)\n",
              r.corral.input_balance_cov);
  std::printf("    hdfs    %.4f   (paper: <= 0.014)\n",
              r.yarn.input_balance_cov);
  return 0;
}
