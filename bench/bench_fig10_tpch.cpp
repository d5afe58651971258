// Figure 10: TPC-H (Hive) queries scheduled with Corral vs Yarn-CS, with a
// batch of W1 MapReduce jobs running alongside under Yarn-CS (§6.3).
#include <cstdio>

#include "bench_common.h"
#include "util/stats.h"
#include "workload/tpch.h"

using namespace corral;

int main(int argc, char** argv) {
  bench::parse_args(
      argc, argv,
      "Figure 10 - TPC-H query completion times (200GB database, 15 queries)",
      "Corral reduces the median by ~18.5% and the mean by ~21%; gains hold "
      "even though the queries spend <= 20% of their time in shuffle");

  Rng rng(10);
  // The 15 recurring queries arrive over 25 minutes...
  auto queries = make_tpch(TpchConfig{}, rng, /*first_id=*/0);
  assign_uniform_arrivals(queries, 25 * kMinute, rng);
  // ...alongside ad hoc W1 MapReduce jobs run with Yarn-CS policies,
  // submitted over the same period ("along with the queries, we also
  // submit a batch of MapReduce jobs").
  auto background = bench::w1(rng, 40);
  assign_uniform_arrivals(background, 25 * kMinute, rng);
  mark_ad_hoc(background);
  for (std::size_t i = 0; i < background.size(); ++i) {
    background[i].id = 1000 + static_cast<int>(i);
  }

  std::vector<JobSpec> all = queries;
  all.insert(all.end(), background.begin(), background.end());

  // Case (i): queries planned and run by Corral (background stays ad hoc).
  // Case (ii): everything under Yarn-CS.
  const auto [with_yarn, with_corral] = bench::run_yarn_and_corral(
      all, Objective::kAverageCompletionTime,
      bench::default_sim(bench::testbed()));

  std::vector<double> corral_jct, yarn_jct;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    corral_jct.push_back(with_corral.jobs[i].completion_time());
    yarn_jct.push_back(with_yarn.jobs[i].completion_time());
  }

  bench::print_cdf("yarn-cs query completion (s)", yarn_jct, 8);
  bench::print_cdf("corral query completion (s)", corral_jct, 8);
  std::printf("\n  median reduction: %s  (paper: ~18.5%%)\n",
              bench::pct(reduction(percentile(yarn_jct, 50),
                                   percentile(corral_jct, 50)))
                  .c_str());
  std::printf("  mean reduction:   %s  (paper: ~21%%)\n",
              bench::pct(reduction(mean(yarn_jct), mean(corral_jct)))
                  .c_str());
  return 0;
}
