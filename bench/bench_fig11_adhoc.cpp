// Figure 11: a mix of 100 recurring and 50 ad hoc W1 jobs. The recurring
// jobs arrive over an hour and are planned by Corral; the ad hoc jobs run
// as a batch with Yarn-CS-style scheduling in both configurations.
#include <cstdio>

#include "bench_common.h"
#include "util/stats.h"

using namespace corral;

int main(int argc, char** argv) {
  bench::parse_args(
      argc, argv, "Figure 11 - mixed recurring + ad hoc jobs",
      "Corral cuts recurring avg/median JCT by 33%/27%; ad hoc jobs also "
      "finish faster (37% at p90, makespan -28%)");

  Rng rng(11);
  auto recurring = bench::w1(rng, 100);
  assign_uniform_arrivals(recurring, 60 * kMinute, rng);
  auto adhoc = bench::w1(rng, 50);
  mark_ad_hoc(adhoc);
  for (std::size_t i = 0; i < adhoc.size(); ++i) {
    adhoc[i].id = 1000 + static_cast<int>(i);
  }

  std::vector<JobSpec> all = recurring;
  all.insert(all.end(), adhoc.begin(), adhoc.end());

  const auto [with_yarn, with_corral] = bench::run_yarn_and_corral(
      all, Objective::kAverageCompletionTime,
      bench::default_sim(bench::testbed()));

  std::vector<double> cor_rec, yarn_rec, cor_adhoc, yarn_adhoc;
  double cor_adhoc_makespan = 0, yarn_adhoc_makespan = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].recurring) {
      cor_rec.push_back(with_corral.jobs[i].completion_time());
      yarn_rec.push_back(with_yarn.jobs[i].completion_time());
    } else {
      cor_adhoc.push_back(with_corral.jobs[i].completion_time());
      yarn_adhoc.push_back(with_yarn.jobs[i].completion_time());
      cor_adhoc_makespan = std::max(cor_adhoc_makespan,
                                    with_corral.jobs[i].finish);
      yarn_adhoc_makespan = std::max(yarn_adhoc_makespan,
                                     with_yarn.jobs[i].finish);
    }
  }

  std::printf("\n(a) Recurring jobs:\n");
  bench::print_cdf("yarn-cs JCT (s)", yarn_rec, 8);
  bench::print_cdf("corral JCT (s)", cor_rec, 8);
  std::printf("  avg reduction %s (paper 33%%), median reduction %s "
              "(paper 27%%)\n",
              bench::pct(reduction(mean(yarn_rec), mean(cor_rec))).c_str(),
              bench::pct(reduction(percentile(yarn_rec, 50),
                                   percentile(cor_rec, 50)))
                  .c_str());

  std::printf("\n(b) Ad hoc jobs (scheduled Yarn-CS style in both runs):\n");
  bench::print_cdf("yarn-cs JCT (s)", yarn_adhoc, 8);
  bench::print_cdf("corral JCT (s)", cor_adhoc, 8);
  std::printf("  p90 reduction %s (paper 37%%), makespan reduction %s "
              "(paper ~28%%)\n",
              bench::pct(reduction(percentile(yarn_adhoc, 90),
                                   percentile(cor_adhoc, 90)))
                  .c_str(),
              bench::pct(reduction(yarn_adhoc_makespan, cor_adhoc_makespan))
                  .c_str());
  return 0;
}
