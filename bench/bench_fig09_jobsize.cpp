// Figure 9: reduction in average job completion time relative to Yarn-CS,
// binned by W1 job size, in the online scenario.
#include <cstdio>

#include "bench_common.h"

using namespace corral;

namespace {

double avg_for_class(const SimResult& result,
                     const std::vector<JobSpec>& jobs, JobSizeClass wanted) {
  double total = 0;
  int count = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (classify_w1(jobs[i]) != wanted) continue;
    total += result.jobs[i].completion_time();
    ++count;
  }
  return count == 0 ? 0 : total / count;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_args(
      argc, argv,
      "Figure 9 - avg completion-time reduction by job size (W1 online)",
      "Corral gains 30-36% across all bins; ShuffleWatcher helps "
      "small/medium jobs but hurts large ones");

  Rng rng(9);
  auto jobs = bench::w1(rng);
  assign_uniform_arrivals(jobs, 60 * kMinute, rng);
  const SimConfig sim = bench::default_sim(bench::testbed());
  const auto r = bench::run_all_policies(
      jobs, Objective::kAverageCompletionTime, sim);

  std::printf("\n%-10s %10s %14s %16s\n", "size", "Corral", "LocalShuffle",
              "ShuffleWatcher");
  const struct {
    const char* label;
    JobSizeClass cls;
  } bins[] = {{"Small", JobSizeClass::kSmall},
              {"Medium", JobSizeClass::kMedium},
              {"Large", JobSizeClass::kLarge}};
  for (const auto& bin : bins) {
    const double base = avg_for_class(r.yarn, jobs, bin.cls);
    std::printf("%-10s %9.1f%% %13.1f%% %15.1f%%   (yarn avg %.0fs)\n",
                bin.label,
                100 * reduction(base, avg_for_class(r.corral, jobs, bin.cls)),
                100 * reduction(base,
                                avg_for_class(r.localshuffle, jobs, bin.cls)),
                100 * reduction(
                          base, avg_for_class(r.shufflewatcher, jobs,
                                              bin.cls)),
                base);
  }
  return 0;
}
