// Figure 8: CDFs of job completion time for W1/W2/W3 when jobs arrive
// online, uniformly at random over a one-hour window. As in Figure 6, all
// workloads x policies fan into one BatchRunner batch.
#include <cstdio>

#include "bench_common.h"
#include "util/stats.h"

using namespace corral;

int main(int argc, char** argv) {
  bench::parse_args(
      argc, argv,
      "Figure 8 - online job completion times (arrivals U[0, 60min])",
      "Corral improves the median by 30-56% and the average by 26-36% "
      "over Yarn-CS; ShuffleWatcher degrades the tail");

  Rng rng(8);
  struct Entry {
    const char* name;
    std::vector<JobSpec> jobs;
  };
  std::vector<Entry> workloads;
  workloads.push_back({"W1", bench::w1(rng)});
  workloads.push_back({"W2", bench::w2(rng)});
  workloads.push_back({"W3", bench::w3(rng)});

  const SimConfig sim = bench::default_sim(bench::testbed());

  // Arrival assignment and planning both happen before any case is built:
  // the cases hold pointers into `planned` and copy the (already arrival-
  // stamped) job vectors.
  std::vector<bench::PlannedWorkload> planned;
  planned.reserve(workloads.size());
  for (Entry& entry : workloads) {
    assign_uniform_arrivals(entry.jobs, 60 * kMinute, rng);
    planned.push_back(bench::plan_workload(
        entry.jobs, sim.cluster, Objective::kAverageCompletionTime));
  }
  std::vector<BatchCase> cases;
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    auto workload_cases = bench::policy_cases(
        workloads[w].jobs, planned[w], sim,
        std::string(workloads[w].name) + "/");
    for (BatchCase& batch_case : workload_cases) {
      cases.push_back(std::move(batch_case));
    }
  }
  const std::vector<BatchResult> batch = bench::run_traced(cases);

  constexpr std::size_t kPoliciesPerWorkload = 4;
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    const SimResult& yarn = batch[w * kPoliciesPerWorkload + 0].result;
    const SimResult& corral = batch[w * kPoliciesPerWorkload + 1].result;
    const SimResult& localshuffle = batch[w * kPoliciesPerWorkload + 2].result;
    const SimResult& shufflewatcher =
        batch[w * kPoliciesPerWorkload + 3].result;
    std::printf("\n--- %s ---\n", workloads[w].name);
    bench::print_cdf("yarn-cs JCT (s)", yarn.completion_times(), 9);
    bench::print_cdf("corral JCT (s)", corral.completion_times(), 9);
    std::printf("  median reduction: corral %s, local-shuffle %s, "
                "shufflewatcher %s\n",
                bench::pct(reduction(yarn.median_completion(),
                                     corral.median_completion()))
                    .c_str(),
                bench::pct(reduction(yarn.median_completion(),
                                     localshuffle.median_completion()))
                    .c_str(),
                bench::pct(reduction(yarn.median_completion(),
                                     shufflewatcher.median_completion()))
                    .c_str());
    std::printf("  average reduction: corral %s   (paper: 26-36%%)\n",
                bench::pct(reduction(yarn.avg_completion(),
                                     corral.avg_completion()))
                    .c_str());
    std::printf("  p90 reduction: corral %s, shufflewatcher %s\n",
                bench::pct(reduction(
                    percentile(yarn.completion_times(), 90),
                    percentile(corral.completion_times(), 90)))
                    .c_str(),
                bench::pct(reduction(
                    percentile(yarn.completion_times(), 90),
                    percentile(shufflewatcher.completion_times(), 90)))
                    .c_str());
  }
  return 0;
}
