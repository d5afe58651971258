// Figure 6: reduction in makespan for W1/W2/W3 relative to Yarn-CS when
// each workload runs as a batch. All twelve simulations (three workloads x
// four policies) fan into one BatchRunner batch on the bench pool.
#include <cstdio>

#include "bench_common.h"

using namespace corral;

int main(int argc, char** argv) {
  bench::parse_args(
      argc, argv, "Figure 6 - batch makespan reduction relative to Yarn-CS",
      "Corral 10-33% across W1/W2/W3; LocalShuffle mixed (negative for "
      "W2/W3); ShuffleWatcher significantly negative");

  Rng rng(6);
  struct Entry {
    const char* name;
    std::vector<JobSpec> jobs;
  };
  std::vector<Entry> workloads;
  workloads.push_back({"W1", bench::w1(rng)});
  workloads.push_back({"W2", bench::w2(rng)});
  workloads.push_back({"W3", bench::w3(rng)});

  const SimConfig sim = bench::default_sim(bench::testbed());

  // Plan everything first (the cases hold pointers into `planned`, so it is
  // fully populated before any case is built), then run one flat batch.
  std::vector<bench::PlannedWorkload> planned;
  planned.reserve(workloads.size());
  for (const Entry& entry : workloads) {
    planned.push_back(bench::plan_workload(entry.jobs, sim.cluster,
                                           Objective::kMakespan));
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

  std::printf("\n%-6s %12s %14s %16s\n", "", "Corral", "LocalShuffle",
              "ShuffleWatcher");
  constexpr std::size_t kPoliciesPerWorkload = 4;
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    const SimResult& yarn = batch[w * kPoliciesPerWorkload + 0].result;
    const SimResult& corral = batch[w * kPoliciesPerWorkload + 1].result;
    const SimResult& localshuffle = batch[w * kPoliciesPerWorkload + 2].result;
    const SimResult& shufflewatcher =
        batch[w * kPoliciesPerWorkload + 3].result;
    const double base = yarn.makespan;
    std::printf("%-6s %11.1f%% %13.1f%% %15.1f%%   (yarn-cs makespan %.0fs)\n",
                workloads[w].name, 100 * reduction(base, corral.makespan),
                100 * reduction(base, localshuffle.makespan),
                100 * reduction(base, shufflewatcher.makespan), base);
  }
  std::printf(
      "\nPositive = better than Yarn-CS. Paper reports Corral at 10-33%%,\n"
      "with W2's reduction lowest (its makespan is set by two giant jobs).\n");
  return 0;
}
