// Figure 14: large-scale simulation combining job schedulers (Yarn-CS,
// Corral) with network schedulers (TCP max-min, Varys). The paper simulates
// 2000 machines (50 racks x 40 x 20 slots, 1 Gbps NICs) running 200 W1 jobs
// arriving over 15 minutes. We keep the topology and halve the job count /
// task scale to bound wall-clock time; the comparison is relative.
#include <cstdio>

#include "bench_common.h"
#include "util/stats.h"

using namespace corral;

int main(int argc, char** argv) {
  bench::parse_args(
      argc, argv,
      "Figure 14 - job scheduler x network scheduler (2000-machine sim)",
      "Yarn+Varys ~46% better median JCT than Yarn+TCP; Corral+TCP beats "
      "Yarn+Varys (~45%); Corral+Varys is best");

  ClusterConfig cluster = ClusterConfig::paper_simulation();
  Rng rng(14);
  W1Config wconfig;
  wconfig.num_jobs = 200;
  wconfig.task_scale = 0.5;
  auto jobs = make_w1(wconfig, rng);
  assign_uniform_arrivals(jobs, 15 * kMinute, rng);

  SimConfig sim;
  sim.cluster = cluster;
  sim.cluster.background_core_fraction = 0.5;
  // The paper's flow-based event simulator models reads and shuffles, not
  // HDFS replica writes; match it so the comparison is apples-to-apples.
  sim.write_output_replicas = false;
  sim.seed = 2015;

  const auto planned = bench::plan_workload(
      jobs, sim.cluster, Objective::kAverageCompletionTime);

  struct Combo {
    const char* label;
    std::size_t policy;  // policy_cases order: 0 = yarn, 1 = corral
    NetPolicy net;
  };
  const Combo combos[] = {{"yarn-cs + tcp", 0, NetPolicy::kTcp},
                          {"yarn-cs + varys", 0, NetPolicy::kVarys},
                          {"corral  + tcp", 1, NetPolicy::kTcp},
                          {"corral  + varys", 1, NetPolicy::kVarys}};

  // The four simulations run as one batch on the bench pool.
  std::vector<BatchCase> cases;
  for (const Combo& combo : combos) {
    SimConfig config = sim;
    config.net_policy = combo.net;
    cases.push_back(std::move(bench::policy_cases(
        jobs, planned, config, std::string(to_string(combo.net)) + "/",
        /*include_shufflewatcher=*/false)[combo.policy]));
  }
  const std::vector<BatchResult> batch = bench::run_traced(cases);

  std::printf("\n%-18s %12s %12s %12s\n", "combination", "median (s)",
              "mean (s)", "p90 (s)");
  std::vector<double> medians;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::vector<double> jct = batch[i].result.completion_times();
    medians.push_back(percentile(jct, 50));
    std::printf("%-18s %12.1f %12.1f %12.1f\n", combos[i].label,
                medians.back(), mean(jct), percentile(jct, 90));
  }

  const double yarn_tcp = medians[0];
  const double yarn_varys = medians[1];
  const double corral_tcp = medians[2];
  const double corral_varys = medians[3];
  std::printf("\nMedian JCT reductions:\n");
  std::printf("  yarn+varys  vs yarn+tcp:    %s  (paper: ~46%%)\n",
              bench::pct(reduction(yarn_tcp, yarn_varys)).c_str());
  std::printf("  corral+tcp  vs yarn+varys:  %s  (paper: ~45%%)\n",
              bench::pct(reduction(yarn_varys, corral_tcp)).c_str());
  std::printf("  corral+varys vs corral+tcp: %s  (positive: orthogonal "
              "gains)\n",
              bench::pct(reduction(corral_tcp, corral_varys)).c_str());
  return 0;
}
