// Ablations of the design choices called out in DESIGN.md:
//   1. the data-imbalance penalty coefficient alpha (§4.5),
//   2. the provisioning stop rule (run to r_j = R vs the [19]-style stop),
//   3. widest-job-first tie-breaking in the prioritization phase,
//   4. replicated output writes in the simulator,
//   5. the event-batching quantum (simulation fidelity knob),
//   6. the remote-storage deployment of §7 (input from an external store),
//   7. rolling-horizon replanning (§3.1) vs a single offline shot.
#include <chrono>
#include <cstdio>

#include "bench_common.h"

using namespace corral;

int main(int argc, char** argv) {
  bench::parse_args(
      argc, argv, "Ablations - planner and simulator design choices",
      "each row isolates one design decision");

  const ClusterConfig cluster = bench::testbed();
  Rng rng(77);
  const auto jobs = bench::w1(rng, 120);

  // --- 1. imbalance penalty alpha ---
  std::printf("\n(1) Data-imbalance penalty alpha (W1 batch):\n");
  std::printf("    %-18s %14s %16s\n", "alpha", "input CoV",
              "corral makespan");
  const LatencyModelParams base_params =
      LatencyModelParams::from_cluster(cluster);
  for (double scale : {0.0, 1.0, 10.0}) {
    LatencyModelParams params = base_params;
    params.alpha = base_params.default_alpha() * scale;
    const auto functions =
        build_response_functions(jobs, cluster.racks, params);
    PlannerConfig pconfig;
    const Plan plan = plan_offline(functions, cluster.racks, pconfig);
    const PlanLookup lookup(jobs, plan);
    CorralPolicy policy(&lookup);
    const SimConfig sim = bench::default_sim(cluster);
    const SimResult result = run_simulation(jobs, policy, sim);
    std::printf("    %-18s %14.4f %15.0fs\n",
                scale == 0.0   ? "0"
                : scale == 1.0 ? "1/uplink (paper)"
                               : "10/uplink",
                result.input_balance_cov, result.makespan);
  }

  // --- 2 & 3. provisioning stop rule, widest-first ---
  std::printf("\n(2,3) Planner heuristic variants (predicted makespan, W1):\n");
  {
    const auto functions =
        build_response_functions(jobs, cluster.racks, base_params);
    const struct {
      const char* label;
      bool full;
      bool widest;
    } variants[] = {{"paper (full exploration, widest-first)", true, true},
                    {"stop rule of [19]", false, true},
                    {"plain LPT ordering", true, false}};
    for (const auto& variant : variants) {
      PlannerConfig pconfig;
      pconfig.explore_full_range = variant.full;
      pconfig.widest_job_first = variant.widest;
      const Plan plan = plan_offline(functions, cluster.racks, pconfig);
      std::printf("    %-42s %10.0fs\n", variant.label,
                  plan.predicted_makespan);
    }
  }

  // --- 4. replicated output writes ---
  std::printf("\n(4) Replica writes in the simulator (W1 batch, Corral vs "
              "Yarn-CS):\n");
  for (bool writes : {false, true}) {
    SimConfig sim = bench::default_sim(cluster);
    sim.write_output_replicas = writes;
    const auto r =
        bench::run_yarn_and_corral(jobs, Objective::kMakespan, sim);
    std::printf("    writes %-5s makespan reduction %6.1f%%, cross-rack "
                "reduction %6.1f%%\n",
                writes ? "on" : "off",
                100 * reduction(r.yarn.makespan, r.corral.makespan),
                100 * reduction(r.yarn.total_cross_rack_bytes,
                                r.corral.total_cross_rack_bytes));
  }

  // --- 6. remote storage (§7) ---
  std::printf("\n(6) Remote-storage deployment (input streamed from an "
              "external store):\n");
  {
    Rng remote_rng(78);
    W1Config remote_config;
    remote_config.num_jobs = 60;
    remote_config.task_scale = 0.5;
    const auto remote_jobs = make_w1(remote_config, remote_rng);
    for (bool remote : {false, true}) {
      SimConfig sim = bench::default_sim(cluster);
      sim.remote_input_storage = remote;
      const auto r =
          bench::run_yarn_and_corral(remote_jobs, Objective::kMakespan, sim);
      std::printf("    input=%-7s corral makespan reduction %6.1f%% "
                  "(yarn %.0fs)\n",
                  remote ? "remote" : "dfs",
                  100 * reduction(r.yarn.makespan, r.corral.makespan),
                  r.yarn.makespan);
    }
    std::printf("    (with remote input there is no input locality to win; "
                "shuffle isolation remains)\n");
  }

  // --- 7. rolling-horizon replanning (§3.1) ---
  std::printf("\n(7) Rolling replanning vs single-shot (W1 online, "
              "predicted avg completion):\n");
  {
    Rng roll_rng(79);
    auto online_jobs = bench::w1(roll_rng, 120);
    assign_uniform_arrivals(online_jobs, 60 * kMinute, roll_rng);
    const auto functions = build_response_functions(
        online_jobs, cluster.racks,
        LatencyModelParams::from_cluster(cluster));
    PlannerConfig pconfig;
    pconfig.objective = Objective::kAverageCompletionTime;
    const Plan single = plan_offline(functions, cluster.racks, pconfig);
    std::printf("    %-28s %10.0fs\n", "single shot (whole horizon)",
                single.predicted_avg_completion);
    for (double period_min : {5.0, 15.0, 30.0}) {
      const Plan rolling = plan_rolling(functions, cluster.racks, pconfig,
                                        period_min * kMinute);
      std::printf("    %-28s %10.0fs\n",
                  ("replan every " +
                   std::to_string(static_cast<int>(period_min)) + " min")
                      .c_str(),
                  rolling.predicted_avg_completion);
    }
    std::printf("    (windows cannot reorder across each other, so shorter "
                "periods trade plan quality for responsiveness)\n");
  }

  // --- 5. event-batching quantum ---
  std::printf("\n(5) Event-batching quantum (Yarn-CS on W1 batch):\n");
  std::printf("    %-12s %16s %14s\n", "quantum", "makespan", "wall (s)");
  for (double quantum : {0.0, 0.25, 1.0}) {
    SimConfig sim = bench::default_sim(cluster);
    sim.time_quantum = quantum;
    YarnCapacityPolicy policy;
    const auto start = std::chrono::steady_clock::now();
    const SimResult result = run_simulation(jobs, policy, sim);
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    std::printf("    %-12.2f %15.0fs %14.2f\n", quantum, result.makespan,
                wall);
  }
  return 0;
}
