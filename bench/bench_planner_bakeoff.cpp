// Planner-backend bakeoff: Corral's two-phase heuristic vs the DAGPS-style
// packer vs LP rounding (src/plan/backend.h, docs/planners.md) over the
// Fig 10 TPC-H query workload and the Fig 6 W1 batch workload, at several
// cluster sizes. For every instance the bench reports predicted makespan,
// the gap to the LP-Batch lower bound, and the deterministic planning cost
// (candidate evaluations) next to wall time; the series lands in
// BENCH_planner_bakeoff.json.
//
// The bench also enforces LpRoundBackend's rounding certificate: on every
// batch instance its makespan must stay within 4x of the LP bound it
// reports (2x from rounding the per-job LP envelope, 2x from list
// scheduling; see src/plan/lpround.cpp). A violation exits non-zero.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "plan/backend.h"
#include "workload/tpch.h"

using namespace corral;

namespace {

ClusterConfig sized_testbed(int racks) {
  ClusterConfig cluster = bench::testbed();
  cluster.racks = racks;
  return cluster;
}

struct Row {
  std::string workload;
  int racks = 0;
  std::string backend;
  Seconds makespan = 0;
  Seconds lp_bound = 0;       // LP-Batch bound for the instance
  std::size_t evals = 0;      // deterministic planning cost
  double wall_ms = 0;
};

}  // namespace

int main(int argc, char** argv) {
  // --smoke: a tiny grid for CI that still exercises every backend and the
  // JSON-write path. Registered as a ctest case in bench/CMakeLists.txt.
  const bool smoke =
      bench::parse_args(
          argc, argv, "Planner-backend bakeoff: corral vs dagpack vs lpround",
          "Corral lands within a few percent of the LP bound; dagpack trades a "
          "little quality for DAG-aware packing; lpround certifies <= 4x",
          bench::add_smoke_flag)
          .get_bool("smoke");

  struct Workload {
    const char* name;
    std::vector<JobSpec> jobs;
  };
  std::vector<Workload> workloads;
  {
    // Fig 10's 15 recurring TPC-H queries, run as a batch (arrival 0) so
    // the LP-Batch bound — and lpround's certificate — apply exactly.
    Rng rng(10);
    workloads.push_back({"tpch", make_tpch(TpchConfig{}, rng, 0)});
  }
  {
    // Fig 6's W1 MapReduce batch.
    Rng rng(6);
    workloads.push_back({"w1", bench::w1(rng, smoke ? 24 : 200)});
  }

  const std::vector<int> rack_counts =
      smoke ? std::vector<int>{7} : std::vector<int>{7, 14, 21};
  const std::vector<PlannerBackendKind> backends = {
      PlannerBackendKind::kCorral, PlannerBackendKind::kDagPack,
      PlannerBackendKind::kLpRound};

  std::vector<Row> rows;
  int violations = 0;
  std::printf("\n%-6s %-6s %-8s %12s %12s %7s %10s %9s\n", "wkld", "racks",
              "backend", "makespan(s)", "lp-bound(s)", "gap", "evals",
              "wall(ms)");
  for (const Workload& workload : workloads) {
    for (int racks : rack_counts) {
      const ClusterConfig cluster = sized_testbed(racks);
      const LatencyModelParams params =
          LatencyModelParams::from_cluster(cluster);
      const auto functions =
          build_response_functions(workload.jobs, cluster.racks, params);
      const double instance_bound =
          lp_batch_makespan_bound(functions, cluster.racks);

      PlannerConfig config;
      config.objective = Objective::kMakespan;
      config.pool = &bench::pool();
      for (PlannerBackendKind kind : backends) {
        config.backend = kind;
        plan::PlannerRequest request;
        request.jobs = functions;
        request.specs = workload.jobs;
        request.num_racks = cluster.racks;
        request.config = &config;

        const auto start = std::chrono::steady_clock::now();
        const plan::ProvisionPlan provision =
            plan::planner_backend(kind).plan(request);
        const auto stop = std::chrono::steady_clock::now();

        Row row;
        row.workload = workload.name;
        row.racks = racks;
        row.backend = std::string(plan::to_string(kind));
        row.makespan = provision.plan.predicted_makespan;
        row.lp_bound = instance_bound;
        row.evals = provision.plan.evaluated_candidates;
        row.wall_ms =
            std::chrono::duration<double, std::milli>(stop - start).count();
        rows.push_back(row);
        std::printf("%-6s %-6d %-8s %12.1f %12.1f %6.1f%% %10zu %9.2f\n",
                    row.workload.c_str(), row.racks, row.backend.c_str(),
                    row.makespan, row.lp_bound,
                    100 * (row.makespan / row.lp_bound - 1), row.evals,
                    row.wall_ms);

        // The rounding certificate, checked against the bound the backend
        // itself reports (its per-job LP bisection).
        if (kind == PlannerBackendKind::kLpRound &&
            provision.plan.predicted_makespan >
                4.0 * provision.lp_bound * (1 + 1e-9)) {
          std::fprintf(stderr,
                       "CERTIFICATE VIOLATION: %s racks=%d lpround makespan "
                       "%.1fs > 4x lp_bound %.1fs\n",
                       workload.name, racks,
                       provision.plan.predicted_makespan, provision.lp_bound);
          ++violations;
        }
      }
    }
  }

  // Per-backend summary: mean makespan and mean LP gap across instances.
  std::printf("\n%-8s %16s %10s %12s\n", "backend", "mean makespan(s)",
              "mean gap", "total evals");
  std::ofstream out("BENCH_planner_bakeoff.json");
  out << "{\n  \"bench\": \"planner_bakeoff\",\n  \"summary\": [\n";
  for (std::size_t b = 0; b < backends.size(); ++b) {
    const std::string name(plan::to_string(backends[b]));
    double makespan_sum = 0, gap_sum = 0;
    std::size_t eval_sum = 0, count = 0;
    for (const Row& row : rows) {
      if (row.backend != name) continue;
      makespan_sum += row.makespan;
      gap_sum += row.makespan / row.lp_bound - 1;
      eval_sum += row.evals;
      ++count;
    }
    const double n = static_cast<double>(std::max<std::size_t>(count, 1));
    std::printf("%-8s %16.1f %9.1f%% %12zu\n", name.c_str(),
                makespan_sum / n, 100 * gap_sum / n, eval_sum);
    out << "   {\"backend\": \"" << name
        << "\", \"mean_makespan_s\": " << makespan_sum / n
        << ", \"mean_lp_gap\": " << gap_sum / n
        << ", \"total_candidate_evals\": " << eval_sum << "}"
        << (b + 1 < backends.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    out << "   {\"workload\": \"" << row.workload
        << "\", \"racks\": " << row.racks << ", \"backend\": \""
        << row.backend << "\", \"makespan_s\": " << row.makespan
        << ", \"lp_bound_s\": " << row.lp_bound
        << ", \"lp_gap\": " << row.makespan / row.lp_bound - 1
        << ", \"candidate_evals\": " << row.evals
        << ", \"wall_ms\": " << row.wall_ms << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("\nseries written to BENCH_planner_bakeoff.json\n");

  if (violations > 0) {
    std::fprintf(stderr, "%d rounding-certificate violation(s)\n",
                 violations);
    return 1;
  }
  return 0;
}
