// Per-layer instrumentation the benchmark wraps around the program from
// outside: wall-clock timers around public calls, timing decorators for the
// two policy interfaces the simulator calls back into, and a scan of the
// program's own trace (obs::Tracer at flows level) for the allocator and
// coflow counters. Nothing here is compiled into the program itself.
#ifndef CORRAL_PERFBENCH_LAYERS_H_
#define CORRAL_PERFBENCH_LAYERS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "dfs/placement.h"
#include "obs/trace.h"
#include "sim/policy.h"

namespace corral::perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Runs `fn` and adds its wall time in ms to `*total_ms`; returns fn's value.
template <typename Fn>
auto timed(double* total_ms, Fn&& fn) {
  const Clock::time_point start = Clock::now();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    *total_ms += ms_since(start);
  } else {
    auto value = fn();
    *total_ms += ms_since(start);
    return value;
  }
}

// Raw sums over the ops of one traced pass. Counts are exact; times are
// host milliseconds. per_layer_metrics() turns them into the reported
// per-op values.
struct LayerTotals {
  int ops = 0;

  double sim_run_ms = 0;
  double sim_tasks = 0;  // JobSpec task counts of every simulated job
  double task_spans = 0;
  double policy_calls = 0;
  double policy_ms = 0;
  double place_calls = 0;
  double place_ms = 0;

  double recomputes = 0;   // allocator invocations (one counter each)
  double maxmin_samples = 0;
  double active_flows = 0;  // sum of maxmin.active_flows samples
  double fill_rounds = 0;
  double flows = 0;
  double cross_rack_bytes = 0;
  double varys_reorders = 0;   // last cumulative sample per sink, summed
  double order_refreshes = 0;  // likewise, lp-order + sincronia
  double live_coflow_samples = 0;
  double live_coflows = 0;

  double plan_ms = 0;
  double candidates = 0;
  double rf_build_ms = 0;
  double prioritize_ms = 0;
  double dagpack_ms = 0;
  double lpround_ms = 0;
  double pivots = 0;
  double bound_ms = 0;

  double service_ms = 0;
  double tenant_epochs = 0;
  double cache_hits = 0;
  double cache_misses = 0;
  double rf_hits = 0;
  double rf_misses = 0;
  double replan_evals = 0;
  double grant_changes = 0;
  double retries_aborts = 0;
  // Checkpoint I/O, measured on untraced ops (a traced run's checkpoint
  // also carries the trace snapshot). Per-check sums plus the count.
  double ckpt_bytes = 0;  // size of the last checkpoint written
  double ckpt_checks = 0;
  double ckpt_read_ms = 0;
  double ckpt_serialize_ms = 0;

  double gen_ms = 0;  // input generation of one set-up
  double trace_dropped = 0;
};

// Adds the counters of every sink of `tracer` to `totals`.
void scan_trace(const obs::Tracer& tracer, LayerTotals& totals);

// A tracer at flows level with rings large enough that nothing drops.
std::unique_ptr<obs::Tracer> make_flow_tracer();

// Delegates every call to the wrapped placement, counting and timing
// place_chunk.
class TimedPlacement : public BlockPlacementPolicy {
 public:
  TimedPlacement(std::unique_ptr<BlockPlacementPolicy> inner,
                 LayerTotals* totals);
  std::vector<int> place_chunk(const Dfs& dfs, int replicas,
                               Rng& rng) override;

 private:
  std::unique_ptr<BlockPlacementPolicy> inner_;
  LayerTotals* totals_;
};

// Delegates every SchedulingPolicy method (name() included) to `inner`,
// counting and timing each call, and wraps the placements it returns in
// TimedPlacement. Behaviour is the inner policy's, bit for bit.
class TimedPolicy : public SchedulingPolicy {
 public:
  TimedPolicy(SchedulingPolicy& inner, LayerTotals* totals);

  std::string_view name() const override;
  std::unique_ptr<BlockPlacementPolicy> input_placement(
      const JobSpec& job) override;
  std::vector<int> allowed_racks(
      const JobSpec& job, const Dfs& dfs,
      const std::vector<const FileLayout*>& input_files, Rng& rng) override;
  double priority(const JobSpec& job) const override;
  void on_rack_degraded(int rack, const ClusterTopology& topology,
                        Seconds now) override;
  void on_rack_recovered(int rack, const ClusterTopology& topology,
                         Seconds now) override;

 private:
  SchedulingPolicy& inner_;
  LayerTotals* totals_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// The per-layer metrics, per op of the traced pass. `trace_overhead` is
// traced op p50 / untraced op p50.
std::vector<Metric> per_layer_metrics(const LayerTotals& totals,
                                      double trace_overhead);

}  // namespace corral::perfbench

#endif  // CORRAL_PERFBENCH_LAYERS_H_
