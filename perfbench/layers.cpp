#include "layers.h"

#include <map>
#include <utility>

namespace corral::perfbench {
namespace {

bool ends_with(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) ==
             0;
}

}  // namespace

std::unique_ptr<obs::Tracer> make_flow_tracer() {
  obs::TracerOptions options;
  options.level = obs::TraceLevel::kFlows;
  options.sink_capacity = std::size_t{1} << 22;
  return std::make_unique<obs::Tracer>(options);
}

void scan_trace(const obs::Tracer& tracer, LayerTotals& totals) {
  totals.trace_dropped += static_cast<double>(tracer.total_dropped());
  for (const obs::TraceSink* sink : tracer.sinks()) {
    // Cumulative counters: the last sample of each sink is that run's total.
    double last_reorders = 0;
    std::map<std::string, double> last_refreshes;
    for (const obs::TraceEvent& event : sink->events()) {
      if (event.phase == obs::TracePhase::kSpan) {
        if (event.track == obs::TraceTrack::kTasks && event.cat == "task") {
          totals.task_spans += 1;
        } else if (event.track == obs::TraceTrack::kFlows) {
          totals.flows += 1;
        }
        continue;
      }
      if (event.phase != obs::TracePhase::kCounter ||
          event.track != obs::TraceTrack::kNet) {
        continue;
      }
      if (event.name == "maxmin.fill_rounds") {
        totals.recomputes += 1;
        totals.fill_rounds += event.value;
      } else if (event.name == "maxmin.active_flows") {
        totals.maxmin_samples += 1;
        totals.active_flows += event.value;
      } else if (event.name == "varys.reorders") {
        totals.recomputes += 1;
        last_reorders = event.value;
      } else if (ends_with(event.name, ".order_refreshes")) {
        totals.recomputes += 1;
        last_refreshes[event.name] = event.value;
      } else if (ends_with(event.name, ".live_coflows")) {
        totals.live_coflow_samples += 1;
        totals.live_coflows += event.value;
      }
    }
    totals.varys_reorders += last_reorders;
    for (const auto& [name, value] : last_refreshes) {
      totals.order_refreshes += value;
    }
  }
}

TimedPlacement::TimedPlacement(std::unique_ptr<BlockPlacementPolicy> inner,
                               LayerTotals* totals)
    : inner_(std::move(inner)), totals_(totals) {}

std::vector<int> TimedPlacement::place_chunk(const Dfs& dfs, int replicas,
                                             Rng& rng) {
  totals_->place_calls += 1;
  return timed(&totals_->place_ms,
               [&] { return inner_->place_chunk(dfs, replicas, rng); });
}

TimedPolicy::TimedPolicy(SchedulingPolicy& inner, LayerTotals* totals)
    : inner_(inner), totals_(totals) {}

std::string_view TimedPolicy::name() const {
  totals_->policy_calls += 1;
  return timed(&totals_->policy_ms, [&] { return inner_.name(); });
}

std::unique_ptr<BlockPlacementPolicy> TimedPolicy::input_placement(
    const JobSpec& job) {
  totals_->policy_calls += 1;
  std::unique_ptr<BlockPlacementPolicy> inner = timed(
      &totals_->policy_ms, [&] { return inner_.input_placement(job); });
  if (inner == nullptr) return inner;
  return std::make_unique<TimedPlacement>(std::move(inner), totals_);
}

std::vector<int> TimedPolicy::allowed_racks(
    const JobSpec& job, const Dfs& dfs,
    const std::vector<const FileLayout*>& input_files, Rng& rng) {
  totals_->policy_calls += 1;
  return timed(&totals_->policy_ms, [&] {
    return inner_.allowed_racks(job, dfs, input_files, rng);
  });
}

double TimedPolicy::priority(const JobSpec& job) const {
  totals_->policy_calls += 1;
  return timed(&totals_->policy_ms, [&] { return inner_.priority(job); });
}

void TimedPolicy::on_rack_degraded(int rack, const ClusterTopology& topology,
                                   Seconds now) {
  totals_->policy_calls += 1;
  timed(&totals_->policy_ms,
        [&] { inner_.on_rack_degraded(rack, topology, now); });
}

void TimedPolicy::on_rack_recovered(int rack,
                                    const ClusterTopology& topology,
                                    Seconds now) {
  totals_->policy_calls += 1;
  timed(&totals_->policy_ms,
        [&] { inner_.on_rack_recovered(rack, topology, now); });
}

std::vector<Metric> per_layer_metrics(const LayerTotals& t,
                                      double trace_overhead) {
  const double ops = t.ops > 0 ? t.ops : 1;
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  return {
      {"sim.run_ms", t.sim_run_ms / ops, "ms"},
      {"sim.us_per_task", ratio(1e3 * t.sim_run_ms, t.sim_tasks), "us"},
      {"sim.task_spans", t.task_spans / ops, "count"},
      {"sim.policy_calls", t.policy_calls / ops, "count"},
      {"sim.policy_ms", t.policy_ms / ops, "ms"},
      {"dfs.place_calls", t.place_calls / ops, "count"},
      {"dfs.place_ms", t.place_ms / ops, "ms"},
      {"net.recomputes", t.recomputes / ops, "count"},
      {"net.flows_per_recompute", ratio(t.active_flows, t.maxmin_samples),
       "count"},
      {"net.fill_rounds", t.fill_rounds / ops, "count"},
      {"net.us_per_recompute", ratio(1e3 * t.sim_run_ms, t.recomputes), "us"},
      {"net.flows", t.flows / ops, "count"},
      {"net.cross_rack_gb", t.cross_rack_bytes / 1e9 / ops, "GB"},
      {"net.varys_reorders", t.varys_reorders / ops, "count"},
      {"coflow.order_refreshes", t.order_refreshes / ops, "count"},
      {"coflow.live_coflows", ratio(t.live_coflows, t.live_coflow_samples),
       "count"},
      {"corral.plan_ms", t.plan_ms / ops, "ms"},
      {"corral.candidates", t.candidates / ops, "count"},
      {"corral.us_per_candidate", ratio(1e3 * t.plan_ms, t.candidates), "us"},
      {"corral.rf_build_ms", t.rf_build_ms / ops, "ms"},
      {"corral.prioritize_ms", t.prioritize_ms / ops, "ms"},
      {"plan.dagpack_ms", t.dagpack_ms / ops, "ms"},
      {"plan.lpround_ms", t.lpround_ms / ops, "ms"},
      {"lp.pivots", t.pivots / ops, "count"},
      {"lp.bound_ms", t.bound_ms / ops, "ms"},
      {"ctrl.service_ms", t.service_ms / ops, "ms"},
      {"ctrl.tenant_epochs", t.tenant_epochs / ops, "count"},
      {"ctrl.cache_hit_ratio",
       ratio(t.cache_hits, t.cache_hits + t.cache_misses), "ratio"},
      {"ctrl.rf_hit_ratio", ratio(t.rf_hits, t.rf_hits + t.rf_misses),
       "ratio"},
      {"ctrl.replan_evals", t.replan_evals / ops, "count"},
      {"ctrl.grant_changes", t.grant_changes / ops, "count"},
      {"ctrl.retries_aborts", t.retries_aborts / ops, "count"},
      {"ctrl.ckpt_bytes", t.ckpt_bytes, "bytes"},
      {"ctrl.ckpt_read_ms", ratio(t.ckpt_read_ms, t.ckpt_checks), "ms"},
      {"ctrl.ckpt_serialize_ms", ratio(t.ckpt_serialize_ms, t.ckpt_checks),
       "ms"},
      {"workload.gen_ms", t.gen_ms, "ms"},
      {"obs.trace_overhead_ratio", trace_overhead, "ratio"},
      {"obs.trace_dropped", t.trace_dropped, "count"},
  };
}

}  // namespace corral::perfbench
