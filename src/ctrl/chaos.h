// Deterministic chaos injection for the control plane
// (docs/control_plane.md "Failure modes and guardrails").
//
// Corral's premise is that plans computed ahead of time must survive a
// messy runtime. PR 1 gave the *cluster* fault injection (§7: machine
// churn, rack outages, stragglers); this module injects faults into the
// *control plane itself* — the predictor, the planner, the plan cache and
// the loop process — so the guardrail policy in each TenantLoop can be
// exercised and measured (bench_chaos).
//
// Everything derives from (spec, seed): the full fault schedule is
// precomputed before the loop starts, so a run is reproducible from its
// flags, a resumed run re-derives the identical schedule, and reports stay
// byte-identical at any exec:: pool width.
#ifndef CORRAL_CTRL_CHAOS_H_
#define CORRAL_CTRL_CHAOS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace corral {

// The control-plane fault taxonomy. Kinds marked (predictor) pick a target
// pipeline; the rest act on the epoch as a whole.
enum class ChaosFault : int {
  kPredictorSpike = 0,   // (predictor) forecast multiplied by 25
  kPredictorNonFinite,   // (predictor) forecast becomes NaN / +-Inf
  kPlannerOverrun,       // planning-time budget exceeded this epoch
  kCacheCorrupt,         // cached plan bytes scribbled (checksum mismatch)
  kCacheLoss,            // every cached entry lost (cache store wiped)
  kStaleTopology,        // planner sees the previous epoch's rack view
  kExecFailure,          // epoch execution attempt aborts mid-run
  kCrash,                // whole-process crash after the epoch completes
};
constexpr int kChaosFaultKinds = 8;

std::string_view to_string(ChaosFault fault);
// Parses the spec token names: spike | nan | overrun | corrupt | loss |
// stale | exec | crash. Throws std::invalid_argument on anything else.
ChaosFault parse_chaos_fault(std::string_view text);

// One injected fault instance.
struct ChaosEvent {
  int epoch = 0;
  ChaosFault fault = ChaosFault::kPredictorSpike;
  // Predictor faults: the target pipeline. Stale topology: the rack index
  // spuriously dropped from the planner's view when no real topology edge
  // exists to be stale about. Unused otherwise.
  int target = 0;
  // Spike factor for kPredictorSpike, abort fraction (of the predicted
  // makespan) for kExecFailure.
  double magnitude = 0;
};

// What to inject. Built directly or parsed from a --chaos-spec string: a
// comma-separated list of `kind@epoch` (inject exactly there) and
// `kind=rate` (per-epoch Bernoulli probability, drawn from the chaos seed)
// tokens, e.g. "spike=0.2,nan@3,exec=0.15,crash@5".
struct ChaosSpec {
  std::vector<ChaosEvent> explicit_events;  // kind@epoch entries
  double rates[kChaosFaultKinds] = {0, 0, 0, 0, 0, 0, 0, 0};

  bool empty() const;
  // Mixed into the control-loop config fingerprint so a checkpoint cannot
  // be resumed under a different chaos regime.
  std::uint64_t fingerprint() const;
  void validate() const;  // rates in [0,1], epochs >= 0
};

ChaosSpec parse_chaos_spec(const std::string& text);

// The precomputed fault schedule: ChaosSpec x seed x (epochs, pipelines)
// expanded into a flat event list sorted by (epoch, fault, target). Crash
// events are kept separate — they end the run after their epoch rather
// than perturbing it, so a run that crashes and is resumed sees the same
// per-epoch events as one that never crashed.
class ChaosSchedule {
 public:
  ChaosSchedule() = default;  // empty: no chaos
  ChaosSchedule(const ChaosSpec& spec, int epochs, int pipelines,
                std::uint64_t seed);

  const std::vector<ChaosEvent>& events() const { return events_; }
  // Non-crash events injected into epoch `epoch`, in deterministic order.
  std::vector<ChaosEvent> for_epoch(int epoch) const;
  // True when the process crashes after completing `epoch`.
  bool crash_after(int epoch) const;
  bool empty() const { return events_.empty() && crash_epochs_.empty(); }

 private:
  std::vector<ChaosEvent> events_;  // sorted, crash excluded
  std::vector<int> crash_epochs_;
};

}  // namespace corral

#endif  // CORRAL_CTRL_CHAOS_H_
