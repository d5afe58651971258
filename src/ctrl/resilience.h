// Guardrail policy for the control loop (docs/control_plane.md "Failure
// modes and guardrails").
//
// The paper's planning premise only pays off if the control plane survives
// its own faults: a predictor emitting garbage, a planner blowing its
// deadline, a plan store losing or corrupting entries. This module holds
// the knobs (ResilienceConfig) and the error-budget state machine
// (ErrorBudget) that each TenantLoop consults every epoch:
//
//  * input validation — forecasts that are non-finite, non-positive or
//    more than outlier_factor away from the last anchored size are
//    quarantined (the planner sees the last-good size instead);
//  * planner time budget — a replan whose provisioning search exceeds
//    planner_budget_evals candidate evaluations (the deterministic replan
//    cost proxy) "misses its deadline" and the loop falls back to the last
//    good plan instead of publishing late;
//  * bounded retry — an epoch execution that aborts is retried up to
//    max_retries times with a doubling virtual-time backoff;
//  * error budget — demote to the reactive baseline (YarnCapacityPolicy,
//    no planning) after demote_after consecutive epochs over the drift
//    threshold, and re-promote after promote_after clean epochs.
//
// Everything is deterministic: the budget consumes per-epoch booleans, not
// wall time, so resumed runs replay the same transitions.
#ifndef CORRAL_CTRL_RESILIENCE_H_
#define CORRAL_CTRL_RESILIENCE_H_

#include <cstddef>
#include <string_view>

#include "cluster/topology.h"

namespace corral {

// Which policy the loop is driving the cluster with.
enum class ControlMode : int {
  kPlanned = 0,   // Corral plans published to the simulator
  kReactive = 1,  // demoted: reactive YarnCapacityPolicy baseline
};

std::string_view to_string(ControlMode mode);

struct ResilienceConfig {
  // Master switch. Off reproduces the pre-guardrail loop: chaos faults land
  // unmitigated (non-finite forecasts, overruns and exec failures abort
  // the epoch; spikes are planned at face value).
  bool enabled = false;

  // Planner deadline, in provisioning-candidate evaluations (the replan
  // cost measure — wall time would break determinism). 0 = unlimited.
  std::size_t planner_budget_evals = 0;

  // Execution retry budget per epoch and the virtual-time backoff before
  // the first retry (doubles each further attempt).
  int max_retries = 2;
  Seconds retry_backoff = 60.0;

  // Forecast quarantine band: a predicted input farther than this factor
  // from the last anchored planning size (in either direction) is rejected.
  // Must exceed 1 + the loop's size_quantum or every ordinary re-anchor
  // would quarantine.
  double outlier_factor = 8.0;

  // Error budget: demote to ControlMode::kReactive after `demote_after`
  // consecutive epochs over the drift threshold (0 disables demotion);
  // re-promote after `promote_after` consecutive clean epochs.
  int demote_after = 0;
  int promote_after = 3;

  // Throws std::invalid_argument on out-of-range fields.
  void validate() const;
};

// Consecutive-failure budget driving the kPlanned <-> kReactive transitions.
// Aborted epochs and epochs whose mean prediction error exceeds the drift
// threshold burn budget; clean epochs restore it.
class ErrorBudget {
 public:
  ErrorBudget() = default;
  ErrorBudget(int demote_after, int promote_after);

  // Feeds one epoch's outcome; returns true when the mode changed.
  bool record(bool over_threshold);

  ControlMode mode() const { return mode_; }
  int consecutive_bad() const { return bad_; }
  int consecutive_good() const { return good_; }
  int demotions() const { return demotions_; }
  int promotions() const { return promotions_; }

  // Checkpoint restore: reinstates a recorded machine state verbatim.
  void restore(ControlMode mode, int bad, int good, int demotions,
               int promotions);

 private:
  int demote_after_ = 0;
  int promote_after_ = 3;
  ControlMode mode_ = ControlMode::kPlanned;
  int bad_ = 0;        // consecutive over-threshold epochs while planned
  int good_ = 0;       // consecutive clean epochs while reactive
  int demotions_ = 0;
  int promotions_ = 0;
};

}  // namespace corral

#endif  // CORRAL_CTRL_RESILIENCE_H_
