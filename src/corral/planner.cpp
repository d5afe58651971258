#include "corral/planner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>

#include "exec/exec.h"
#include "obs/trace.h"
#include "util/check.h"

namespace corral {
namespace {

// Reusable buffers for one prioritization pass, so the provisioning loop's
// J*R evaluations do not allocate.
struct Scratch {
  std::vector<int> order;        // job indices in scheduling order
  std::vector<Seconds> key;      // L_j(r_j) per job, precomputed for sorting
  std::vector<Seconds> finish;   // F_i per rack
  std::vector<int> rack_order;   // rack indices sorted by F_i
  // Constrained-pass state (corral/placement.h), rebuilt per pass:
  std::vector<int> allowed;       // racks still open to the current job
  std::vector<int> set_ids;       // sorted distinct anti-affinity set ids
  std::vector<char> set_rack;     // [set][rack]: used by a member of the set
  std::vector<char> rack_used;    // assigned to any job so far
  std::vector<char> exclusive_rack;  // claimed by a rack-exclusive job
  // Provisioning cursor state (ChainCursor), kept across its candidates:
  std::vector<int> racks;              // r_j of the current candidate
  std::vector<Seconds> sorted_finish;  // F values ascending (evaluation pass)
  std::vector<Seconds> snapshots;      // pass state every kSnapshotStride jobs
};

// Timestamp source for planner trace events: logical step indices by
// default (deterministic at any pool width), real elapsed seconds when the
// tracer opted into wall clock (TracerOptions::wall_clock, profiling only).
class PlanClock {
 public:
  explicit PlanClock(bool wall)
      : wall_(wall), start_(std::chrono::steady_clock::now()) {}

  double at(double step) const {
    if (!wall_) return step;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  bool wall_;
  std::chrono::steady_clock::time_point start_;
};

std::string rack_list_string(const std::vector<int>& racks) {
  std::string out;
  for (std::size_t i = 0; i < racks.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(racks[i]);
  }
  return out;
}

// Figure 4's priority order: widest job first (avoids "holes" in the
// schedule), ties by longest L_j(r_j) (LPT), then by job index; the online
// objective orders by arrival before all of these. A strict total order, so
// std::sort and a binary-search insertion agree on one permutation.
class PriorityLess {
 public:
  PriorityLess(std::span<const ResponseFunction> jobs,
               std::span<const int> racks, std::span<const Seconds> key,
               const PlannerConfig& config)
      : jobs_(jobs),
        racks_(racks),
        key_(key),
        online_(config.objective != Objective::kMakespan),
        widest_job_first_(config.widest_job_first) {}

  bool operator()(int a, int b) const {
    const auto sa = static_cast<std::size_t>(a);
    const auto sb = static_cast<std::size_t>(b);
    if (online_) {
      const Seconds aa = jobs_[sa].arrival();
      const Seconds ab = jobs_[sb].arrival();
      if (aa != ab) return aa < ab;
    }
    if (widest_job_first_ && racks_[sa] != racks_[sb]) {
      return racks_[sa] > racks_[sb];
    }
    if (key_[sa] != key_[sb]) return key_[sa] > key_[sb];
    return a < b;
  }

 private:
  std::span<const ResponseFunction> jobs_;
  std::span<const int> racks_;
  std::span<const Seconds> key_;
  bool online_;
  bool widest_job_first_;
};

// Fills scratch.key with L_j(r_j) and scratch.order with every job in
// priority order. The keys are precomputed once per job: the comparator
// would otherwise walk ResponseFunction::at's piecewise table O(J log J)
// times.
void sort_by_priority(std::span<const ResponseFunction> jobs,
                      std::span<const int> racks_per_job,
                      const PlannerConfig& config, Scratch& scratch) {
  const std::size_t J = jobs.size();
  scratch.order.resize(J);
  std::iota(scratch.order.begin(), scratch.order.end(), 0);
  scratch.key.resize(J);
  for (std::size_t s = 0; s < J; ++s) {
    scratch.key[s] = jobs[s].at(racks_per_job[s]);
  }
  std::sort(scratch.order.begin(), scratch.order.end(),
            PriorityLess(jobs, racks_per_job, scratch.key, config));
}

// Figure 4: schedules the jobs of scratch.order (with L_j(r_j) in
// scratch.key, see sort_by_priority) onto racks, filling `plan` rack sets,
// start times and priorities. `initial_finish` (when non-null) seeds the
// per-rack availability F_i, which lets rolling-horizon planning chain
// windows. Returns {makespan, avg completion}; `final_finish` (when
// non-null) receives the resulting F_i.
//
// When config.placements carries a real constraint, every job's rack pick
// is filtered first: ineligible racks (resource classes), racks already
// held by the job's anti-affinity set, racks claimed by a rack-exclusive
// job, and — for exclusive jobs — racks any other job touched. A pass that
// cannot seat a job returns infinity in evaluation mode (`plan` null, so
// the provisioning search rejects the candidate) and throws a
// deterministic error in plan-building mode. Cross-job state (set
// membership, exclusivity) binds per pass — for plan_rolling that means
// per window.
std::pair<Seconds, Seconds> pack_jobs(
    std::span<const ResponseFunction> jobs, std::span<const int> racks_per_job,
    int num_racks, const PlannerConfig& config, Scratch& scratch, Plan* plan,
    const std::vector<Seconds>* initial_finish = nullptr,
    std::vector<Seconds>* final_finish = nullptr, int priority_base = 0,
    const obs::TraceRecorder* trace = nullptr,
    const PlanClock* clock = nullptr) {
  const std::size_t J = jobs.size();
  const std::vector<JobPlacement>* placements = config.placements;
  const bool constrained =
      placements != nullptr && any_constrained(*placements);

  if (initial_finish != nullptr) {
    require(initial_finish->size() == static_cast<std::size_t>(num_racks),
            "pack_jobs: initial finish size mismatch");
    scratch.finish = *initial_finish;
  } else {
    scratch.finish.assign(static_cast<std::size_t>(num_racks), 0.0);
  }
  scratch.rack_order.resize(static_cast<std::size_t>(num_racks));

  // Cross-job constraint state for this pass. Anti-affinity set ids are
  // arbitrary ints; map them onto dense indices of one flattened mask.
  if (constrained) {
    scratch.set_ids.clear();
    for (const JobPlacement& p : *placements) {
      if (p.anti_affinity >= 0) scratch.set_ids.push_back(p.anti_affinity);
    }
    std::sort(scratch.set_ids.begin(), scratch.set_ids.end());
    scratch.set_ids.erase(
        std::unique(scratch.set_ids.begin(), scratch.set_ids.end()),
        scratch.set_ids.end());
    scratch.set_rack.assign(
        scratch.set_ids.size() * static_cast<std::size_t>(num_racks), 0);
    scratch.rack_used.assign(static_cast<std::size_t>(num_racks), 0);
    scratch.exclusive_rack.assign(static_cast<std::size_t>(num_racks), 0);
  }

  const auto rack_less = [&](int a, int b) {
    const Seconds fa = scratch.finish[static_cast<std::size_t>(a)];
    const Seconds fb = scratch.finish[static_cast<std::size_t>(b)];
    if (fa != fb) return fa < fb;
    return a < b;
  };

  Seconds makespan = 0;
  Seconds total_flow = 0;
  int priority = priority_base;
  for (int j : scratch.order) {
    const auto sj = static_cast<std::size_t>(j);
    const int rj = racks_per_job[sj];
    const Seconds latency = scratch.key[sj];

    // Pick the r_j racks that free up earliest (among the racks the job's
    // placement constraints leave open, in a constrained pass).
    const JobPlacement* pl = constrained ? &(*placements)[sj] : nullptr;
    int set_index = -1;
    if (pl != nullptr && pl->anti_affinity >= 0) {
      set_index = static_cast<int>(
          std::lower_bound(scratch.set_ids.begin(), scratch.set_ids.end(),
                           pl->anti_affinity) -
          scratch.set_ids.begin());
    }
    if (constrained) {
      scratch.allowed.clear();
      for (int r = 0; r < num_racks; ++r) {
        const auto sr = static_cast<std::size_t>(r);
        if (!pl->eligible[sr]) continue;
        if (scratch.exclusive_rack[sr]) continue;
        if (pl->rack_exclusive && scratch.rack_used[sr]) continue;
        if (set_index >= 0 &&
            scratch.set_rack[static_cast<std::size_t>(set_index) *
                                 static_cast<std::size_t>(num_racks) +
                             sr]) {
          continue;
        }
        scratch.allowed.push_back(r);
      }
      if (static_cast<int>(scratch.allowed.size()) < rj) {
        // Evaluation mode: the provisioning search treats an unseatable
        // candidate as infinitely bad. Plan-building mode: the request is
        // genuinely infeasible — fail with the offending job.
        if (plan == nullptr) {
          const Seconds inf = std::numeric_limits<Seconds>::infinity();
          return {inf, inf};
        }
        require(false, "placement: job " + std::to_string(j) + " needs " +
                           std::to_string(rj) + " racks but only " +
                           std::to_string(scratch.allowed.size()) +
                           " remain eligible after placement filters");
      }
      std::partial_sort(scratch.allowed.begin(), scratch.allowed.begin() + rj,
                        scratch.allowed.end(), rack_less);
      std::copy(scratch.allowed.begin(), scratch.allowed.begin() + rj,
                scratch.rack_order.begin());
    } else {
      std::iota(scratch.rack_order.begin(), scratch.rack_order.end(), 0);
      std::partial_sort(scratch.rack_order.begin(),
                        scratch.rack_order.begin() + rj,
                        scratch.rack_order.end(), rack_less);
    }

    Seconds start = jobs[sj].arrival();
    for (int i = 0; i < rj; ++i) {
      start = std::max(
          start,
          scratch.finish[static_cast<std::size_t>(scratch.rack_order[
              static_cast<std::size_t>(i)])]);
    }
    const Seconds completion = start + latency;
    for (int i = 0; i < rj; ++i) {
      scratch.finish[static_cast<std::size_t>(
          scratch.rack_order[static_cast<std::size_t>(i)])] = completion;
    }
    if (constrained) {
      for (int i = 0; i < rj; ++i) {
        const auto sr = static_cast<std::size_t>(
            scratch.rack_order[static_cast<std::size_t>(i)]);
        scratch.rack_used[sr] = 1;
        if (pl->rack_exclusive) scratch.exclusive_rack[sr] = 1;
        if (set_index >= 0) {
          scratch.set_rack[static_cast<std::size_t>(set_index) *
                               static_cast<std::size_t>(num_racks) +
                           sr] = 1;
        }
      }
    }
    makespan = std::max(makespan, completion);
    total_flow += completion - jobs[sj].arrival();

    if (plan != nullptr) {
      PlannedJob& planned = plan->jobs[sj];
      planned.job_index = j;
      planned.num_racks = rj;
      planned.racks.assign(scratch.rack_order.begin(),
                           scratch.rack_order.begin() + rj);
      std::sort(planned.racks.begin(), planned.racks.end());
      planned.start_time = start;
      planned.predicted_latency = latency;
      planned.priority = priority;
      // The "why did job j get racks R_j" decision log: one event per
      // scheduling decision, in priority order, from the calling thread.
      if (trace != nullptr && trace->at(obs::TraceLevel::kJobs)) {
        std::vector<obs::TraceArg> args = {
            obs::arg("job", static_cast<double>(j)),
            obs::arg("num_racks", static_cast<double>(rj)),
            obs::arg("racks", rack_list_string(planned.racks)),
            obs::arg("start_s", start),
            obs::arg("latency_s", latency),
            obs::arg("priority", static_cast<double>(priority))};
        // Constrained jobs log why the pick was narrowed; unconstrained
        // assign events stay byte-identical to the pre-placement format.
        if (pl != nullptr && pl->constrained) {
          args.push_back(obs::arg("eligible_racks",
                                  static_cast<double>(pl->eligible_count)));
          args.push_back(obs::arg("anti_affinity",
                                  static_cast<double>(pl->anti_affinity)));
          args.push_back(
              obs::arg("exclusive", pl->rack_exclusive ? 1.0 : 0.0));
        }
        trace->instant(
            obs::TraceTrack::kPlanner, "assign", "planner", j,
            clock != nullptr ? clock->at(static_cast<double>(priority))
                             : static_cast<double>(priority),
            std::move(args));
      }
    }
    ++priority;
  }
  if (final_finish != nullptr) *final_finish = scratch.finish;
  const Seconds avg_flow = J == 0 ? 0.0 : total_flow / static_cast<double>(J);
  return {makespan, avg_flow};
}

void validate_inputs(std::span<const ResponseFunction> jobs, int num_racks,
                     const PlannerConfig& config) {
  require(num_racks >= 1, "plan: num_racks must be >= 1");
  for (const ResponseFunction& f : jobs) {
    require(f.max_racks() >= num_racks,
            "plan: response function does not cover the cluster's racks");
  }
  if (config.placements != nullptr) {
    require(config.placements->size() == jobs.size(),
            "plan: placements must cover every job");
    for (const JobPlacement& p : *config.placements) {
      require(p.eligible.size() == static_cast<std::size_t>(num_racks),
              "plan: placement eligibility does not cover the racks");
    }
  }
}

// Per-worker scratch slots for one provisioning search: slot w belongs to
// pool worker w exclusively (the exec:: scratch-ownership rule), so the
// candidate evaluations never share mutable state.
using ScratchSlots = std::vector<Scratch>;

// The widen-longest chain of the provisioning phase (§4.2): which job is
// widened at each step. The choice depends only on the racks vector — never
// on the evaluation results — so the whole candidate sequence is known
// before any prioritization pass runs, and the J*R evaluations are
// embarrassingly parallel.
std::vector<int> widening_chain(std::span<const ResponseFunction> jobs,
                                int num_racks, const PlannerConfig& config) {
  const std::size_t J = jobs.size();
  std::vector<int> racks(J, 1);
  std::vector<int> chain;
  chain.reserve(J * static_cast<std::size_t>(num_racks));
  // Cache L_j(r_j): each widening step changes exactly one job's latency,
  // so the argmax scan below need not re-walk every response function.
  std::vector<Seconds> latency(J);
  for (std::size_t j = 0; j < J; ++j) latency[j] = jobs[j].at(racks[j]);
  // A job can never grow past the racks its placement leaves eligible —
  // widening beyond that only produces candidates the prioritization pass
  // would reject anyway.
  std::vector<int> width_cap(J, num_racks);
  if (config.placements != nullptr) {
    for (std::size_t j = 0; j < J; ++j) {
      width_cap[j] =
          std::min(num_racks, (*config.placements)[j].eligible_count);
    }
  }
  // Total allocated racks among widened jobs, for the [19]-style stop rule.
  long widened_total = 0;
  while (true) {
    // Find the longest job that can still be widened.
    int longest = -1;
    Seconds longest_latency = -1;
    for (std::size_t j = 0; j < J; ++j) {
      if (racks[j] >= width_cap[j]) continue;
      if (latency[j] > longest_latency) {
        longest_latency = latency[j];
        longest = static_cast<int>(j);
      }
    }
    if (longest < 0) break;  // every job reached r_j = R

    const auto sj = static_cast<std::size_t>(longest);
    if (racks[sj] == 1) widened_total += 2;  // 1 -> 2 racks
    else ++widened_total;
    ++racks[sj];
    latency[sj] = jobs[sj].at(racks[sj]);
    chain.push_back(longest);

    if (!config.explore_full_range && widened_total >= num_racks) break;
  }
  return chain;
}

// Jobs between two snapshots of the evaluation pass. A candidate's pass
// resumes from the last snapshot at or before the first priority position
// its widening changed, so a larger stride replays more jobs per candidate
// and a smaller one copies more snapshots per pass.
constexpr std::size_t kSnapshotStride = 8;

// Chain segments per pool worker when the pool has more than one. A step's
// cost depends on how far forward its widening moves the job, which varies
// along the chain, so equal segments finish unevenly; smaller ones let the
// pool's dynamic hand-out even the load, each at the price of one full
// sort and pass.
constexpr std::size_t kSegmentsPerWorker = 4;

// Walks a run of consecutive provisioning candidates. Each candidate widens
// one job of the previous one by a rack, so instead of rebuilding every key
// and re-sorting all J jobs, widen() updates that job's key and rotates it
// to its binary-searched place in the priority order (PriorityLess is a
// strict total order, so this is exactly the std::sort permutation). evaluate()
// then restarts the multiset pass below from a snapshot: the positions
// before the first one the widening moved hold the same jobs with the same
// widths and keys, so the pass state there, and every later step, match a
// from-scratch pass bit for bit. A constrained batch keeps its full
// rack-id pass (pack_jobs), run over the incrementally kept order.
class ChainCursor {
 public:
  ChainCursor(std::span<const ResponseFunction> jobs, int num_racks,
              const PlannerConfig& config,
              const std::vector<Seconds>* initial_finish, Scratch& scratch)
      : jobs_(jobs),
        num_racks_(num_racks),
        config_(config),
        initial_finish_(initial_finish),
        constrained_(config.placements != nullptr &&
                     any_constrained(*config.placements)),
        scratch_(scratch) {}

  // Positions the cursor at the all-ones allocation widened by
  // chain[0..step), with one full sort.
  void seek(std::span<const int> chain, std::size_t step) {
    Scratch& s = scratch_;
    s.racks.assign(jobs_.size(), 1);
    for (std::size_t i = 0; i < step; ++i) {
      ++s.racks[static_cast<std::size_t>(chain[i])];
    }
    sort_by_priority(jobs_, s.racks, config_, s);
    if (!constrained_) {
      // Snapshot 0: the initial F multiset, then makespan and flow of 0.
      const auto R = static_cast<std::size_t>(num_racks_);
      const std::size_t snapshots =
          (jobs_.size() + kSnapshotStride - 1) / kSnapshotStride + 1;
      s.snapshots.resize(snapshots * (R + 2));
      if (initial_finish_ != nullptr) {
        std::copy(initial_finish_->begin(), initial_finish_->end(),
                  s.snapshots.begin());
        std::sort(s.snapshots.begin(), s.snapshots.begin() + R);
      } else {
        std::fill(s.snapshots.begin(), s.snapshots.begin() + R, 0.0);
      }
      s.snapshots[R] = 0;
      s.snapshots[R + 1] = 0;
    }
    dirty_ = 0;
  }

  // Widens job j by one rack.
  void widen(int j) {
    Scratch& s = scratch_;
    auto& order = s.order;
    const PriorityLess less(jobs_, s.racks, s.key, config_);
    // Under the old key the order is sorted and j is in it, so j is its own
    // lower bound.
    const auto old_pos = std::lower_bound(order.begin(), order.end(), j, less);
    const auto sj = static_cast<std::size_t>(j);
    ++s.racks[sj];
    s.key[sj] = jobs_[sj].at(s.racks[sj]);
    // The other jobs stay sorted; re-insert j among them.
    const auto first_moved = std::lower_bound(order.begin(), old_pos, j, less);
    if (first_moved != old_pos) {
      std::rotate(first_moved, old_pos, old_pos + 1);
    } else {
      const auto insert =
          std::lower_bound(old_pos + 1, order.end(), j, less);
      std::rotate(old_pos, old_pos + 1, insert);
    }
    dirty_ = std::min(
        dirty_, static_cast<std::size_t>(first_moved - order.begin()));
  }

  // The objective of the current candidate.
  Seconds evaluate() {
    const auto [makespan, avg_flow] =
        constrained_ ? pack_jobs(jobs_, scratch_.racks, num_racks_, config_,
                                 scratch_, nullptr, initial_finish_)
                     : resume_pass();
    dirty_ = jobs_.size();
    return config_.objective == Objective::kMakespan ? makespan : avg_flow;
  }

 private:
  // Evaluation-only pass. The objective depends on the *multiset* of
  // per-rack finish times, never on which physical rack holds which value,
  // so the finish values live in one sorted array instead of a rack-id
  // partial sort per job: the r_j racks that free up earliest are the first
  // r_j entries, start = max(arrival, sorted[r_j - 1]), and the update
  // shifts the survivors down and writes r_j copies of the completion at
  // their sorted position. Value-identical to pack_jobs (max over the same
  // operand set, same add per job, same job order), just O(log R + shift).
  // Snapshot k holds the sorted array, makespan and flow sum before order
  // position k * kSnapshotStride.
  std::pair<Seconds, Seconds> resume_pass() {
    Scratch& s = scratch_;
    const std::size_t J = jobs_.size();
    const auto R = static_cast<std::size_t>(num_racks_);
    const std::size_t start = dirty_ / kSnapshotStride * kSnapshotStride;
    auto& sorted = s.sorted_finish;
    const auto restore =
        s.snapshots.begin() +
        static_cast<std::ptrdiff_t>(start / kSnapshotStride * (R + 2));
    sorted.assign(restore, restore + static_cast<std::ptrdiff_t>(R));
    Seconds makespan = restore[static_cast<std::ptrdiff_t>(R)];
    Seconds total_flow = restore[static_cast<std::ptrdiff_t>(R + 1)];
    for (std::size_t p = start; p < J; ++p) {
      if (p % kSnapshotStride == 0 && p != start) {
        const auto save =
            s.snapshots.begin() +
            static_cast<std::ptrdiff_t>(p / kSnapshotStride * (R + 2));
        std::copy(sorted.begin(), sorted.end(), save);
        save[static_cast<std::ptrdiff_t>(R)] = makespan;
        save[static_cast<std::ptrdiff_t>(R + 1)] = total_flow;
      }
      const auto sj = static_cast<std::size_t>(s.order[p]);
      const int rj = s.racks[sj];
      const Seconds start_time = std::max(
          jobs_[sj].arrival(), sorted[static_cast<std::size_t>(rj) - 1]);
      const Seconds completion = start_time + s.key[sj];
      const auto pos =
          std::upper_bound(sorted.begin() + rj, sorted.end(), completion);
      std::move(sorted.begin() + rj, pos, sorted.begin());
      std::fill(pos - rj, pos, completion);
      makespan = std::max(makespan, completion);
      total_flow += completion - jobs_[sj].arrival();
    }
    const Seconds avg = J == 0 ? 0.0 : total_flow / static_cast<double>(J);
    return {makespan, avg};
  }

  std::span<const ResponseFunction> jobs_;
  int num_racks_;
  const PlannerConfig& config_;
  const std::vector<Seconds>* initial_finish_;
  bool constrained_;
  Scratch& scratch_;
  // First order position whose job or key changed since the last pass.
  std::size_t dirty_ = 0;
};

// The provisioning phase (§4.2) over one window of jobs: starts every job
// at one rack and repeatedly widens the currently-longest job, evaluating
// every candidate allocation with the prioritization phase against the
// given initial rack availability. The pool splits the chain into
// contiguous segments of steps (kSegmentsPerWorker per worker, one for a
// serial pool); each segment seeds a ChainCursor with one full sort and
// pass and walks its steps. The argmin is reduced in step order on the
// calling thread (first minimum wins), and every value equals a
// from-scratch pass, so the winner is byte-identical at any pool width.
// Returns the winning rack-count vector.
std::vector<int> provision(std::span<const ResponseFunction> jobs,
                           int num_racks, const PlannerConfig& config,
                           const std::vector<Seconds>* initial_finish,
                           exec::ThreadPool& pool, ScratchSlots& slots,
                           std::size_t* evaluated_candidates = nullptr) {
  const std::size_t J = jobs.size();
  if (initial_finish != nullptr) {
    require(initial_finish->size() == static_cast<std::size_t>(num_racks),
            "provision: initial finish size mismatch");
  }
  const obs::TraceRecorder trace(config.tracer, config.trace_sink, "planner");
  const PlanClock clock(trace.wall_clock());
  const double trace_start = clock.at(0.0);

  const std::vector<int> chain = widening_chain(jobs, num_racks, config);
  // Step 0 is the all-ones starting allocation; step s widens chain[s - 1].
  const std::size_t steps = chain.size() + 1;
  if (evaluated_candidates != nullptr) *evaluated_candidates += steps;

  std::vector<double> values(steps);
  const std::size_t workers = static_cast<std::size_t>(pool.threads());
  const std::size_t segments =
      std::min(steps, workers > 1 ? kSegmentsPerWorker * workers : 1);
  exec::parallel_for_workers(
      pool, segments, [&](int worker, std::size_t segment) {
        const std::size_t first = segment * steps / segments;
        const std::size_t last = (segment + 1) * steps / segments;
        ChainCursor cursor(jobs, num_racks, config, initial_finish,
                           slots[static_cast<std::size_t>(worker)]);
        cursor.seek(chain, first);
        values[first] = cursor.evaluate();
        for (std::size_t step = first + 1; step < last; ++step) {
          cursor.widen(chain[step - 1]);
          values[step] = cursor.evaluate();
        }
      });

  // Per-candidate log entries are recorded here — on the calling thread, in
  // step order — never from the workers, so the log is byte-identical at
  // any pool width.
  double best_value = values[0];
  std::size_t best_step = 0;
  if (trace.at(obs::TraceLevel::kTasks)) {
    trace.instant(obs::TraceTrack::kPlanner, "candidate", "planner", -1,
                  clock.at(0.0),
                  {obs::arg("step", 0.0), obs::arg("value", best_value)});
  }
  std::vector<int> racks(J, 1);
  for (std::size_t step = 1; step < steps; ++step) {
    const auto widened = static_cast<std::size_t>(chain[step - 1]);
    ++racks[widened];
    if (trace.at(obs::TraceLevel::kTasks)) {
      trace.instant(obs::TraceTrack::kPlanner, "candidate", "planner",
                    chain[step - 1], clock.at(static_cast<double>(step)),
                    {obs::arg("step", static_cast<double>(step)),
                     obs::arg("widened_job", static_cast<double>(widened)),
                     obs::arg("widened_to",
                              static_cast<double>(racks[widened])),
                     obs::arg("value", values[step])});
    }
    if (values[step] < best_value) {
      best_value = values[step];
      best_step = step;
    }
  }
  if (trace.at(obs::TraceLevel::kJobs)) {
    trace.span(
        obs::TraceTrack::kPlanner, "provision", "planner", 0, trace_start,
        clock.at(static_cast<double>(steps)),
        {obs::arg("jobs", static_cast<double>(J)),
         obs::arg("candidates", static_cast<double>(steps)),
         obs::arg("best_step", static_cast<double>(best_step)),
         obs::arg("best_value", best_value),
         obs::arg("objective", config.objective == Objective::kMakespan
                                   ? std::string("makespan")
                                   : std::string("avg_completion"))});
  }
  // The winner is the all-ones allocation widened by chain[0..best_step).
  std::vector<int> best_racks(J, 1);
  for (std::size_t step = 0; step < best_step; ++step) {
    ++best_racks[static_cast<std::size_t>(chain[step])];
  }
  return best_racks;
}

// Pool + scratch slots for one planning call: the configured pool (shared
// by default) and one Scratch per worker.
exec::ThreadPool& pool_of(const PlannerConfig& config) {
  return config.pool != nullptr ? *config.pool : exec::ThreadPool::shared();
}

}  // namespace

Plan prioritize(std::span<const ResponseFunction> jobs,
                std::span<const int> racks_per_job, int num_racks,
                const PlannerConfig& config) {
  validate_inputs(jobs, num_racks, config);
  require(racks_per_job.size() == jobs.size(),
          "prioritize: racks_per_job size mismatch");
  for (int r : racks_per_job) {
    require(r >= 1 && r <= num_racks, "prioritize: rack count out of range");
  }
  Plan plan;
  plan.jobs.resize(jobs.size());
  Scratch scratch;
  const obs::TraceRecorder trace(config.tracer, config.trace_sink, "planner");
  const PlanClock clock(trace.wall_clock());
  const double trace_start = clock.at(0.0);
  sort_by_priority(jobs, racks_per_job, config, scratch);
  const auto [makespan, avg_flow] =
      pack_jobs(jobs, racks_per_job, num_racks, config, scratch, &plan,
                nullptr, nullptr, 0, &trace, &clock);
  plan.predicted_makespan = makespan;
  plan.predicted_avg_completion = avg_flow;
  if (trace.at(obs::TraceLevel::kJobs)) {
    trace.span(obs::TraceTrack::kPlanner, "prioritize", "planner", 0,
               trace_start, clock.at(static_cast<double>(jobs.size())),
               {obs::arg("jobs", static_cast<double>(jobs.size())),
                obs::arg("predicted_makespan_s", makespan),
                obs::arg("predicted_avg_completion_s", avg_flow)});
  }
  return plan;
}

Plan plan_offline(std::span<const ResponseFunction> jobs, int num_racks,
                  const PlannerConfig& config) {
  validate_inputs(jobs, num_racks, config);
  if (jobs.empty()) return Plan{};
  exec::ThreadPool& pool = pool_of(config);
  ScratchSlots slots(static_cast<std::size_t>(pool.threads()));
  std::size_t evaluated = 0;
  const std::vector<int> best_racks =
      provision(jobs, num_racks, config, nullptr, pool, slots, &evaluated);
  Plan plan = prioritize(jobs, best_racks, num_racks, config);
  plan.evaluated_candidates = evaluated;
  return plan;
}

Plan plan_offline(std::span<const JobSpec> jobs, const ClusterConfig& cluster,
                  const PlannerConfig& config) {
  const LatencyModelParams params = LatencyModelParams::from_cluster(cluster);
  const std::vector<ResponseFunction> functions =
      build_response_functions(jobs, cluster.racks, params);
  if (config.placements == nullptr && any_constrained(jobs)) {
    const std::vector<JobPlacement> placements =
        resolve_placements(jobs, cluster);
    PlannerConfig resolved = config;
    resolved.placements = &placements;
    return plan_offline(functions, cluster.racks, resolved);
  }
  return plan_offline(functions, cluster.racks, config);
}

Plan plan_offline(std::span<const JobSpec> jobs, const ClusterConfig& cluster,
                  const PlannerConfig& config,
                  std::span<const int> usable_racks) {
  require(!usable_racks.empty(),
          "plan_offline: need at least one usable rack");
  std::vector<bool> seen(static_cast<std::size_t>(cluster.racks), false);
  for (int r : usable_racks) {
    require(r >= 0 && r < cluster.racks,
            "plan_offline: usable rack id out of range");
    require(!seen[static_cast<std::size_t>(r)],
            "plan_offline: duplicate usable rack id");
    seen[static_cast<std::size_t>(r)] = true;
  }
  // Plan on a virtual cluster of usable_racks.size() racks, then map the
  // virtual rack ids back onto the surviving physical racks. The latency
  // model's per-rack parameters are unchanged: a degraded cluster is a
  // smaller cluster of whole racks.
  const int virtual_racks = static_cast<int>(usable_racks.size());
  const LatencyModelParams params = LatencyModelParams::from_cluster(cluster);
  const std::vector<ResponseFunction> functions =
      build_response_functions(jobs, virtual_racks, params);
  // Placement constraints resolve against physical racks, then project onto
  // the planning view so eligibility follows a rack into its virtual id.
  std::vector<JobPlacement> view_placements;
  PlannerConfig view_config = config;
  if (config.placements != nullptr) {
    view_placements = remap_placements(*config.placements, jobs, usable_racks);
    view_config.placements = &view_placements;
  } else if (any_constrained(jobs)) {
    const std::vector<JobPlacement> physical =
        resolve_placements(jobs, cluster);
    view_placements = remap_placements(physical, jobs, usable_racks);
    view_config.placements = &view_placements;
  }
  Plan plan = plan_offline(functions, virtual_racks, view_config);
  for (PlannedJob& job : plan.jobs) {
    for (int& r : job.racks) r = usable_racks[static_cast<std::size_t>(r)];
  }
  return plan;
}

Plan plan_rolling(std::span<const ResponseFunction> jobs, int num_racks,
                  const PlannerConfig& config, Seconds period) {
  validate_inputs(jobs, num_racks, config);
  require(period > 0, "plan_rolling: period must be positive");
  Plan plan;
  plan.jobs.resize(jobs.size());
  if (jobs.empty()) return plan;

  // Group job indices by arrival window.
  Seconds last_arrival = 0;
  for (const ResponseFunction& job : jobs) {
    last_arrival = std::max(last_arrival, job.arrival());
  }
  const int windows = static_cast<int>(last_arrival / period) + 1;
  std::vector<std::vector<int>> window_jobs(
      static_cast<std::size_t>(windows));
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const auto w = static_cast<std::size_t>(jobs[j].arrival() / period);
    window_jobs[w].push_back(static_cast<int>(j));
  }

  exec::ThreadPool& pool = pool_of(config);
  ScratchSlots slots(static_cast<std::size_t>(pool.threads()));
  const obs::TraceRecorder trace(config.tracer, config.trace_sink, "planner");
  const PlanClock clock(trace.wall_clock());
  std::vector<Seconds> finish(static_cast<std::size_t>(num_racks), 0.0);
  Seconds makespan = 0;
  Seconds total_flow = 0;
  int priority_base = 0;
  for (std::size_t w = 0; w < window_jobs.size(); ++w) {
    const std::vector<int>& indices = window_jobs[w];
    if (indices.empty()) continue;
    std::vector<ResponseFunction> window;
    window.reserve(indices.size());
    for (int j : indices) window.push_back(jobs[static_cast<std::size_t>(j)]);

    // Placements are sliced to the window's jobs; anti-affinity and
    // exclusivity therefore bind within a window, matching the rolling
    // model's view that each window plans against fresh rack availability.
    PlannerConfig window_config = config;
    std::vector<JobPlacement> window_placements;
    if (config.placements != nullptr) {
      window_placements.reserve(indices.size());
      for (int j : indices) {
        window_placements.push_back(
            (*config.placements)[static_cast<std::size_t>(j)]);
      }
      window_config.placements = &window_placements;
    }

    const double window_start = clock.at(static_cast<double>(priority_base));
    const std::vector<int> racks =
        provision(window, num_racks, window_config, &finish, pool, slots,
                  &plan.evaluated_candidates);
    Plan window_plan;
    window_plan.jobs.resize(window.size());
    sort_by_priority(window, racks, window_config, slots[0]);
    const auto [window_makespan, window_avg] = pack_jobs(
        window, racks, num_racks, window_config, slots[0], &window_plan,
        &finish, &finish, priority_base, &trace, &clock);
    // Window-local assign events above use window-local job ids; the span's
    // "job_indices" arg maps them back to the planner's input order.
    if (trace.at(obs::TraceLevel::kJobs)) {
      trace.span(
          obs::TraceTrack::kPlanner, "window", "planner",
          static_cast<long>(w), window_start,
          clock.at(static_cast<double>(priority_base +
                                       static_cast<int>(window.size()))),
          {obs::arg("window", static_cast<double>(w)),
           obs::arg("window_start_s", static_cast<double>(w) * period),
           obs::arg("jobs", static_cast<double>(window.size())),
           obs::arg("job_indices", rack_list_string(indices)),
           obs::arg("window_makespan_s", window_makespan)});
    }
    makespan = std::max(makespan, window_makespan);
    total_flow += window_avg * static_cast<double>(window.size());
    priority_base += static_cast<int>(window.size());

    for (std::size_t i = 0; i < indices.size(); ++i) {
      PlannedJob planned = window_plan.jobs[i];
      planned.job_index = indices[i];
      plan.jobs[static_cast<std::size_t>(indices[i])] = std::move(planned);
    }
  }
  plan.predicted_makespan = makespan;
  plan.predicted_avg_completion =
      total_flow / static_cast<double>(jobs.size());
  return plan;
}

}  // namespace corral
