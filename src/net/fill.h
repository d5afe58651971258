// Shared rate-fill machinery behind the RateAllocator policies.
//
// Progressive filling (max-min, and the work-conserving backfill) and the
// Varys Γ/MADD loops, shared with the coflow-scheduler suite (src/coflow):
// same scratch, same fill loop, same MADD semantics. Every pass reads
// width, remaining and path from the caller's Flow records and writes
// Flow::rate in place; the records are the only copy of flow state.
// Everything in net_detail is an implementation detail of the allocators:
// tools and the simulator program against RateAllocator.
#ifndef CORRAL_NET_FILL_H_
#define CORRAL_NET_FILL_H_

#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "net/allocator.h"
#include "net/links.h"

namespace corral::net_detail {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kTinyBytes = 1e-6;

// A contiguous run of flows sharing one coflow key (indices into
// FillScratch::group_flows).
struct GroupRef {
  long key = 0;
  int begin = 0;
  int count = 0;
  double gamma = 0;
};

// Scratch space for rate recomputation, reusable across calls so the steady
// state allocates nothing (the allocator runs once per simulation event
// batch). It holds per-link fill state, the link-to-flow CSR, the fill's
// frozen marks and the coflow groups; flow state itself is read from the
// Flow records.
//
// Concurrency contract (exec:: pool workers run whole simulations, so one
// OS thread serves many simulations over its lifetime and several threads
// allocate at once): the scratch is thread_local, and every pass leaves no
// observable state — frozen is reassigned per fill; width_on_link / load /
// touched are reassigned or reset via the touched list each pass. The
// per-link CSR (link_start/link_end/link_flows) is rebuilt for exactly the
// links in active_links, and entries behind a zero width_on_link are never
// read. Results therefore cannot depend on which worker ran the previous
// simulation (regression test: AllocatorConcurrency in net_test).
struct FillScratch {
  // Per-link fill state. width_on_link[link] == 0.0 marks "untouched this
  // pass"; active_links lists touched links in first-touch order (the
  // bottleneck scan iterates it, so this order is part of the deterministic
  // contract).
  std::vector<double> width_on_link;
  std::vector<int> active_links;
  std::vector<int> link_start;  // CSR: flows crossing each active link
  std::vector<int> link_end;
  std::vector<int> link_flows;
  std::vector<char> frozen;

  // Link capacities remaining; consumed in place by MADD and the fill.
  std::vector<double> residual;

  // Coflow state: per-link load with deduplicated lazy-clear markers, and
  // the sort-based coflow grouping (replaces a per-call unordered_map).
  std::vector<double> load;
  std::vector<char> touched_mark;
  std::vector<int> touched;
  std::vector<std::pair<long, int>> group_flows;  // (coflow key, flow id)
  std::vector<GroupRef> groups;
};

// Opens every allocation: checks that each flow crosses at least one link,
// then zeroes every Flow::rate. The check runs over the whole set before
// any rate is written, so a rejected set keeps its previous rates. MADD
// and the fill rely on the zeros: starved and drained coflow groups get no
// MADD rate, and the fill adds its shares on top of what is there.
void reset_rates(std::vector<Flow>& flows);

// Progressive filling over the flows: repeatedly saturate the most
// constrained link and freeze the flows that cross it at the
// width-weighted fair share, added on top of whatever is already in
// Flow::rate (zero after reset_rates; the MADD rates for coflow backfill).
// Consumes scratch.residual in place, clamping at subtraction time so a
// frozen round can never drive a residual negative (the share computation
// re-clamps defensively, keeping the result identical either way).
// Returns the number of filling rounds (bottleneck links saturated).
int progressive_fill(FillScratch& scratch, std::vector<Flow>& flows,
                     std::size_t num_links);

// Groups the flows into coflows (flows without a coflow are singletons
// keyed -(flow)-1) and computes each group's effective bottleneck Γ at full
// link capacity. Fills scratch.group_flows (sorted by key, flow ids
// ascending within a run) and scratch.groups in ascending-key order.
void build_coflow_groups(FillScratch& scratch, const std::vector<Flow>& flows,
                         const LinkSet& links);

// MADD: give each coflow, in the *current* scratch.groups order, just
// enough rate on the residual capacities to finish all its flows together,
// written to Flow::rate. Resets scratch.residual to the full link
// capacities first. A group that is starved (a saturated link) or carries
// no bytes at all (gamma == 0 — e.g. every flow already finished but has
// not been retired yet) gets no MADD rate; the caller's work-conserving
// backfill still serves its flows. The gamma guard also keeps the division
// safe.
void madd_in_group_order(FillScratch& scratch, std::vector<Flow>& flows,
                         const LinkSet& links);

// One scratch per OS thread: concurrent allocations (simulation batches on
// the exec:: pool) never share buffers, and a pool worker reuses its slot
// across simulations without reallocation. allocate() is not re-entrant on
// one thread (nothing in progressive_fill calls back out), so a single slot
// per thread suffices.
FillScratch& thread_scratch();

}  // namespace corral::net_detail

#endif  // CORRAL_NET_FILL_H_
