#include "net/fill.h"

#include <algorithm>

#include "util/check.h"

namespace corral::net_detail {

void reset_rates(std::vector<Flow>& flows) {
  for (const Flow& flow : flows) {
    ensure(flow.path.count > 0, "allocator: flow with empty path");
  }
  for (Flow& flow : flows) flow.rate = 0.0;
}

int progressive_fill(FillScratch& scratch, std::vector<Flow>& flows,
                     std::size_t num_links) {
  const std::size_t num_flows = flows.size();
  ensure(scratch.residual.size() == num_links,
         "progressive_fill: residual/link count mismatch");
  scratch.width_on_link.assign(num_links, 0.0);
  scratch.active_links.clear();
  scratch.frozen.assign(num_flows, 0);
  if (scratch.link_start.size() < num_links) {
    scratch.link_start.resize(num_links);
    scratch.link_end.resize(num_links);
  }

  // Pass 1: per-link widths and flow counts (first touch registers the
  // link; counts accumulate in link_end until the prefix sum below).
  for (const Flow& flow : flows) {
    for (int i = 0; i < flow.path.count; ++i) {
      const auto link = static_cast<std::size_t>(flow.path.links[i]);
      if (scratch.width_on_link[link] == 0.0) {
        scratch.active_links.push_back(static_cast<int>(link));
        scratch.link_end[link] = 0;
      }
      scratch.width_on_link[link] += flow.width;
      ++scratch.link_end[link];
    }
  }
  // CSR offsets, then pass 2 fills flow ids in ascending-flow order (the
  // freeze loop's iteration order — part of the deterministic contract).
  int total = 0;
  for (int l : scratch.active_links) {
    const auto sl = static_cast<std::size_t>(l);
    scratch.link_start[sl] = total;
    total += scratch.link_end[sl];
    scratch.link_end[sl] = scratch.link_start[sl];
  }
  scratch.link_flows.resize(static_cast<std::size_t>(total));
  for (std::size_t f = 0; f < num_flows; ++f) {
    const FlowPath& path = flows[f].path;
    for (int i = 0; i < path.count; ++i) {
      const auto link = static_cast<std::size_t>(path.links[i]);
      scratch.link_flows[static_cast<std::size_t>(scratch.link_end[link]++)] =
          static_cast<int>(f);
    }
  }

  // Widths are subtracted as flows freeze; treat tiny residues as empty so
  // floating-point drift cannot leave a "loaded" link with no unfrozen
  // flows (which would stall the loop).
  constexpr double kWidthEps = 1e-9;
  std::size_t remaining_flows = num_flows;
  int rounds = 0;
  while (remaining_flows > 0) {
    ++rounds;
    // Bottleneck link: smallest per-width share among links carrying load.
    int bottleneck = -1;
    double best_share = kInf;
    for (int l : scratch.active_links) {
      const auto sl = static_cast<std::size_t>(l);
      if (scratch.width_on_link[sl] <= kWidthEps) continue;
      const double share =
          std::max(scratch.residual[sl], 0.0) / scratch.width_on_link[sl];
      if (share < best_share) {
        best_share = share;
        bottleneck = l;
      }
    }
    ensure(bottleneck >= 0, "progressive_fill: active flows but no link");

    std::size_t frozen_now = 0;
    const auto sb = static_cast<std::size_t>(bottleneck);
    for (int idx = scratch.link_start[sb]; idx < scratch.link_end[sb]; ++idx) {
      const auto f = static_cast<std::size_t>(
          scratch.link_flows[static_cast<std::size_t>(idx)]);
      if (scratch.frozen[f]) continue;
      scratch.frozen[f] = 1;
      --remaining_flows;
      ++frozen_now;
      Flow& flow = flows[f];
      const double flow_rate = best_share * flow.width;
      flow.rate += flow_rate;
      for (int i = 0; i < flow.path.count; ++i) {
        const auto link = static_cast<std::size_t>(flow.path.links[i]);
        scratch.residual[link] =
            std::max(scratch.residual[link] - flow_rate, 0.0);
        scratch.width_on_link[link] -= flow.width;
      }
    }
    if (frozen_now == 0) {
      // Width residue only: retire the link and keep going.
      scratch.width_on_link[sb] = 0.0;
    }
  }
  return rounds;
}

void build_coflow_groups(FillScratch& scratch, const std::vector<Flow>& flows,
                         const LinkSet& links) {
  const auto L = static_cast<std::size_t>(links.count());

  // Group flows into coflows (flows without a coflow are singletons) by
  // sorting (key, flow) pairs: contiguous runs are the groups and flow ids
  // within a run stay ascending, matching the old per-key insertion order.
  scratch.group_flows.clear();
  scratch.group_flows.reserve(flows.size());
  for (std::size_t f = 0; f < flows.size(); ++f) {
    const long key = flows[f].coflow >= 0
                         ? static_cast<long>(flows[f].coflow)
                         : -static_cast<long>(f) - 1;
    scratch.group_flows.emplace_back(key, static_cast<int>(f));
  }
  std::sort(scratch.group_flows.begin(), scratch.group_flows.end());

  // Effective bottleneck Γ of each coflow at full link capacity. Links are
  // registered in `touched` once via the dedup marker (a zero-remaining
  // flow leaves load[l] at 0.0, which used to re-push the link every time).
  scratch.groups.clear();
  scratch.load.assign(L, 0.0);
  scratch.touched_mark.assign(L, 0);
  scratch.touched.clear();
  for (std::size_t i = 0; i < scratch.group_flows.size();) {
    const long key = scratch.group_flows[i].first;
    std::size_t j = i;
    double gamma = 0;
    for (; j < scratch.group_flows.size() &&
           scratch.group_flows[j].first == key;
         ++j) {
      const Flow& flow =
          flows[static_cast<std::size_t>(scratch.group_flows[j].second)];
      for (int p = 0; p < flow.path.count; ++p) {
        const int l = flow.path.links[static_cast<std::size_t>(p)];
        const auto sl = static_cast<std::size_t>(l);
        if (!scratch.touched_mark[sl]) {
          scratch.touched_mark[sl] = 1;
          scratch.touched.push_back(l);
        }
        scratch.load[sl] += flow.remaining;
        gamma = std::max(gamma, scratch.load[sl] / links.capacity(l));
      }
    }
    for (int l : scratch.touched) {
      scratch.load[static_cast<std::size_t>(l)] = 0.0;
      scratch.touched_mark[static_cast<std::size_t>(l)] = 0;
    }
    scratch.touched.clear();
    scratch.groups.push_back(GroupRef{key, static_cast<int>(i),
                                      static_cast<int>(j - i), gamma});
    i = j;
  }
}

void madd_in_group_order(FillScratch& scratch, std::vector<Flow>& flows,
                         const LinkSet& links) {
  const std::vector<double>& capacities = links.capacities();
  scratch.residual.assign(capacities.begin(), capacities.end());
  for (const GroupRef& group : scratch.groups) {
    // Rescaled completion time on what is left of the fabric.
    double gamma = 0;
    bool starved = false;
    const auto begin = static_cast<std::size_t>(group.begin);
    const auto end = begin + static_cast<std::size_t>(group.count);
    for (std::size_t j = begin; j < end; ++j) {
      const Flow& flow =
          flows[static_cast<std::size_t>(scratch.group_flows[j].second)];
      for (int p = 0; p < flow.path.count; ++p) {
        const int l = flow.path.links[static_cast<std::size_t>(p)];
        const auto sl = static_cast<std::size_t>(l);
        if (!scratch.touched_mark[sl]) {
          scratch.touched_mark[sl] = 1;
          scratch.touched.push_back(l);
        }
        scratch.load[sl] += flow.remaining;
        if (scratch.residual[sl] <= kTinyBytes) {
          starved = true;
        } else {
          gamma = std::max(gamma, scratch.load[sl] / scratch.residual[sl]);
        }
      }
    }
    for (int l : scratch.touched) {
      scratch.load[static_cast<std::size_t>(l)] = 0.0;
      scratch.touched_mark[static_cast<std::size_t>(l)] = 0;
    }
    scratch.touched.clear();
    // A group that is starved (a saturated link) or carries no bytes at all
    // (gamma == 0 — e.g. every flow already finished but has not been
    // retired yet) gets no MADD rate; the work-conserving backfill below
    // still serves its flows. The gamma guard also keeps the division safe.
    if (starved || gamma <= 0) continue;
    for (std::size_t j = begin; j < end; ++j) {
      Flow& flow =
          flows[static_cast<std::size_t>(scratch.group_flows[j].second)];
      // Zero-remaining flows keep rate 0 (identical to 0/gamma, without
      // relying on the division) and consume no residual capacity.
      if (flow.remaining <= 0) continue;
      const double flow_rate = flow.remaining / gamma;
      flow.rate = flow_rate;
      for (int p = 0; p < flow.path.count; ++p) {
        const auto sl = static_cast<std::size_t>(
            flow.path.links[static_cast<std::size_t>(p)]);
        scratch.residual[sl] = std::max(scratch.residual[sl] - flow_rate, 0.0);
      }
    }
  }
}

FillScratch& thread_scratch() {
  thread_local FillScratch scratch;
  return scratch;
}

}  // namespace corral::net_detail
