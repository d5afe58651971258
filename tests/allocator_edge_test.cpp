// Allocator edge cases: zero-remaining flows, NaN guards, capacity safety.
//
// A flow can reach remaining == 0 without having been retired yet (the
// Network sweeps completions after the advance that drains them, and
// injected or restored states can carry such flows). Historically Varys's
// MADD divided by the group's Γ, which is 0 when every member is drained —
// the rate went NaN and poisoned the fill. These tests pin the guards:
// rates stay finite and non-negative, per-link rate sums respect capacity,
// drained flows are costless in MADD, and the thread_local scratch path
// stays bit-exact under the pool with drained flows in the mix.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "coflow/coflow.h"
#include "exec/exec.h"
#include "net/network.h"

namespace corral {
namespace {

ClusterConfig tiny_cluster() {
  ClusterConfig config;
  config.racks = 2;
  config.machines_per_rack = 4;
  config.slots_per_machine = 2;
  config.nic_bandwidth = 8;
  config.oversubscription = 2.0;  // rack uplink = 4*8/2 = 16 B/s
  return config;
}

// Builds a machine-to-machine flow with the same path Network::start_flow
// charges, but with a caller-controlled `remaining` (the Network API cannot
// create drained-but-unretired flows, which is exactly the state under
// test).
Flow make_flow(const LinkSet& links, const ClusterConfig& config, int id,
               int src, int dst, Bytes remaining, double width, int coflow) {
  Flow flow;
  flow.id = id;
  flow.total = std::max(remaining, 1.0);
  flow.remaining = remaining;
  flow.width = width;
  flow.coflow = coflow;
  const int src_rack = src / config.machines_per_rack;
  const int dst_rack = dst / config.machines_per_rack;
  flow.cross_rack = src_rack != dst_rack;
  flow.path.add(links.host_up(src));
  if (flow.cross_rack) {
    flow.path.add(links.rack_up(src_rack));
    flow.path.add(links.rack_down(dst_rack));
  }
  flow.path.add(links.host_down(dst));
  return flow;
}

// Rack-aggregated fan-in flow with the path Network::start_fanin_flow
// charges (rack_up/rack_down when cross-rack, then host_down(dst)).
Flow make_fanin_flow(const LinkSet& links, const ClusterConfig& config,
                     int id, int src_rack, int dst, Bytes remaining,
                     double width, int coflow) {
  Flow flow;
  flow.id = id;
  flow.total = std::max(remaining, 1.0);
  flow.remaining = remaining;
  flow.width = width;
  flow.coflow = coflow;
  const int dst_rack = dst / config.machines_per_rack;
  flow.cross_rack = src_rack != dst_rack;
  if (flow.cross_rack) {
    flow.path.add(links.rack_up(src_rack));
    flow.path.add(links.rack_down(dst_rack));
  }
  flow.path.add(links.host_down(dst));
  return flow;
}

// `require_progress` additionally asserts every live flow got a positive
// rate. Always true for max-min (progressive filling's shares are
// non-decreasing from a positive first bottleneck); for Varys it holds in
// the simulator's fan-in patterns but not for arbitrary random topologies,
// where MADD can exactly saturate a link an unrelated later coflow crosses.
void check_rates_sane(const std::vector<Flow>& flows, const LinkSet& links,
                      bool require_progress = true) {
  std::vector<double> used(static_cast<std::size_t>(links.count()), 0.0);
  for (const Flow& flow : flows) {
    EXPECT_TRUE(std::isfinite(flow.rate)) << "flow " << flow.id;
    EXPECT_GE(flow.rate, 0.0) << "flow " << flow.id;
    if (require_progress && flow.remaining > 0) {
      // Work conservation: live flows always make progress.
      EXPECT_GT(flow.rate, 0.0) << "flow " << flow.id;
    }
    for (int i = 0; i < flow.path.count; ++i) {
      used[static_cast<std::size_t>(flow.path.links[i])] += flow.rate;
    }
  }
  for (int l = 0; l < links.count(); ++l) {
    const double cap = links.capacity(l);
    EXPECT_LE(used[static_cast<std::size_t>(l)], cap + 1e-6 + 1e-9 * cap)
        << "link " << l;
  }
}

TEST(VarysEdge, FullyDrainedCoflowYieldsFiniteRates) {
  // Coflow 0: every member drained (Γ == 0 — the old NaN division). Coflow
  // 1 carries real bytes and must still get sane MADD rates.
  const ClusterConfig config = tiny_cluster();
  const LinkSet links(config);
  std::vector<Flow> flows;
  flows.push_back(make_flow(links, config, 0, 0, 4, 0.0, 1.0, 0));
  flows.push_back(make_flow(links, config, 1, 1, 5, 0.0, 2.0, 0));
  flows.push_back(make_flow(links, config, 2, 2, 6, 64.0, 1.0, 1));
  flows.push_back(make_flow(links, config, 3, 3, 7, 32.0, 1.0, 1));
  VarysAllocator allocator;
  allocator.allocate(flows, links);
  check_rates_sane(flows, links);
}

TEST(VarysEdge, PartiallyDrainedCoflowChargesNoCapacityForDrainedFlows) {
  // One drained member inside a live coflow: MADD must skip it (no residual
  // consumed), so the live sibling sharing its NIC keeps the full rate it
  // would get if the drained flow were already retired.
  const ClusterConfig config = tiny_cluster();
  const LinkSet links(config);
  std::vector<Flow> with_drained;
  with_drained.push_back(make_flow(links, config, 0, 0, 4, 80.0, 1.0, 0));
  with_drained.push_back(make_flow(links, config, 1, 1, 5, 0.0, 1.0, 0));
  std::vector<Flow> without;
  without.push_back(make_flow(links, config, 0, 0, 4, 80.0, 1.0, 0));

  VarysAllocator allocator;
  allocator.allocate(with_drained, links);
  check_rates_sane(with_drained, links);
  VarysAllocator reference;
  reference.allocate(without, links);
  EXPECT_EQ(with_drained[0].rate, without[0].rate);
}

TEST(MaxMinEdge, DrainedFlowsKeepFillFinite) {
  const ClusterConfig config = tiny_cluster();
  const LinkSet links(config);
  std::vector<Flow> flows;
  flows.push_back(make_flow(links, config, 0, 0, 1, 0.0, 1.0, -1));
  flows.push_back(make_flow(links, config, 1, 0, 2, 40.0, 1.0, -1));
  MaxMinFairAllocator allocator;
  allocator.allocate(flows, links);
  check_rates_sane(flows, links);
}

TEST(AllocatorProperty, RandomFlowSetsRespectLinkCapacities) {
  // Randomized mixes of live and drained flows, singleton and coflowed,
  // through both allocators: rates must stay finite, positive for live
  // flows, and sum within capacity on every link.
  const ClusterConfig config = tiny_cluster();
  const LinkSet links(config);
  std::mt19937 rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Flow> flows;
    const int n = 1 + static_cast<int>(rng() % 12);
    for (int f = 0; f < n; ++f) {
      const int src = static_cast<int>(rng() % 8);
      int dst = static_cast<int>(rng() % 8);
      if (dst == src) dst = (dst + 1) % 8;
      const Bytes remaining =
          rng() % 5 == 0 ? 0.0 : 1.0 + static_cast<double>(rng() % 100);
      const double width = 1.0 + static_cast<double>(rng() % 3);
      const int coflow = rng() % 2 == 0 ? static_cast<int>(rng() % 3) : -1;
      flows.push_back(
          make_flow(links, config, f, src, dst, remaining, width, coflow));
    }
    std::vector<Flow> varys_flows = flows;
    VarysAllocator varys;
    varys.allocate(varys_flows, links);
    check_rates_sane(varys_flows, links, /*require_progress=*/false);

    MaxMinFairAllocator maxmin;
    maxmin.allocate(flows, links);
    check_rates_sane(flows, links);
  }
}

TEST(AllocatorProperty, DrainedFlowsParallelMatchesSerialExactly) {
  // AllocatorConcurrency (net_test) with drained flows in the mix: the
  // thread_local scratch's lazy-clear load/touched state must produce
  // bit-identical rates no matter which pool worker ran what before.
  const ClusterConfig config = tiny_cluster();
  const LinkSet links(config);
  const int kCases = 32;
  auto drive = [&](int c) {
    std::vector<Flow> flows;
    const int n = 2 + c % 6;
    for (int f = 0; f < n; ++f) {
      const int src = (c + f) % 8;
      int dst = (c + 3 * f + 1) % 8;
      if (dst == src) dst = (dst + 1) % 8;
      const Bytes remaining =
          (c + f) % 3 == 0 ? 0.0 : 16.0 + static_cast<double>(8 * f);
      flows.push_back(make_flow(links, config, f, src, dst, remaining,
                                1.0 + f % 2, f % 2 == 0 ? c % 2 : -1));
    }
    std::vector<double> rates;
    VarysAllocator varys;
    varys.allocate(flows, links);
    for (const Flow& flow : flows) rates.push_back(flow.rate);
    MaxMinFairAllocator maxmin;
    maxmin.allocate(flows, links);
    for (const Flow& flow : flows) rates.push_back(flow.rate);
    return rates;
  };

  std::vector<std::vector<double>> serial(kCases);
  for (int c = 0; c < kCases; ++c) serial[c] = drive(c);

  exec::ThreadPool pool(8);
  const auto parallel = exec::parallel_map(
      pool, kCases, [&](int, std::size_t c) { return drive(int(c)); });
  for (int c = 0; c < kCases; ++c) {
    ASSERT_EQ(parallel[c].size(), serial[c].size()) << "case " << c;
    for (std::size_t i = 0; i < serial[c].size(); ++i) {
      EXPECT_EQ(parallel[c][i], serial[c][i]) << "case " << c << " rate " << i;
    }
  }
}

TEST(AllocatorEdge, FullyDrainedCoflowYieldsFiniteRatesForEveryPolicy) {
  // The PR 7 zero-Γ guard, through the factory every tool dispatches on:
  // no registered policy may emit NaN or overfill when an entire coflow is
  // drained while a live coflow shares the fabric.
  const ClusterConfig config = tiny_cluster();
  const LinkSet links(config);
  for (const std::string& name : net_policy_names()) {
    NetPolicy policy = NetPolicy::kTcp;
    parse_net_policy(name, &policy);
    std::vector<Flow> flows;
    flows.push_back(make_flow(links, config, 0, 0, 4, 0.0, 1.0, 0));
    flows.push_back(make_flow(links, config, 1, 1, 5, 0.0, 2.0, 0));
    flows.push_back(make_flow(links, config, 2, 2, 6, 64.0, 1.0, 1));
    flows.push_back(make_flow(links, config, 3, 3, 7, 32.0, 1.0, 1));
    const auto allocator = coflow::make_allocator(policy);
    allocator->allocate(flows, links);
    check_rates_sane(flows, links, /*require_progress=*/false);
    for (const Flow& flow : flows) {
      if (flow.remaining > 0) {
        EXPECT_GT(flow.rate, 0.0) << name << " flow " << flow.id;
      }
    }
  }
}

TEST(AllocatorEdge, ZeroRemainingSingletonsYieldFiniteRatesForEveryPolicy) {
  // Drained singletons next to a live coflow: the ordering policies place
  // singletons behind real coflows, and drained ones must stay costless.
  const ClusterConfig config = tiny_cluster();
  const LinkSet links(config);
  for (const std::string& name : net_policy_names()) {
    NetPolicy policy = NetPolicy::kTcp;
    parse_net_policy(name, &policy);
    std::vector<Flow> flows;
    flows.push_back(make_flow(links, config, 0, 0, 4, 0.0, 1.0, -1));
    flows.push_back(make_flow(links, config, 1, 1, 5, 48.0, 1.0, -1));
    flows.push_back(make_flow(links, config, 2, 2, 6, 64.0, 1.0, 0));
    const auto allocator = coflow::make_allocator(policy);
    allocator->allocate(flows, links);
    check_rates_sane(flows, links, /*require_progress=*/false);
  }
}

TEST(AllocatorProperty, RandomFlowSetsRespectCapacityForEveryPolicy) {
  // The capacity-safety property quantified over the whole registry:
  // random live/drained singleton/coflow mixes through every policy the
  // factory can build — rates finite, non-negative, per-link sums within
  // capacity. Same generator seed per policy, so all four see identical
  // instances.
  const ClusterConfig config = tiny_cluster();
  const LinkSet links(config);
  for (const std::string& name : net_policy_names()) {
    NetPolicy policy = NetPolicy::kTcp;
    parse_net_policy(name, &policy);
    const auto allocator = coflow::make_allocator(policy);
    std::mt19937 rng(4242);
    for (int trial = 0; trial < 120; ++trial) {
      std::vector<Flow> flows;
      const int n = 1 + static_cast<int>(rng() % 12);
      for (int f = 0; f < n; ++f) {
        const int src = static_cast<int>(rng() % 8);
        int dst = static_cast<int>(rng() % 8);
        if (dst == src) dst = (dst + 1) % 8;
        const Bytes remaining =
            rng() % 5 == 0 ? 0.0 : 1.0 + static_cast<double>(rng() % 100);
        const double width = 1.0 + static_cast<double>(rng() % 3);
        const int coflow =
            rng() % 2 == 0 ? static_cast<int>(rng() % 3) : -1;
        flows.push_back(
            make_flow(links, config, f, src, dst, remaining, width, coflow));
      }
      allocator->allocate(flows, links);
      check_rates_sane(flows, links, /*require_progress=*/false);
    }
  }
}

TEST(NetworkEdge, ZeroDtAdvanceSweepsWithoutMovingBytes) {
  // advance(0) must be a pure sweep: no byte movement, no completions for
  // live flows, and repeated calls cannot stall or corrupt the flow set.
  Network net(tiny_cluster(), std::make_unique<MaxMinFairAllocator>());
  net.start_flow({0, 1, 80, 1.0, -1, 0});
  EXPECT_TRUE(net.advance(0).empty());
  EXPECT_TRUE(net.advance(0).empty());
  EXPECT_EQ(net.active_flows(), 1);
  const Seconds horizon = net.time_to_next_completion();
  EXPECT_NEAR(horizon, 10.0, 1e-9);
  EXPECT_EQ(net.advance(horizon).size(), 1u);
  EXPECT_TRUE(net.idle());
}

TEST(NetworkEdge, NearCompleteFlowRetiresImmediately) {
  // Drive a flow to within the completion slack but not exactly to zero:
  // the next horizon must be 0 (not a tiny positive dt) and a zero-dt
  // advance must retire it — the "finished but unretired" stall guard.
  Network net(tiny_cluster(), std::make_unique<MaxMinFairAllocator>());
  net.start_flow({0, 1, 80, 1.0, -1, 7});
  const Seconds horizon = net.time_to_next_completion();
  // Stop 1e-4 bytes short of completion (slack is 1e-3 bytes; rate 8 B/s).
  const auto done = net.advance(horizon - 1e-4 / 8.0);
  ASSERT_EQ(done.size(), 1u);  // already within slack: swept on this advance
  EXPECT_EQ(done[0].tag, 7u);
  EXPECT_TRUE(net.idle());
}

TEST(AllocatorEdge, EmptyPathThrowsBeforeAnyRateIsWritten) {
  // A flow with no links cannot be charged anywhere: every policy rejects
  // the whole flow set before it writes a single rate, so a caller that
  // catches the error still sees the rates of its last allocation.
  const ClusterConfig config = tiny_cluster();
  const LinkSet links(config);
  for (const std::string& name : net_policy_names()) {
    NetPolicy policy = NetPolicy::kTcp;
    parse_net_policy(name, &policy);
    std::vector<Flow> flows;
    flows.push_back(make_flow(links, config, 0, 0, 4, 64.0, 1.0, 0));
    Flow pathless;
    pathless.id = 1;
    pathless.total = pathless.remaining = 32.0;
    pathless.coflow = 0;
    flows.push_back(pathless);
    for (Flow& flow : flows) flow.rate = 7.0;
    const auto allocator = coflow::make_allocator(policy);
    try {
      allocator->allocate(flows, links);
      ADD_FAILURE() << name << ": allocate accepted a flow with empty path";
    } catch (const std::logic_error& error) {
      EXPECT_STREQ(error.what(), "allocator: flow with empty path") << name;
    }
    for (const Flow& flow : flows) {
      EXPECT_EQ(flow.rate, 7.0) << name << " flow " << flow.id;
    }
  }
}

// --- bit-exact golden rates ----------------------------------------------

// 64-bit FNV-1a: the golden test pins digests of hex bit images.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

// Appends the IEEE-754 bit image of `value` as 16 hex digits, so the digest
// moves on any change in any bit (signed zeros and NaNs included).
void append_bits(std::string* out, double value) {
  char buffer[20];
  std::snprintf(buffer, sizeof buffer, "%016llx ",
                static_cast<unsigned long long>(
                    std::bit_cast<std::uint64_t>(value)));
  *out += buffer;
}

std::string hex(std::uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "0x%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

// One transfer of a golden flow set: machine-to-machine (src is a machine)
// or rack-aggregated fan-in (src is a rack).
struct GoldenTransfer {
  bool fanin = false;
  int src = 0;
  int dst = 0;
  Bytes bytes = 0;
  double width = 1.0;
  int coflow = -1;
};

ClusterConfig golden_cluster() {
  ClusterConfig config;
  config.racks = 4;
  config.machines_per_rack = 4;
  config.slots_per_machine = 2;
  config.nic_bandwidth = 8;
  config.oversubscription = 2.0;
  return config;
}

// A seeded mix of coflow and stray flows, machine-to-machine and fan-in,
// widths 1-5, about one drained flow in six, and coflow 9 fully drained.
// Byte counts are multiples of 1/8 so the inputs are exact on every
// toolchain; only the allocators' arithmetic is under test.
std::vector<GoldenTransfer> golden_transfers(std::uint32_t seed) {
  const ClusterConfig config = golden_cluster();
  const int machines = config.total_machines();
  std::mt19937 rng(seed);
  std::vector<GoldenTransfer> transfers;
  const int n = 18 + static_cast<int>(rng() % 7);
  for (int f = 0; f < n; ++f) {
    GoldenTransfer t;
    t.fanin = rng() % 3 == 0;
    t.dst = static_cast<int>(rng() % static_cast<unsigned>(machines));
    if (t.fanin) {
      t.src = static_cast<int>(rng() % static_cast<unsigned>(config.racks));
    } else {
      t.src = static_cast<int>(rng() % static_cast<unsigned>(machines));
      if (t.src == t.dst) t.src = (t.src + 1) % machines;
    }
    t.bytes = rng() % 6 == 0
                  ? 0.0
                  : 1.0 + static_cast<double>(rng() % 4000) / 8.0;
    t.width = 1.0 + static_cast<double>(rng() % 5);
    t.coflow = rng() % 5 < 3 ? static_cast<int>(rng() % 4) : -1;
    transfers.push_back(t);
  }
  for (int f = 0; f < 2; ++f) {
    GoldenTransfer t;
    t.src = f;
    t.dst = machines - 1 - f;
    t.width = 2.0;
    t.coflow = 9;
    transfers.push_back(t);
  }
  return transfers;
}

// Hex bit images of the rates one direct allocate() assigns to every
// flow of every seeded set.
std::string golden_rates(NetPolicy policy) {
  const ClusterConfig config = golden_cluster();
  const LinkSet links(config);
  std::string out;
  for (std::uint32_t seed : {11u, 12u, 13u}) {
    std::vector<Flow> flows;
    for (const GoldenTransfer& t : golden_transfers(seed)) {
      const int id = static_cast<int>(flows.size());
      flows.push_back(t.fanin ? make_fanin_flow(links, config, id, t.src,
                                                t.dst, t.bytes, t.width,
                                                t.coflow)
                              : make_flow(links, config, id, t.src, t.dst,
                                          t.bytes, t.width, t.coflow));
    }
    const auto allocator = coflow::make_allocator(policy);
    allocator->allocate(flows, links);
    for (const Flow& flow : flows) append_bits(&out, flow.rate);
    out += '\n';
  }
  return out;
}

// Hex bit images of every time_to_next_completion() horizon of a Network
// that starts the live flows of every seeded set and runs them to empty
// (each horizon follows a recompute over a shrinking flow set).
std::string golden_horizons(NetPolicy policy) {
  std::string out;
  for (std::uint32_t seed : {11u, 12u, 13u}) {
    Network net(golden_cluster(), coflow::make_allocator(policy));
    for (const GoldenTransfer& t : golden_transfers(seed)) {
      if (t.bytes <= 0) continue;  // the Network only starts live flows
      if (t.fanin) {
        net.start_fanin_flow(t.src, t.dst, t.bytes, t.width, t.coflow, 0);
      } else {
        net.start_flow({t.src, t.dst, t.bytes, t.width, t.coflow, 0});
      }
    }
    for (int step = 0; !net.idle(); ++step) {
      if (step > 1000) {
        ADD_FAILURE() << "seed " << seed << ": network did not drain";
        break;
      }
      const Seconds horizon = net.time_to_next_completion();
      append_bits(&out, horizon);
      net.advance(horizon);
    }
    out += '\n';
  }
  return out;
}

TEST(AllocatorGolden, RatesAndHorizonsAreBitExactPerPolicy) {
  // Digests of every rate and every completion horizon, per policy. They
  // were recorded from the allocators that mirrored the flow set into
  // structure-of-arrays scratch before filling, and pin that filling the
  // Flow records in place is bit-exact against that mirror. They hold for
  // the RelWithDebInfo and the Debug TSan builds with GCC 12. If a
  // compiler or libm change moves them, re-record them with the new
  // toolchain from the mirror's code: check out the parent of the commit
  // that deleted FillScratch::load_flows from src/net/fill.cpp, add this
  // test there, and copy the digests its failure messages print. Never
  // re-record them from the in-place fill itself, which would only pin
  // what it now computes.
  struct Golden {
    NetPolicy policy;
    std::uint64_t rates;
    std::uint64_t horizons;
  };
  const Golden goldens[] = {
      {NetPolicy::kTcp, 0x34dda578187e3947ull, 0xe063045a6ebaaad0ull},
      {NetPolicy::kVarys, 0x8bf5ed51987810e5ull, 0x67c2c548944d096eull},
      {NetPolicy::kLpOrder, 0x31489d4729c9aeefull, 0x87fab6448afb9492ull},
      {NetPolicy::kSincronia, 0x015cd0ee557b685dull, 0xff476a74d742429full},
  };
  for (const Golden& golden : goldens) {
    const std::string name(to_string(golden.policy));
    EXPECT_EQ(hex(fnv1a(golden_rates(golden.policy))), hex(golden.rates))
        << name << " rates";
    EXPECT_EQ(hex(fnv1a(golden_horizons(golden.policy))),
              hex(golden.horizons))
        << name << " horizons";
  }
}

}  // namespace
}  // namespace corral
