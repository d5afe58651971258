#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "exec/exec.h"
#include "net/network.h"

namespace corral {
namespace {

ClusterConfig tiny_cluster() {
  ClusterConfig config;
  config.racks = 2;
  config.machines_per_rack = 4;
  config.slots_per_machine = 2;
  config.nic_bandwidth = 8;  // 8 bytes/sec: easy arithmetic
  config.oversubscription = 2.0;  // uplink = 4*8/2 = 16 B/s
  return config;
}

TEST(LinkSet, CapacitiesMatchTopology) {
  const ClusterConfig config = tiny_cluster();
  LinkSet links(config);
  // Host up/down, rack up/down, plus the storage interconnect.
  EXPECT_EQ(links.count(), 2 * 8 + 2 * 2 + 1);
  EXPECT_GT(links.capacity(links.storage_link()), 1e12);
  EXPECT_DOUBLE_EQ(links.capacity(links.host_up(0)), 8);
  EXPECT_DOUBLE_EQ(links.capacity(links.host_down(7)), 8);
  EXPECT_DOUBLE_EQ(links.capacity(links.rack_up(0)), 16);
  EXPECT_DOUBLE_EQ(links.capacity(links.rack_down(1)), 16);
}

TEST(LinkSet, BackgroundFractionShrinksRackLinksOnly) {
  LinkSet links(tiny_cluster());
  links.set_background_fraction(0.5);
  EXPECT_DOUBLE_EQ(links.capacity(links.rack_up(0)), 8);
  EXPECT_DOUBLE_EQ(links.capacity(links.host_up(0)), 8);
  EXPECT_THROW(links.set_background_fraction(1.0), std::invalid_argument);
}

TEST(MaxMin, SingleFlowGetsBottleneckBandwidth) {
  Network net(tiny_cluster(), std::make_unique<MaxMinFairAllocator>());
  net.start_flow({0, 1, 80, 1.0, -1, 0});  // same rack: NIC limited at 8 B/s
  EXPECT_NEAR(net.time_to_next_completion(), 10.0, 1e-9);
}

TEST(MaxMin, CrossRackFlowLimitedByNic) {
  // One cross-rack flow: host NIC (8) is tighter than the uplink (16).
  Network net(tiny_cluster(), std::make_unique<MaxMinFairAllocator>());
  net.start_flow({0, 4, 80, 1.0, -1, 0});
  EXPECT_NEAR(net.time_to_next_completion(), 10.0, 1e-9);
}

TEST(MaxMin, UplinkSharedAcrossCrossRackFlows) {
  // Four cross-rack flows from distinct sources to distinct destinations:
  // rack_up(0) carries 4 flows -> 4 B/s each (uplink 16 / 4), NICs idle-ish.
  Network net(tiny_cluster(), std::make_unique<MaxMinFairAllocator>());
  for (int i = 0; i < 4; ++i) {
    net.start_flow({i, 4 + i, 40, 1.0, -1, static_cast<std::uint64_t>(i)});
  }
  EXPECT_NEAR(net.time_to_next_completion(), 10.0, 1e-9);
  const auto done = net.advance(10.0);
  EXPECT_EQ(done.size(), 4u);
  EXPECT_TRUE(net.idle());
  EXPECT_NEAR(net.cross_rack_bytes(), 160, 1e-6);
}

TEST(MaxMin, WidthWeightsFairShare) {
  // Two flows into one destination NIC (8 B/s): widths 3 and 1 split 6:2.
  Network net(tiny_cluster(), std::make_unique<MaxMinFairAllocator>());
  net.start_flow({0, 2, 60, 3.0, -1, 1});
  net.start_flow({1, 2, 60, 1.0, -1, 2});
  // Wide flow: 60 bytes at 6 B/s = 10 s; narrow: 60 at 2 B/s = 30 s.
  EXPECT_NEAR(net.time_to_next_completion(), 10.0, 1e-9);
  auto done = net.advance(10.0);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].tag, 1u);
  // Narrow flow now gets the whole NIC: 40 bytes left at 8 B/s = 5 s.
  EXPECT_NEAR(net.time_to_next_completion(), 5.0, 1e-9);
}

TEST(MaxMin, WorkConservationAfterBottleneckFreeze) {
  // Flow A crosses racks (uplink bottleneck shared with B); flow C is
  // rack-local and should grab the leftover NIC bandwidth.
  Network net(tiny_cluster(), std::make_unique<MaxMinFairAllocator>());
  // Saturate rack 0 uplink with 4 flows from machine 0..3 (4 B/s each).
  for (int i = 0; i < 4; ++i) {
    net.start_flow({i, 4 + i, 400, 1.0, -1, static_cast<std::uint64_t>(i)});
  }
  // Local flow from machine 0 to machine 1: machine 0's NIC has 8 - 4 = 4
  // B/s left.
  net.start_flow({0, 1, 40, 1.0, -1, 99});
  const Seconds horizon = net.time_to_next_completion();
  EXPECT_NEAR(horizon, 10.0, 1e-9);  // 40 / 4
  const auto done = net.advance(horizon);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].tag, 99u);
  EXPECT_FALSE(done[0].cross_rack);
}

TEST(Network, FaninFlowSkipsSourceNic) {
  // Rack-aggregated fan-in: limited by destination NIC, not any single
  // source.
  Network net(tiny_cluster(), std::make_unique<MaxMinFairAllocator>());
  net.start_fanin_flow(0, 1, 80, 4.0, -1, 0);  // same-rack fan-in
  EXPECT_NEAR(net.time_to_next_completion(), 10.0, 1e-9);
  net.advance(10.0);
  EXPECT_DOUBLE_EQ(net.cross_rack_bytes(), 0.0);
}

TEST(Network, CrossRackFaninUsesUplink) {
  Network net(tiny_cluster(), std::make_unique<MaxMinFairAllocator>());
  net.start_fanin_flow(0, 4, 80, 4.0, -1, 0);
  // Destination NIC 8 B/s < uplink 16 -> 10 s.
  EXPECT_NEAR(net.time_to_next_completion(), 10.0, 1e-9);
  net.advance(10.0);
  EXPECT_NEAR(net.cross_rack_bytes(), 80, 1e-6);
}

TEST(Network, RejectsBadFlows) {
  Network net(tiny_cluster(), std::make_unique<MaxMinFairAllocator>());
  EXPECT_THROW(net.start_flow({0, 0, 10, 1.0, -1, 0}),
               std::invalid_argument);
  EXPECT_THROW(net.start_flow({0, 1, 0, 1.0, -1, 0}), std::invalid_argument);
  EXPECT_THROW(net.start_flow({0, 99, 10, 1.0, -1, 0}),
               std::invalid_argument);
  EXPECT_THROW(net.start_fanin_flow(9, 0, 10, 1.0, -1, 0),
               std::invalid_argument);
}

TEST(Network, PartialAdvanceKeepsFlowsAlive) {
  Network net(tiny_cluster(), std::make_unique<MaxMinFairAllocator>());
  net.start_flow({0, 1, 80, 1.0, -1, 7});
  const auto done = net.advance(5.0);
  EXPECT_TRUE(done.empty());
  EXPECT_EQ(net.active_flows(), 1);
  EXPECT_NEAR(net.time_to_next_completion(), 5.0, 1e-9);
}

TEST(Network, BackgroundFractionSlowsCrossRackFlows) {
  Network net(tiny_cluster(), std::make_unique<MaxMinFairAllocator>());
  // 4 cross-rack fan-ins to distinct destinations: uplink-bound at 16 B/s.
  for (int d = 4; d < 8; ++d) {
    net.start_fanin_flow(0, d, 40, 4.0, -1, static_cast<std::uint64_t>(d));
  }
  EXPECT_NEAR(net.time_to_next_completion(), 10.0, 1e-9);  // 4 B/s each
  net.set_background_fraction(0.5);                        // uplink -> 8
  EXPECT_NEAR(net.time_to_next_completion(), 20.0, 1e-9);  // 2 B/s each
}

TEST(Varys, SebfRunsSmallCoflowFirst) {
  // Two coflows share one destination NIC. Varys should finish the small
  // one at (almost) full rate before the big one, instead of fair-sharing.
  Network net(tiny_cluster(), std::make_unique<VarysAllocator>());
  net.start_flow({0, 2, 40, 1.0, /*coflow=*/1, 1});   // small
  net.start_flow({1, 2, 400, 1.0, /*coflow=*/2, 2});  // large
  const Seconds first = net.time_to_next_completion();
  // Small coflow gets the NIC: 40 / 8 = 5 s (max-min would give 10 s).
  EXPECT_NEAR(first, 5.0, 1e-6);
  const auto done = net.advance(first);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].tag, 1u);
}

TEST(Varys, CoflowCompletesAtItsBottleneckTime) {
  // One coflow, two flows of different sizes into different destinations.
  // MADD paces both to the coflow bottleneck (the 80-byte flow's source
  // NIC: 10 s); work-conserving backfill then lets the small flow finish
  // early, but the coflow as a whole still completes at 10 s.
  Network net(tiny_cluster(), std::make_unique<VarysAllocator>());
  net.start_flow({0, 4, 80, 1.0, /*coflow=*/5, 1});
  net.start_flow({1, 5, 40, 1.0, /*coflow=*/5, 2});
  Seconds now = 0;
  std::vector<std::pair<Seconds, std::uint64_t>> completions;
  while (!net.idle()) {
    const Seconds horizon = net.time_to_next_completion();
    now += horizon;
    for (const auto& flow : net.advance(horizon)) {
      completions.emplace_back(now, flow.tag);
    }
  }
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_EQ(completions.back().second, 1u);
  EXPECT_NEAR(completions.back().first, 10.0, 1e-6);
}

TEST(Varys, WorkConservingWhenAlone) {
  Network net(tiny_cluster(), std::make_unique<VarysAllocator>());
  net.start_flow({0, 1, 80, 1.0, /*coflow=*/3, 9});
  // A single coflow must still use the full bottleneck: 80 / 8 = 10 s.
  EXPECT_NEAR(net.time_to_next_completion(), 10.0, 1e-6);
}


TEST(Network, StorageFlowUsesInterconnectAndDownlinks) {
  Network net(tiny_cluster(), std::make_unique<MaxMinFairAllocator>());
  net.set_storage_bandwidth(4);  // tighter than NIC (8) and uplink (16)
  net.start_storage_flow(1, 40, 1.0, -1, 5);
  EXPECT_NEAR(net.time_to_next_completion(), 10.0, 1e-9);  // 40 / 4
  const auto done = net.advance(10.0);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_TRUE(done[0].cross_rack);
  EXPECT_NEAR(net.cross_rack_bytes(), 40, 1e-6);
}

// Cumulative bytes on rack r's uplink to the core.
Bytes uplink_bytes(const Network& net, int rack) {
  return net.rack_uplink_bytes()[static_cast<std::size_t>(rack)];
}

TEST(UplinkBytes, CrossRackFlowCountsOnSourceRack) {
  Network net(tiny_cluster(), std::make_unique<MaxMinFairAllocator>());
  net.start_flow({1, 5, 80, 1.0, -1, 0});  // rack 0 -> rack 1, NIC bound
  net.advance(net.time_to_next_completion());
  EXPECT_TRUE(net.idle());
  EXPECT_DOUBLE_EQ(uplink_bytes(net, 0), 80);
  EXPECT_DOUBLE_EQ(uplink_bytes(net, 1), 0);
}

TEST(UplinkBytes, FaninFlowCountsOnSourceRack) {
  Network net(tiny_cluster(), std::make_unique<MaxMinFairAllocator>());
  net.start_fanin_flow(/*src_rack=*/1, /*dst_machine=*/2, 80, 4.0, -1, 0);
  net.advance(net.time_to_next_completion());
  EXPECT_TRUE(net.idle());
  EXPECT_DOUBLE_EQ(uplink_bytes(net, 0), 0);
  EXPECT_DOUBLE_EQ(uplink_bytes(net, 1), 80);
}

TEST(UplinkBytes, StorageAndIntraRackFlowsCountNowhere) {
  Network net(tiny_cluster(), std::make_unique<MaxMinFairAllocator>());
  net.start_storage_flow(5, 40, 1.0, -1, 1);
  net.start_flow({0, 1, 40, 1.0, -1, 2});
  net.start_fanin_flow(1, 6, 40, 4.0, -1, 3);
  while (!net.idle()) net.advance(net.time_to_next_completion());
  EXPECT_DOUBLE_EQ(uplink_bytes(net, 0), 0);
  EXPECT_DOUBLE_EQ(uplink_bytes(net, 1), 0);
  EXPECT_NEAR(net.cross_rack_bytes(), 40, 1e-6);  // the storage read
}

TEST(UplinkBytes, CancelledFlowKeepsItsPartialBytes) {
  Network net(tiny_cluster(), std::make_unique<MaxMinFairAllocator>());
  net.start_flow({4, 0, 80, 1.0, -1, 0});  // rack 1 -> rack 0 at 8 B/s
  net.advance(5.0);
  const auto cancelled =
      net.cancel_flows_if([](const Flow&) { return true; });
  ASSERT_EQ(cancelled.size(), 1u);
  EXPECT_TRUE(net.idle());
  EXPECT_DOUBLE_EQ(uplink_bytes(net, 1), 40);
  EXPECT_DOUBLE_EQ(uplink_bytes(net, 0), 0);
}

TEST(Network, StorageFlowsShareTheInterconnect) {
  Network net(tiny_cluster(), std::make_unique<MaxMinFairAllocator>());
  net.set_storage_bandwidth(8);
  // Two fetches to different machines: interconnect (8) binds, not the
  // destination NICs (8 each).
  net.start_storage_flow(0, 40, 1.0, -1, 1);
  net.start_storage_flow(4, 40, 1.0, -1, 2);
  EXPECT_NEAR(net.time_to_next_completion(), 10.0, 1e-9);  // 4 B/s each
}

TEST(AllocatorConcurrency, ParallelAllocationsMatchSerialExactly) {
  // Regression test for the allocator's thread_local FillScratch (see
  // net/fill.h): pool workers run many allocations back to back on
  // the same OS thread, so the lazily-cleared scratch must never leak rates
  // between independent networks. Each case drives its own Network through
  // a distinct flow pattern; the parallel completion times must equal the
  // serial ones bit for bit.
  const ClusterConfig config = tiny_cluster();
  const int kCases = 48;
  auto drive = [&](int c) {
    Network net(config, c % 2 == 0
                            ? std::unique_ptr<RateAllocator>(
                                  std::make_unique<MaxMinFairAllocator>())
                            : std::make_unique<VarysAllocator>());
    // A mix of local, cross-rack, and fan-in flows whose shape varies with
    // the case index, so different workers hold differently-sized scratch.
    const int flows = 2 + c % 5;
    for (int f = 0; f < flows; ++f) {
      const int src = (c + f) % 8;
      const int dst = (c + 3 * f + 1) % 8;
      if (src == dst) continue;
      net.start_flow({src, dst, 40.0 + 8 * f, 1.0 + f % 3,
                      /*coflow=*/c % 3 == 0 ? f % 2 : -1,
                      static_cast<std::uint64_t>(f)});
    }
    net.start_fanin_flow(c % 2, (c + 5) % 8, 64, 3.0, -1, 99);
    std::vector<double> completions;
    while (!net.idle()) {
      const Seconds horizon = net.time_to_next_completion();
      completions.push_back(horizon);
      net.advance(horizon);
    }
    completions.push_back(net.cross_rack_bytes());
    return completions;
  };

  std::vector<std::vector<double>> serial(kCases);
  for (int c = 0; c < kCases; ++c) serial[c] = drive(c);

  exec::ThreadPool pool(8);
  const auto parallel = exec::parallel_map(
      pool, kCases, [&](int, std::size_t c) { return drive(int(c)); });
  for (int c = 0; c < kCases; ++c) {
    ASSERT_EQ(parallel[c].size(), serial[c].size()) << "case " << c;
    for (std::size_t i = 0; i < serial[c].size(); ++i) {
      EXPECT_EQ(parallel[c][i], serial[c][i]) << "case " << c << " step " << i;
    }
  }
}

TEST(Network, StorageFlowValidation) {
  Network net(tiny_cluster(), std::make_unique<MaxMinFairAllocator>());
  EXPECT_THROW(net.start_storage_flow(99, 10, 1.0, -1, 0),
               std::invalid_argument);
  EXPECT_THROW(net.start_storage_flow(0, 0, 1.0, -1, 0),
               std::invalid_argument);
  EXPECT_THROW(net.set_storage_bandwidth(0), std::invalid_argument);
}

}  // namespace
}  // namespace corral
