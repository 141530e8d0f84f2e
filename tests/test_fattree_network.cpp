// Fat tree on the packet simulator (the paper's future-work topology):
// flow conservation, hop classes, ECMP spreading, incast congestion, and
// the RunMetrics mapping that lets the VA layer consume fat-tree runs.
// Netsim.ContentUidsArePinned pins a fat-tree run's output.
#include <gtest/gtest.h>

#include "core/projection.hpp"
#include "netsim/network.hpp"
#include "fattree_oracle.hpp"

namespace dv::netsim {
namespace {

topo::FatTree ft4() { return topo::FatTree(4); }  // 16 hosts, 20 switches

Params fast_params() {
  Params p;
  p.packet_size = 512;
  p.local_latency = 100.0;
  p.global_latency = 100.0;
  p.global_bandwidth = p.local_bandwidth;
  p.event_budget = 30'000'000;
  return p;
}

/// Adds `count` random messages between distinct hosts; returns their bytes.
std::uint64_t add_random(Network& net, std::uint64_t seed, int count,
                         double window, std::uint64_t min_bytes,
                         std::uint64_t spread) {
  const std::uint32_t hosts = net.fabric().num_terminals();
  Rng rng(seed);
  std::uint64_t total = 0;
  for (int i = 0; i < count; ++i) {
    const auto src = static_cast<std::uint32_t>(rng.next_below(hosts));
    auto dst = src;
    while (dst == src) dst = static_cast<std::uint32_t>(rng.next_below(hosts));
    const std::uint64_t bytes =
        min_bytes + (spread ? rng.next_below(spread) : 0);
    total += bytes;
    net.add_message({src, dst, bytes, rng.next_double() * window, 0});
  }
  return total;
}

TEST(FatTreeNet, FlowConservationUnderRandomTraffic) {
  // k = 2 and 6 leave unconnected router slots in the core pseudo-pod.
  for (const std::uint32_t k : {2u, 4u, 6u}) {
    const topo::FatTree topo(k);
    Network net(topo, fast_params(), 3);
    const std::uint64_t injected =
        add_random(net, 5, 200, 20000.0, 100, 4000);
    const auto m = net.run();
    EXPECT_DOUBLE_EQ(m.total_injected(), static_cast<double>(injected)) << k;
    EXPECT_GT(net.packets_delivered(), 0u) << k;
    EXPECT_EQ(net.packets_delivered(), net.packets_injected()) << k;
    EXPECT_EQ(m.terminals.size(),
              m.groups * m.routers_per_group * m.terminals_per_router)
        << k;
  }
}

TEST(FatTreeNet, HopClassesMatchTopology) {
  const auto topo = ft4();
  struct Case {
    std::uint32_t src, dst;
    double hops;
  };
  // Same edge (hosts 0,1): 1 switch; same pod (0, 2): 3; cross pod: 5.
  const Case cases[] = {{0, 1, 1.0}, {0, 2, 3.0}, {0, 15, 5.0}};
  for (const auto& c : cases) {
    Network net(topo, fast_params(), 1);
    net.add_message({c.src, c.dst, 512, 0.0, 0});
    const auto m = net.run();
    EXPECT_DOUBLE_EQ(m.terminals[c.dst].avg_hops(), c.hops)
        << c.src << "->" << c.dst;
    EXPECT_DOUBLE_EQ(m.terminals[c.dst].avg_hops(),
                     dv::testing::minimal_switch_hops(topo, c.src, c.dst));
  }
}

TEST(FatTreeNet, EcmpSpreadsCrossPodFlows) {
  const auto topo = ft4();
  Network net(topo, fast_params(), 7);
  // Many distinct flows from pod 0 to pod 3.
  for (std::uint32_t s = 0; s < 4; ++s) {
    for (std::uint32_t d = 12; d < 16; ++d) {
      net.add_message({s, d, 8192, 0.0, 0});
    }
  }
  const auto m = net.run();
  int used_global = 0;
  for (const auto& l : m.global_links) used_global += l.traffic > 0;
  EXPECT_GT(used_global, 4) << "ECMP should use multiple agg-core links";
}

TEST(FatTreeNet, IncastSaturatesTheVictimEdgeLink) {
  const auto topo = ft4();
  Params p = fast_params();
  p.vc_buffer_packets = 2;
  Network net(topo, p, 1);
  // Everyone floods host 0.
  for (std::uint32_t s = 4; s < 16; ++s) {
    net.add_message({s, 0, 64 * 1024, 0.0, 0});
  }
  const auto m = net.run();
  EXPECT_GT(m.terminals[0].sat_time, 0.0)
      << "victim's edge down-link must saturate";
}

TEST(FatTreeNet, RunMetricsMappingFeedsTheVaLayer) {
  const auto topo = ft4();
  Network net(topo, fast_params(), 9);
  net.set_labels("uniform_random", "contiguous", {"job0"});
  placement::Placement pl;
  pl.job_of.assign(topo.num_hosts(), 0);
  net.set_jobs(pl);
  net.enable_sampling(2000.0);
  add_random(net, 11, 150, 10000.0, 2048, 0);
  const auto m = net.run();
  // k=4: 4 pods + 1 pseudo-pod of cores; k routers per group.
  EXPECT_EQ(m.groups, 5u);
  EXPECT_EQ(m.routers_per_group, 4u);
  EXPECT_EQ(m.routing, "ecmp_up_down");
  EXPECT_EQ(m.terminals.size(),
            m.groups * m.routers_per_group * m.terminals_per_router);
  EXPECT_EQ(m.term_traffic_ts.entities(), m.terminals.size());
  EXPECT_EQ(m.local_links.size(), 4u * 2u * 2u * 2u);   // pods*edges*aggs*2
  EXPECT_EQ(m.global_links.size(), 8u * 2u * 2u);       // aggs*uplinks*2
  // Hosts sit on edge switches (rank < k/2 of a pod); every other row is
  // padding for an agg or core switch.
  for (std::uint32_t t = 0; t < m.terminals.size(); ++t) {
    const auto& row = m.terminals[t];
    if (t < topo.num_hosts()) {
      EXPECT_LT(row.router % 4, 2u);
      EXPECT_LT(row.router / 4, 4u);
      EXPECT_EQ(row.job, 0);
    } else {
      EXPECT_EQ(row.data_size, 0.0);
      EXPECT_EQ(row.job, -1);
    }
  }

  // The whole VA pipeline consumes the mapped run unchanged.
  const core::DataSet data(m);
  const auto spec = core::SpecBuilder()
                        .level(core::Entity::kGlobalLink)
                        .aggregate({"group_id"})
                        .color("sat_time")
                        .size("traffic")
                        .level(core::Entity::kTerminal)
                        .aggregate({"router_rank"})
                        .color("sat_time")
                        .ribbons(core::Entity::kLocalLink, "router_rank")
                        .build();
  const core::ProjectionView view(data, spec);
  EXPECT_EQ(view.rings().size(), 2u);
  EXPECT_FALSE(view.rings()[0].items.empty());
  const auto svg = view.to_svg(400, "fat tree via the dragonviz VA layer");
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_GT(data.windowed_table(core::Entity::kTerminal, 0.0, 4000.0).rows(),
            0u);
}

TEST(FatTreeNet, Validation) {
  const auto topo = ft4();
  Network net(topo, fast_params(), 1);
  EXPECT_THROW(net.add_message({0, 0, 10, 0.0, 0}), Error);
  EXPECT_THROW(net.add_message({0, 999, 10, 0.0, 0}), Error);
  EXPECT_THROW(net.add_message({0, 1, 0, 0.0, 0}), Error);
  fault::FaultPlan plan;
  plan.faults.push_back(fault::parse_fault("link:g0->g1@0:1000"));
  EXPECT_THROW(net.set_fault_plan(plan), Error);
  net.set_fault_plan({});  // an empty plan is a no-op on any fabric
  Params bad = fast_params();
  bad.packet_size = 0;
  EXPECT_THROW(Network(topo, bad, 1), Error);
}

}  // namespace
}  // namespace dv::netsim
