// Topology-aware partitioner: cut quality vs the naive striping baseline,
// soundness of the pairwise lookahead matrix, determinism, and balance.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "netsim/network.hpp"
#include "netsim/partition.hpp"
#include "topology/fattree.hpp"

namespace dv::netsim {
namespace {

std::vector<ChannelEdge> df_graph(std::uint32_t p, const Params& params) {
  return channel_graph(Fabric::dragonfly(topo::Dragonfly::canonical(p), params),
                       params);
}

/// Switch-level fat-tree channel graph: every edge<->agg link within a pod
/// and every agg<->core uplink, both directions, uniform latency. Atom ids
/// are layered (edge | agg | core) since FatTree's per-layer ids overlap.
/// Pods are densely connected inside and only reach other pods through the
/// core, so a pod-respecting cut beats striping over raw switch ids.
std::vector<ChannelEdge> fattree_graph(const topo::FatTree& ft,
                                       double latency) {
  std::vector<ChannelEdge> edges;
  const std::uint32_t agg_base = ft.num_edge();
  const std::uint32_t core_base = ft.num_edge() + ft.num_agg();
  for (std::uint32_t pod = 0; pod < ft.pods(); ++pod) {
    for (std::uint32_t e = 0; e < ft.edge_per_pod(); ++e) {
      for (std::uint32_t a = 0; a < ft.agg_per_pod(); ++a) {
        const std::uint32_t eid = ft.edge_id(pod, e);
        const std::uint32_t aid = agg_base + ft.agg_id(pod, a);
        edges.push_back({eid, aid, 1.0, latency});
        edges.push_back({aid, eid, 1.0, latency});
      }
    }
    for (std::uint32_t a = 0; a < ft.agg_per_pod(); ++a) {
      const std::uint32_t aid = agg_base + ft.agg_id(pod, a);
      for (std::uint32_t up = 0; up < ft.k() / 2; ++up) {
        const std::uint32_t cid =
            core_base + ft.core_above(ft.agg_id(pod, a), up);
        edges.push_back({aid, cid, 1.0, latency});
        edges.push_back({cid, aid, 1.0, latency});
      }
    }
  }
  return edges;
}

TEST(NetsimPartition, CutNoWorseThanStripingOnDragonfly) {
  Params params;
  for (const std::uint32_t p : {3u, 5u}) {
    const auto topo = topo::Dragonfly::canonical(p);
    const auto edges = df_graph(p, params);
    for (const std::uint32_t parts : {2u, 3u, 4u}) {
      const auto plan = partition_channels(topo.groups(), parts, edges);
      const auto naive = stripe_partition(topo.groups(), parts, edges);
      EXPECT_LE(plan.cut_channels, naive.cut_channels)
          << "p=" << p << " parts=" << parts;
      EXPECT_LE(plan.cut_weight, naive.cut_weight + 1e-9)
          << "p=" << p << " parts=" << parts;
      EXPECT_EQ(plan.total_channels, naive.total_channels);
    }
  }
}

TEST(NetsimPartition, CutNoWorseThanStripingOnFatTree) {
  const topo::FatTree ft(4);
  const auto edges = fattree_graph(ft, 100.0);
  for (const std::uint32_t parts : {2u, 3u, 4u}) {
    const auto plan = partition_channels(ft.num_switches(), parts, edges);
    const auto naive = stripe_partition(ft.num_switches(), parts, edges);
    EXPECT_LE(plan.cut_channels, naive.cut_channels) << "parts=" << parts;
    EXPECT_LE(plan.cut_weight, naive.cut_weight + 1e-9) << "parts=" << parts;
  }
  // With 4 partitions the pod structure is discoverable: the optimized cut
  // must be strictly better than id striping, which splits pods.
  const auto plan = partition_channels(ft.num_switches(), 4, edges);
  const auto naive = stripe_partition(ft.num_switches(), 4, edges);
  EXPECT_LT(plan.cut_weight, naive.cut_weight);
}

TEST(NetsimPartition, MatrixLowerBoundsEveryCrossingChannel) {
  Params params;
  const auto topo = topo::Dragonfly::canonical(3);
  const auto edges = df_graph(3, params);
  for (const std::uint32_t parts : {2u, 4u}) {
    const auto plan = partition_channels(topo.groups(), parts, edges);
    for (const ChannelEdge& e : edges) {
      const std::uint32_t ps = plan.atom_partition[e.src];
      const std::uint32_t pd = plan.atom_partition[e.dst];
      if (ps == pd) continue;
      const double la = plan.pair_lookahead(ps, pd);
      EXPECT_GT(la, 0.0);
      EXPECT_LE(la, e.min_delay)
          << "pair (" << ps << "," << pd << ") lookahead must lower-bound "
          << "every channel crossing it";
    }
    // The canonical inter-group graph is complete, so every partition
    // pair is crossed by some cable and its credit return pins the
    // lookahead to the credit latency.
    for (std::uint32_t s = 0; s < parts; ++s) {
      for (std::uint32_t d = 0; d < parts; ++d) {
        if (s == d) continue;
        EXPECT_DOUBLE_EQ(plan.pair_lookahead(s, d), params.credit_latency);
      }
    }
  }
}

TEST(NetsimPartition, UnconnectedPairsAreUnreachable) {
  // Two disjoint 2-cliques: partitions along the component boundary have
  // no crossing channel, so their lookahead entry must be +infinity.
  const std::vector<ChannelEdge> edges = {
      {0, 1, 1.0, 10.0}, {1, 0, 1.0, 10.0},
      {2, 3, 1.0, 10.0}, {3, 2, 1.0, 10.0}};
  const auto plan = partition_channels(4, 2, edges);
  EXPECT_EQ(plan.cut_channels, 0u);
  EXPECT_EQ(plan.atom_partition[0], plan.atom_partition[1]);
  EXPECT_EQ(plan.atom_partition[2], plan.atom_partition[3]);
  EXPECT_TRUE(std::isinf(plan.pair_lookahead(0, 1)));
  EXPECT_TRUE(std::isinf(plan.pair_lookahead(1, 0)));
}

TEST(NetsimPartition, DeterministicAndBalanced) {
  Params params;
  const auto topo = topo::Dragonfly::canonical(5);
  const auto edges = df_graph(5, params);
  for (const std::uint32_t parts : {2u, 3u, 4u, 7u}) {
    const auto a = partition_channels(topo.groups(), parts, edges);
    const auto b = partition_channels(topo.groups(), parts, edges);
    EXPECT_EQ(a.atom_partition, b.atom_partition) << "parts=" << parts;
    std::vector<std::uint32_t> size(parts, 0);
    for (const std::uint32_t part : a.atom_partition) {
      ASSERT_LT(part, parts);
      ++size[part];
    }
    const std::uint32_t cap = (topo.groups() + parts - 1) / parts;
    for (std::uint32_t p = 0; p < parts; ++p) {
      EXPECT_GE(size[p], 1u) << "empty partition " << p;
      EXPECT_LE(size[p], cap) << "oversized partition " << p;
    }
  }
}

TEST(NetsimPartition, StripeMatchesLegacyFormula) {
  const auto plan = stripe_partition(9, 4, {});
  for (std::uint32_t a = 0; a < 9; ++a) {
    EXPECT_EQ(plan.atom_partition[a], a * 4u / 9u);
  }
}

TEST(NetsimPartition, RejectsInvalidConfigs) {
  EXPECT_THROW(partition_channels(4, 0, {}), Error);
  EXPECT_THROW(partition_channels(4, 5, {}), Error);
  EXPECT_THROW(stripe_partition(4, 5, {}), Error);
  EXPECT_THROW(partition_channels(2, 2, {{0, 7, 1.0, 1.0}}), Error);
}

TEST(NetsimPartition, DragonflyGraphShape) {
  Params params;
  const auto topo = topo::Dragonfly::canonical(3);
  const auto edges = df_graph(3, params);
  // One data + one credit edge per directed global link.
  EXPECT_EQ(edges.size(), static_cast<std::size_t>(topo.num_global_links()) * 2);
  const double floor = std::min(params.credit_latency,
                                std::min(params.local_latency,
                                         params.global_latency));
  for (const ChannelEdge& e : edges) {
    EXPECT_NE(e.src, e.dst);
    EXPECT_GE(e.min_delay, floor);
    EXPECT_GT(e.weight, 0.0);
  }
  // Exactly the global cables, router-major then channel order: a data
  // edge at global latency, then its credit return.
  std::size_t i = 0;
  for (std::uint32_t r = 0; r < topo.num_routers(); ++r) {
    for (std::uint32_t c = 0; c < topo.global_per_router(); ++c) {
      const std::uint32_t g = topo.router_group(r);
      const std::uint32_t h =
          topo.router_group(topo.global_neighbor(r, c).router);
      ASSERT_LT(i + 1, edges.size());
      EXPECT_EQ(edges[i].src, g);
      EXPECT_EQ(edges[i].dst, h);
      EXPECT_EQ(edges[i].weight, params.global_bandwidth);
      EXPECT_EQ(edges[i].min_delay, params.global_latency);
      EXPECT_EQ(edges[i + 1].src, h);
      EXPECT_EQ(edges[i + 1].dst, g);
      EXPECT_EQ(edges[i + 1].weight, params.global_bandwidth * 0.1);
      EXPECT_EQ(edges[i + 1].min_delay, params.credit_latency);
      i += 2;
    }
  }
}

TEST(NetsimPartition, FatTreeGraphCrossesOnlyAtTheCore) {
  Params params;
  const topo::FatTree ft(4);
  const Fabric fabric = Fabric::fat_tree(ft, params);
  const auto edges = channel_graph(fabric, params);
  // Every agg<->core link, both directions, data + credit: 4 per cable.
  EXPECT_EQ(edges.size(), 4u * ft.num_agg() * (ft.k() / 2));
  for (const ChannelEdge& e : edges) {
    EXPECT_TRUE(e.src >= ft.pods() || e.dst >= ft.pods())
        << "pods only reach each other through the core pseudo-pod";
  }
  const auto plan = partition_channels(fabric.shape().groups, 3, edges);
  EXPECT_EQ(plan.num_parts, 3u);
}

}  // namespace
}  // namespace dv::netsim
