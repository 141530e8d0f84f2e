// Topology invariants: Dragonfly (parameterized over the canonical family,
// including the paper's three scales) and Fat Tree.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "topology/dragonfly.hpp"
#include "topology/fattree.hpp"
#include "fattree_oracle.hpp"

namespace dv::topo {
namespace {

// ------------------------------------------------------------- Dragonfly

class CanonicalDragonfly : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CanonicalDragonfly, SizesMatchFormulae) {
  const std::uint32_t p = GetParam();
  const Dragonfly net = Dragonfly::canonical(p);
  EXPECT_EQ(net.routers_per_group(), 2 * p);
  EXPECT_EQ(net.global_per_router(), p);
  EXPECT_EQ(net.groups(), 2 * p * p + 1);
  EXPECT_EQ(net.num_terminals(), net.num_routers() * p);
  EXPECT_EQ(net.num_local_links(), net.num_routers() * (2 * p - 1));
  EXPECT_EQ(net.num_global_links(), net.num_routers() * p);
}

TEST_P(CanonicalDragonfly, GlobalWiringIsAnInvolution) {
  const Dragonfly net = Dragonfly::canonical(GetParam());
  for (std::uint32_t r = 0; r < net.num_routers(); ++r) {
    for (std::uint32_t c = 0; c < net.global_per_router(); ++c) {
      const GlobalEnd peer = net.global_neighbor(r, c);
      EXPECT_NE(net.router_group(peer.router), net.router_group(r));
      const GlobalEnd back = net.global_neighbor(peer.router, peer.channel);
      EXPECT_EQ(back.router, r);
      EXPECT_EQ(back.channel, c);
    }
  }
}

TEST_P(CanonicalDragonfly, EveryGroupPairHasExactlyOneLink) {
  const Dragonfly net = Dragonfly::canonical(GetParam());
  std::map<std::pair<std::uint32_t, std::uint32_t>, int> count;
  for (std::uint32_t r = 0; r < net.num_routers(); ++r) {
    for (std::uint32_t c = 0; c < net.global_per_router(); ++c) {
      const GlobalEnd peer = net.global_neighbor(r, c);
      ++count[{net.router_group(r), net.router_group(peer.router)}];
    }
  }
  for (std::uint32_t g1 = 0; g1 < net.groups(); ++g1) {
    for (std::uint32_t g2 = 0; g2 < net.groups(); ++g2) {
      if (g1 == g2) continue;
      EXPECT_EQ((count[{g1, g2}]), 1) << "groups " << g1 << "->" << g2;
    }
  }
}

TEST_P(CanonicalDragonfly, GroupExitMatchesWiring) {
  const Dragonfly net = Dragonfly::canonical(GetParam());
  for (std::uint32_t g1 = 0; g1 < net.groups(); ++g1) {
    for (std::uint32_t g2 = 0; g2 < net.groups(); ++g2) {
      if (g1 == g2) continue;
      const GlobalEnd exit = net.group_exit(g1, g2);
      EXPECT_EQ(net.router_group(exit.router), g1);
      const GlobalEnd entry = net.global_neighbor(exit.router, exit.channel);
      EXPECT_EQ(net.router_group(entry.router), g2);
    }
  }
}

TEST_P(CanonicalDragonfly, LocalPortsAreConsistent) {
  const Dragonfly net = Dragonfly::canonical(GetParam());
  const std::uint32_t a = net.routers_per_group();
  for (std::uint32_t r1 = 0; r1 < a; ++r1) {
    std::set<std::uint32_t> ports;
    for (std::uint32_t r2 = 0; r2 < a; ++r2) {
      if (r1 == r2) continue;
      const std::uint32_t port = net.local_port(r1, r2);
      ports.insert(port);
      EXPECT_EQ(net.local_neighbor(r1, port - net.terminals_per_router()),
                r2);
    }
    EXPECT_EQ(ports.size(), a - 1);  // all distinct
  }
}

TEST_P(CanonicalDragonfly, MinimalHopsBounds) {
  const Dragonfly net = Dragonfly::canonical(GetParam());
  // Same router.
  EXPECT_EQ(net.minimal_router_hops(0, 1 % net.terminals_per_router()),
            net.terminals_per_router() > 1 ? 1u : 1u);
  // Spot-check a sample of pairs: 1..4 routers on the path.
  const std::uint32_t n = net.num_terminals();
  for (std::uint32_t s = 0; s < n; s += std::max(1u, n / 37)) {
    for (std::uint32_t d = 0; d < n; d += std::max(1u, n / 41)) {
      if (s == d) continue;
      const std::uint32_t h = net.minimal_router_hops(s, d);
      EXPECT_GE(h, 1u);
      EXPECT_LE(h, 4u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(CanonicalFamily, CanonicalDragonfly,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u));

TEST(Dragonfly, PaperScales) {
  // The paper's three networks are the canonical p = 5, 6, 7 dragonflies.
  EXPECT_EQ(Dragonfly::canonical(5).num_terminals(), 2550u);
  EXPECT_EQ(Dragonfly::canonical(6).num_terminals(), 5256u);
  EXPECT_EQ(Dragonfly::canonical(7).num_terminals(), 9702u);
  const Dragonfly df6 = Dragonfly::canonical(6);
  EXPECT_EQ(df6.groups(), 73u);
  EXPECT_EQ(df6.routers_per_group(), 12u);
  EXPECT_EQ(df6.terminals_per_router(), 6u);
}

TEST(Dragonfly, LinkIdRoundTrip) {
  const Dragonfly net = Dragonfly::canonical(3);
  for (std::uint32_t lid = 0; lid < net.num_local_links(); ++lid) {
    const auto [router, lport] = net.local_link_ends(lid);
    EXPECT_EQ(net.local_link_id(router, lport), lid);
  }
  for (std::uint32_t gid = 0; gid < net.num_global_links(); ++gid) {
    const GlobalEnd src = net.global_link_src(gid);
    EXPECT_EQ(net.global_link_id(src.router, src.channel), gid);
  }
}

TEST(Dragonfly, InvalidConfigsThrow) {
  EXPECT_THROW(Dragonfly(0, 4, 2, 2), Error);
  EXPECT_THROW(Dragonfly(5, 1, 2, 2), Error);
  EXPECT_THROW(Dragonfly(5, 4, 0, 1), Error);
  EXPECT_THROW(Dragonfly(10, 4, 2, 2), Error);  // a*h != g-1
  EXPECT_NO_THROW(Dragonfly(9, 4, 2, 2));       // a*h == 8 == g-1
}

TEST(Dragonfly, OutOfRangeQueriesThrow) {
  const Dragonfly net = Dragonfly::canonical(2);
  EXPECT_THROW(net.router_id(net.groups(), 0), Error);
  EXPECT_THROW(net.local_port(0, 0), Error);
  EXPECT_THROW(net.group_exit(0, 0), Error);
  EXPECT_THROW(net.minimal_router_hops(0, net.num_terminals()), Error);
}

// ------------------------------------------------------------- Fat Tree

class FatTreeParam : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(FatTreeParam, SizesMatchFormulae) {
  const std::uint32_t k = GetParam();
  const FatTree ft(k);
  EXPECT_EQ(ft.num_hosts(), k * k * k / 4);
  EXPECT_EQ(ft.num_core(), k * k / 4);
  EXPECT_EQ(ft.num_agg(), k * k / 2);
}

TEST_P(FatTreeParam, HopClasses) {
  using dv::testing::minimal_switch_hops;
  const FatTree ft(GetParam());
  EXPECT_EQ(minimal_switch_hops(ft, 0, 1 % ft.hosts_per_edge()), 1u);
  if (ft.num_hosts() > ft.hosts_per_edge()) {
    // Same pod, different edge.
    const std::uint32_t other_edge = ft.hosts_per_edge();
    if (other_edge < ft.num_hosts() / ft.pods()) {
      EXPECT_EQ(minimal_switch_hops(ft, 0, other_edge), 3u);
    }
    // Across pods.
    const std::uint32_t other_pod = ft.num_hosts() - 1;
    EXPECT_EQ(minimal_switch_hops(ft, 0, other_pod), 5u);
  }
}

INSTANTIATE_TEST_SUITE_P(Arities, FatTreeParam,
                         ::testing::Values(2u, 4u, 6u, 8u));

TEST(FatTree, OddArityThrows) { EXPECT_THROW(FatTree(3), Error); }

}  // namespace
}  // namespace dv::topo
