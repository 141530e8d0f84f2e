// Fault-injection tests: spec parsing (incl. fuzzed round-trips), timeline
// semantics, netsim degradation (retries, drops, detours, recovery), and
// the zero-fault identity property. Netsim.ContentUidsArePinned pins the
// outputs of faulted runs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "fault/fault.hpp"
#include "json/json.hpp"
#include "netsim/network.hpp"
#include "util/rng.hpp"
#include "helpers.hpp"

namespace dv::fault {
namespace {

// ----------------------------------------------------------------- parsing

TEST(FaultSpec, ParsesExactLink) {
  const auto f = parse_fault("link:g2.r3->g5.r1@1.5e5:3.0e5");
  EXPECT_EQ(f.kind, FaultSpec::Kind::kLink);
  EXPECT_FALSE(f.group_level);
  EXPECT_EQ(f.src.group, 2u);
  EXPECT_EQ(f.src.rank, 3u);
  EXPECT_EQ(f.dst.group, 5u);
  EXPECT_EQ(f.dst.rank, 1u);
  EXPECT_DOUBLE_EQ(f.t_down, 1.5e5);
  EXPECT_DOUBLE_EQ(f.t_up, 3.0e5);
}

TEST(FaultSpec, ParsesGroupLevelLink) {
  const auto f = parse_fault("link:g0->g7@1000");
  EXPECT_EQ(f.kind, FaultSpec::Kind::kLink);
  EXPECT_TRUE(f.group_level);
  EXPECT_EQ(f.src.group, 0u);
  EXPECT_EQ(f.dst.group, 7u);
  EXPECT_DOUBLE_EQ(f.t_down, 1000.0);
  EXPECT_TRUE(std::isinf(f.t_up));  // never recovers
}

TEST(FaultSpec, ParsesRouter) {
  const auto f = parse_fault("  ROUTER:g4.r0@0:250.5  ");
  EXPECT_EQ(f.kind, FaultSpec::Kind::kRouter);
  EXPECT_EQ(f.src.group, 4u);
  EXPECT_EQ(f.src.rank, 0u);
  EXPECT_DOUBLE_EQ(f.t_down, 0.0);
  EXPECT_DOUBLE_EQ(f.t_up, 250.5);
}

TEST(FaultSpec, RejectsMalformed) {
  const char* bad[] = {
      "",
      "link",
      "link:g1->g2",            // no times
      "link:g1->g2@",           // empty time
      "link:g1->g2@abc",        // non-numeric time
      "link:g1->g2@5:4",        // t_up <= t_down
      "link:g1->g2@5:5",
      "link:g1->g1@5",          // same group, group-level
      "link:g1.r0->g1.r0@5",    // identical endpoints
      "link:g1.r0->g2@5",       // mixed endpoint forms
      "link:g1@5",              // no arrow
      "router:g1@5",            // router needs a rank
      "router:g1.r2@-5",        // negative time
      "router:g1.r2@inf",       // non-finite time
      "cable:g1.r2->g2.r0@5",   // unknown kind
      "link:x1->g2@5",          // endpoint must start with g
      "link:g1.s2->g2.r0@5",    // rank must be r<N>
      "link:g1.r2->g2.r0@5:6:7" // too many times
  };
  for (const char* s : bad) {
    EXPECT_THROW((void)parse_fault(s), Error) << s;
  }
}

TEST(FaultSpec, RoundTripsThroughToString) {
  const char* specs[] = {
      "link:g2.r3->g5.r1@150000:300000",
      "link:g0->g7@1000",
      "router:g4.r0@0:250.5",
      "router:g1.r2@3.25e4",
  };
  for (const char* s : specs) {
    const auto f = parse_fault(s);
    EXPECT_EQ(parse_fault(to_string(f)), f) << s;
  }
}

TEST(FaultSpecFuzz, RandomValidSpecsRoundTrip) {
  Rng rng(20260806);
  for (int i = 0; i < 500; ++i) {
    FaultSpec f;
    const auto kind = rng.next_below(3);
    f.kind = kind == 0 ? FaultSpec::Kind::kRouter : FaultSpec::Kind::kLink;
    f.group_level = kind == 2;
    f.src.group = static_cast<std::uint32_t>(rng.next_below(100));
    f.src.rank = static_cast<std::uint32_t>(rng.next_below(100));
    if (f.kind == FaultSpec::Kind::kLink) {
      do {
        f.dst.group = static_cast<std::uint32_t>(rng.next_below(100));
        f.dst.rank = static_cast<std::uint32_t>(rng.next_below(100));
      } while (f.group_level ? f.dst.group == f.src.group
                             : (f.dst == f.src));
    }
    if (f.group_level) f.src.rank = f.dst.rank = 0;
    f.t_down = rng.next_double() * 1e6;
    if (rng.next_below(2)) f.t_up = f.t_down + 1.0 + rng.next_double() * 1e6;
    const auto g = parse_fault(to_string(f));
    EXPECT_EQ(g, f) << to_string(f);
  }
}

TEST(FaultSpecFuzz, MutatedSpecsNeverCrash) {
  Rng rng(7);
  const std::string base = "link:g2.r3->g5.r1@1.5e5:3.0e5";
  for (int i = 0; i < 2000; ++i) {
    std::string s = base;
    const int mutations = 1 + static_cast<int>(rng.next_below(4));
    for (int m = 0; m < mutations; ++m) {
      const auto pos = rng.next_below(s.size());
      switch (rng.next_below(3)) {
        case 0: s[pos] = static_cast<char>(32 + rng.next_below(95)); break;
        case 1: s.erase(pos, 1); break;
        default:
          s.insert(pos, 1, static_cast<char>(32 + rng.next_below(95)));
      }
      if (s.empty()) s.push_back('x');
    }
    try {
      const auto f = parse_fault(s);       // either parses...
      (void)to_string(f);
    } catch (const Error&) {               // ...or reports a clean error
    }
  }
}

TEST(FaultPlanParse, HandlesCommentsAndBlankLines) {
  const auto plan = FaultPlan::parse(
      "# outage scenario\n"
      "\n"
      "link:g0->g1@100:200   # transient cable fault\n"
      "router:g2.r1@50\n");
  ASSERT_EQ(plan.faults.size(), 2u);
  EXPECT_EQ(plan.faults[0].kind, FaultSpec::Kind::kLink);
  EXPECT_EQ(plan.faults[1].kind, FaultSpec::Kind::kRouter);
}

TEST(FaultPlanParse, LoadsFromFile) {
  const auto path =
      (dv::testing::test_temp_dir() / "dv_fault_plan_test.txt")
          .string();
  {
    std::ofstream os(path);
    os << "router:g1.r1@10:20\nlink:g0->g2@5\n";
  }
  const auto plan = FaultPlan::load(path);
  EXPECT_EQ(plan.faults.size(), 2u);
  std::remove(path.c_str());
  EXPECT_THROW((void)FaultPlan::load("/nonexistent/fault/plan.txt"), Error);
}

// ----------------------------------------------------------------- timeline

TEST(FaultTimeline, HalfOpenIntervalSemantics) {
  const auto topo = topo::Dragonfly::canonical(2);
  const auto plan = FaultPlan::parse("router:g0.r0@100:200");
  const FaultTimeline tl(topo, plan);
  EXPECT_FALSE(tl.empty());
  EXPECT_EQ(tl.faults(), 1u);
  EXPECT_EQ(tl.entities(), 1u);
  EXPECT_FALSE(tl.router_down(0, 99.999));
  EXPECT_TRUE(tl.router_down(0, 100.0));   // down boundary is inclusive
  EXPECT_TRUE(tl.router_down(0, 199.999));
  EXPECT_FALSE(tl.router_down(0, 200.0));  // up boundary is exclusive
  EXPECT_FALSE(tl.router_down(1, 150.0));  // other routers unaffected
  EXPECT_DOUBLE_EQ(tl.router_downtime(0, 150.0), 50.0);   // clipped
  EXPECT_DOUBLE_EQ(tl.router_downtime(0, 1000.0), 100.0);
  EXPECT_DOUBLE_EQ(tl.router_downtime(1, 1000.0), 0.0);
}

TEST(FaultTimeline, MergesOverlappingIntervals) {
  const auto topo = topo::Dragonfly::canonical(2);
  const auto plan =
      FaultPlan::parse("router:g0.r0@100:200\nrouter:g0.r0@150:300");
  const FaultTimeline tl(topo, plan);
  EXPECT_TRUE(tl.router_down(0, 250.0));
  EXPECT_DOUBLE_EQ(tl.router_downtime(0, 1000.0), 200.0);  // union, not sum
}

TEST(FaultTimeline, PermanentFaultClipsToEnd) {
  const auto topo = topo::Dragonfly::canonical(2);
  const FaultTimeline tl(topo, FaultPlan::parse("router:g0.r1@500"));
  const std::uint32_t r = topo.router_id(0, 1);
  EXPECT_TRUE(tl.router_down(r, 1e18));
  EXPECT_DOUBLE_EQ(tl.router_downtime(r, 2000.0), 1500.0);
}

TEST(FaultTimeline, GroupLevelLinkResolvesToGroupExit) {
  const auto topo = topo::Dragonfly::canonical(2);
  const FaultTimeline tl(topo, FaultPlan::parse("link:g0->g1@10:20"));
  const auto ge = topo.group_exit(0, 1);
  const auto gid = topo.global_link_id(ge.router, ge.channel);
  EXPECT_TRUE(tl.global_link_down(gid, 15.0));
  EXPECT_FALSE(tl.global_link_down(gid, 25.0));
  EXPECT_DOUBLE_EQ(tl.global_link_downtime(gid, 100.0), 10.0);
}

TEST(FaultTimeline, EffectiveLinkDowntimeUnionsEndpointRouters) {
  const auto topo = topo::Dragonfly::canonical(2);
  // The local link g0.r0 -> g0.r1 plus downtime of its source router.
  const auto plan =
      FaultPlan::parse("link:g0.r0->g0.r1@0:100\nrouter:g0.r0@50:150");
  const FaultTimeline tl(topo, plan);
  const std::uint32_t nterm = topo.terminals_per_router();
  const auto lid = topo.local_link_id(0, topo.local_port(0, 1) - nterm);
  EXPECT_DOUBLE_EQ(tl.local_link_downtime(lid, 1000.0), 100.0);
  EXPECT_DOUBLE_EQ(tl.effective_link_downtime(false, lid, 0, 1, 1000.0),
                   150.0);
}

TEST(FaultTimeline, WakesAreSortedUniqueAndFinite) {
  const auto topo = topo::Dragonfly::canonical(2);
  const auto plan = FaultPlan::parse(
      "router:g0.r0@100:200\nlink:g0->g1@100:200\nrouter:g1.r1@50");
  const FaultTimeline tl(topo, plan);
  const auto& wakes = tl.wakes();
  ASSERT_FALSE(wakes.empty());
  for (std::size_t i = 0; i < wakes.size(); ++i) {
    EXPECT_TRUE(std::isfinite(wakes[i].second));
    if (i) {
      EXPECT_LT(wakes[i - 1], wakes[i]);  // strictly increasing pairs
    }
  }
}

TEST(FaultTimeline, RejectsOutOfTopologyAndMissingLinks) {
  const auto topo = topo::Dragonfly::canonical(2);  // 9 groups, 4 ranks
  EXPECT_THROW(FaultTimeline(topo, FaultPlan::parse("router:g9.r0@5")),
               Error);
  EXPECT_THROW(FaultTimeline(topo, FaultPlan::parse("router:g0.r4@5")),
               Error);
  EXPECT_THROW(FaultTimeline(topo, FaultPlan::parse("link:g0->g9@5")), Error);
  // g0.r0 has h=2 global channels; most cross-group router pairs share no
  // cable, and naming one of those must fail loudly.
  bool threw = false;
  try {
    FaultTimeline(topo, FaultPlan::parse("link:g0.r0->g5.r3@5"));
  } catch (const Error&) {
    threw = true;
  }
  const auto ge0 = topo.global_neighbor(0, 0);
  const auto ge1 = topo.global_neighbor(0, 1);
  const bool connected =
      ge0.router == topo.router_id(5, 3) || ge1.router == topo.router_id(5, 3);
  EXPECT_EQ(threw, !connected);
}

}  // namespace
}  // namespace dv::fault

namespace dv::netsim {
namespace {

Params fault_test_params() {
  Params p;
  p.packet_size = 512;
  p.event_budget = 50'000'000;
  return p;
}

/// Uniform-random message soup over the first `window` ns.
void add_soup(Network& net, std::uint64_t seed, int count, double window) {
  const std::uint32_t terms = net.fabric().num_terminals();
  Rng rng(seed);
  for (int i = 0; i < count; ++i) {
    const auto src = static_cast<std::uint32_t>(rng.next_below(terms));
    auto dst = src;
    while (dst == src) {
      dst = static_cast<std::uint32_t>(rng.next_below(terms));
    }
    net.add_message({src, dst, 100 + rng.next_below(4000),
                     rng.next_double() * window, 0});
  }
}

std::string dump(const metrics::RunMetrics& m) {
  return json::dump(m.to_json());
}

TEST(FaultNetsim, EmptyPlanIsBitIdenticalToNoPlan) {
  const auto topo = topo::Dragonfly::canonical(2);
  auto build = [&](bool with_empty_plan) {
    auto net = std::make_unique<Network>(topo, routing::Algo::kAdaptive,
                                         fault_test_params(), 5);
    add_soup(*net, 17, 250, 10000.0);
    if (with_empty_plan) net->set_fault_plan(fault::FaultPlan{});
    return net;
  };
  const auto a = build(false)->run();
  const auto b = build(true)->run();
  EXPECT_EQ(dump(a), dump(b));
  // The healthy run reports no fault activity anywhere.
  EXPECT_TRUE(b.router_downtime.empty());
  for (const auto& l : b.global_links) {
    EXPECT_EQ(l.retries, 0u);
    EXPECT_EQ(l.pkts_dropped, 0u);
    EXPECT_DOUBLE_EQ(l.downtime, 0.0);
  }
}

TEST(FaultNetsim, MinimalDetoursAroundDeadGroupCable) {
  const auto topo = topo::Dragonfly::canonical(2);
  Network net(topo, routing::Algo::kMinimal, fault_test_params(), 3);
  // Every message crosses the (dead) g0 -> g1 cable's minimal route.
  for (std::uint32_t i = 0; i < topo.terminals_per_router(); ++i) {
    net.add_message({i, topo.terminals_per_router() *
                            topo.routers_per_group() + i,
                     2048, 0.0, 0});
  }
  net.set_fault_plan(fault::FaultPlan::parse("link:g0->g1@0"));
  const auto m = net.run();
  // All packets delivered — via a Valiant detour, none dropped.
  EXPECT_EQ(net.packets_injected(), net.packets_delivered());
  std::uint64_t rerouted = 0, dropped = 0;
  for (const auto& t : m.terminals) {
    rerouted += t.packets_rerouted;
    dropped += t.packets_dropped;
  }
  EXPECT_GT(rerouted, 0u);
  EXPECT_EQ(dropped, 0u);
  // The dead cable carried nothing and reports its downtime.
  const auto ge = topo.group_exit(0, 1);
  const auto gid = topo.global_link_id(ge.router, ge.channel);
  EXPECT_DOUBLE_EQ(m.global_links[gid].traffic, 0.0);
  EXPECT_DOUBLE_EQ(m.global_links[gid].downtime, m.end_time);
}

TEST(FaultNetsim, PermanentlyDeadDestinationDropsAfterRetryBudget) {
  const auto topo = topo::Dragonfly::canonical(2);
  auto params = fault_test_params();
  params.fault_retry_budget = 3;
  Network net(topo, routing::Algo::kAdaptive, params, 9);
  // All traffic targets terminals of router g1.r0, which never comes up.
  const std::uint32_t dead = topo.router_id(1, 0);
  const std::uint32_t dst = topo.terminal_id(dead, 0);
  for (std::uint32_t i = 0; i < 8; ++i) {
    net.add_message({i, dst, 1024, 0.0, 0});
  }
  net.set_fault_plan(fault::FaultPlan::parse("router:g1.r0@0"));
  const auto m = net.run();
  EXPECT_GT(net.packets_injected(), 0u);
  EXPECT_EQ(net.packets_delivered(), 0u);
  std::uint64_t dropped = 0, retries = 0;
  for (const auto& t : m.terminals) dropped += t.packets_dropped;
  for (const auto c : m.router_retries) retries += c;
  EXPECT_EQ(dropped, net.packets_injected());  // conservation via drops
  EXPECT_GT(retries, 0u);
  // Drops are attributed to the terminals that sourced the packets.
  EXPECT_GT(m.terminals[0].packets_dropped, 0u);
  // The dead router reports full-run downtime.
  ASSERT_EQ(m.router_downtime.size(), topo.num_routers());
  EXPECT_DOUBLE_EQ(m.router_downtime[dead], m.end_time);
  EXPECT_DOUBLE_EQ(m.terminals[dst].downtime, m.end_time);
}

TEST(FaultNetsim, TransientRouterFaultRecovers) {
  const auto topo = topo::Dragonfly::canonical(2);
  auto params = fault_test_params();
  params.fault_retry_budget = 40;  // patient: survive the outage
  Network net(topo, routing::Algo::kMinimal, params, 4);
  // Source terminal hangs off the faulted router: injection stalls until
  // the router revives, then everything flows.
  const std::uint32_t src_router = topo.router_id(0, 0);
  const std::uint32_t src = topo.terminal_id(src_router, 0);
  net.add_message({src, topo.num_terminals() - 1, 4096, 0.0, 0});
  net.set_fault_plan(fault::FaultPlan::parse("router:g0.r0@0:50000"));
  const auto m = net.run();
  EXPECT_EQ(net.packets_injected(), net.packets_delivered());
  EXPECT_GT(m.end_time, 50000.0);  // nothing moved before recovery
  std::uint64_t dropped = 0;
  for (const auto& t : m.terminals) dropped += t.packets_dropped;
  EXPECT_EQ(dropped, 0u);
  EXPECT_DOUBLE_EQ(m.router_downtime[src_router], 50000.0);
}

TEST(FaultNetsim, SetFaultPlanRejectedAfterRun) {
  const auto topo = topo::Dragonfly::canonical(2);
  Network net(topo, routing::Algo::kMinimal, fault_test_params(), 1);
  net.add_message({0, 1, 512, 0.0, 0});
  (void)net.run();
  EXPECT_THROW(net.set_fault_plan(fault::FaultPlan::parse("router:g0.r0@0")),
               Error);
}

}  // namespace
}  // namespace dv::netsim
