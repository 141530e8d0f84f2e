// Network-simulator tests: flow conservation, credit accounting,
// saturation bookkeeping, determinism, backpressure, sampling, and the
// pinned content uids of a spread of packet runs.
#include <gtest/gtest.h>

#include <memory>

#include "fault/fault.hpp"
#include "metrics/dvr.hpp"
#include "netsim/network.hpp"
#include "obs/obs.hpp"
#include "workload/workload.hpp"
#include "slice_oracle.hpp"

namespace dv::netsim {
namespace {

topo::Dragonfly small() { return topo::Dragonfly::canonical(2); }  // 36 terms

Params fast_params() {
  Params p;
  p.packet_size = 512;
  p.event_budget = 50'000'000;
  return p;
}

class NetAllAlgos : public ::testing::TestWithParam<routing::Algo> {};

TEST_P(NetAllAlgos, FlowConservation) {
  const auto topo = small();
  Network net(topo, GetParam(), fast_params(), 1);
  Rng rng(1);
  std::uint64_t injected = 0;
  for (int i = 0; i < 300; ++i) {
    const auto src = static_cast<std::uint32_t>(rng.next_below(topo.num_terminals()));
    auto dst = src;
    while (dst == src) {
      dst = static_cast<std::uint32_t>(rng.next_below(topo.num_terminals()));
    }
    const std::uint64_t bytes = 100 + rng.next_below(5000);
    injected += bytes;
    net.add_message({src, dst, bytes, rng.next_double() * 10000.0, 0});
  }
  const auto m = net.run();
  // Every injected byte is delivered (checked internally too) and the
  // terminal data_size column accounts for all of it.
  EXPECT_DOUBLE_EQ(m.total_injected(), static_cast<double>(injected));
  EXPECT_EQ(net.packets_injected(), net.packets_delivered());
  EXPECT_GT(m.end_time, 0.0);
}

TEST_P(NetAllAlgos, HopAndLatencyAccounting) {
  const auto topo = small();
  Network net(topo, GetParam(), fast_params(), 2);
  // One packet between far terminals.
  const std::uint32_t src = 0, dst = topo.num_terminals() - 1;
  net.add_message({src, dst, 512, 0.0, 0});
  const auto m = net.run();
  const auto& t = m.terminals[dst];
  EXPECT_EQ(t.packets_finished, 1u);
  EXPECT_GT(t.avg_latency(), 0.0);
  EXPECT_GE(t.avg_hops(), 2.0);   // at least exit + entry routers
  EXPECT_LE(t.avg_hops(), 8.0);
  EXPECT_DOUBLE_EQ(m.terminals[src].data_size, 512.0);
}

TEST_P(NetAllAlgos, DeterministicAcrossRuns) {
  auto build = [] {
    const auto topo = small();
    auto net = std::make_unique<Network>(topo, routing::Algo::kAdaptive,
                                         fast_params(), 99);
    Rng rng(5);
    for (int i = 0; i < 200; ++i) {
      const auto src =
          static_cast<std::uint32_t>(rng.next_below(topo.num_terminals()));
      auto dst = src;
      while (dst == src) {
        dst = static_cast<std::uint32_t>(rng.next_below(topo.num_terminals()));
      }
      net->add_message({src, dst, 2048, rng.next_double() * 1000.0, 0});
    }
    return net;
  };
  const auto m1 = build()->run();
  const auto m2 = build()->run();
  EXPECT_DOUBLE_EQ(m1.end_time, m2.end_time);
  ASSERT_EQ(m1.local_links.size(), m2.local_links.size());
  for (std::size_t i = 0; i < m1.local_links.size(); ++i) {
    EXPECT_DOUBLE_EQ(m1.local_links[i].traffic, m2.local_links[i].traffic);
    EXPECT_DOUBLE_EQ(m1.local_links[i].sat_time, m2.local_links[i].sat_time);
  }
  for (std::size_t i = 0; i < m1.terminals.size(); ++i) {
    EXPECT_DOUBLE_EQ(m1.terminals[i].sum_latency, m2.terminals[i].sum_latency);
  }
}

INSTANTIATE_TEST_SUITE_P(Algos, NetAllAlgos,
                         ::testing::Values(routing::Algo::kMinimal,
                                           routing::Algo::kNonMinimal,
                                           routing::Algo::kAdaptive,
                                           routing::Algo::kProgressiveAdaptive));

TEST(Netsim, SingleHopLatencyMatchesAnalyticModel) {
  const auto topo = small();
  Params p = fast_params();
  Network net(topo, routing::Algo::kMinimal, p, 1);
  // Terminals 0 and 1 share router 0: path is inject -> router -> eject.
  net.add_message({0, 1, 512, 0.0, 0});
  const auto m = net.run();
  const double ser_t = 512.0 / p.terminal_bandwidth;
  const double expected = ser_t + p.terminal_latency + p.router_delay +
                          ser_t + p.terminal_latency;
  EXPECT_NEAR(m.terminals[1].avg_latency(), expected, 1e-6);
  EXPECT_DOUBLE_EQ(m.terminals[1].avg_hops(), 1.0);
}

TEST(Netsim, LinkTrafficMatchesPath) {
  const auto topo = small();
  Network net(topo, routing::Algo::kMinimal, fast_params(), 1);
  // Two terminals on different routers in the same group: one local link.
  const std::uint32_t src = 0;
  const std::uint32_t dst = topo.terminals_per_router();  // router 1, slot 0
  net.add_message({src, dst, 2000, 0.0, 0});
  const auto m = net.run();
  double local_bytes = 0;
  for (const auto& l : m.local_links) local_bytes += l.traffic;
  double global_bytes = 0;
  for (const auto& l : m.global_links) global_bytes += l.traffic;
  EXPECT_DOUBLE_EQ(local_bytes, 2000.0);
  EXPECT_DOUBLE_EQ(global_bytes, 0.0);
}

TEST(Netsim, CrossGroupUsesExactlyOneGlobalLink) {
  const auto topo = small();
  Network net(topo, routing::Algo::kMinimal, fast_params(), 1);
  const std::uint32_t per_group =
      topo.routers_per_group() * topo.terminals_per_router();
  net.add_message({0, per_group, 4096, 0.0, 0});  // group 0 -> group 1
  const auto m = net.run();
  double global_bytes = 0;
  int used_links = 0;
  for (const auto& l : m.global_links) {
    if (l.traffic > 0) {
      ++used_links;
      global_bytes += l.traffic;
    }
  }
  EXPECT_EQ(used_links, 1);
  EXPECT_DOUBLE_EQ(global_bytes, 4096.0);
}

TEST(Netsim, HotspotCausesEjectionSaturation) {
  const auto topo = small();
  Params p = fast_params();
  p.vc_buffer_packets = 2;
  Network net(topo, routing::Algo::kMinimal, p, 1);
  // Many senders to one victim terminal -> its ejection link saturates.
  const std::uint32_t victim = 1;
  for (std::uint32_t s = 2; s < 20; ++s) {
    net.add_message({s, victim, 64 * 1024, 0.0, 0});
  }
  const auto m = net.run();
  EXPECT_GT(m.terminals[victim].sat_time, 0.0)
      << "receiver terminal link should saturate";
}

TEST(Netsim, BackpressurePropagatesToLocalLinks) {
  const auto topo = small();
  Params p = fast_params();
  p.vc_buffer_packets = 2;
  Network net(topo, routing::Algo::kMinimal, p, 1);
  // Saturate one global link: all of group 0 sends to group 1 through the
  // single group 0 -> group 1 cable; feeder local links must saturate too.
  const std::uint32_t per_group =
      topo.routers_per_group() * topo.terminals_per_router();
  for (std::uint32_t s = 0; s < per_group; ++s) {
    net.add_message({s, per_group + s % per_group, 32 * 1024, 0.0, 0});
  }
  const auto m = net.run();
  double gsat = 0;
  for (const auto& l : m.global_links) gsat += l.sat_time;
  double lsat = 0;
  for (const auto& l : m.local_links) lsat += l.sat_time;
  EXPECT_GT(gsat, 0.0);
  EXPECT_GT(lsat, 0.0) << "back pressure should reach the local links";
}

TEST(Netsim, SamplingDeltasSumToTotals) {
  const auto topo = small();
  Network net(topo, routing::Algo::kAdaptive, fast_params(), 4);
  Rng rng(9);
  for (int i = 0; i < 150; ++i) {
    const auto src = static_cast<std::uint32_t>(rng.next_below(topo.num_terminals()));
    auto dst = src;
    while (dst == src) {
      dst = static_cast<std::uint32_t>(rng.next_below(topo.num_terminals()));
    }
    net.add_message({src, dst, 4096, rng.next_double() * 20000.0, 0});
  }
  net.enable_sampling(500.0);
  const auto m = net.run();
  ASSERT_TRUE(m.has_time_series());
  ASSERT_GT(m.local_traffic_ts.frames(), 2u);
  // Per-link: sum of sampled deltas equals the final cumulative value.
  for (std::size_t i = 0; i < m.local_links.size(); ++i) {
    const double summed = dv::testing::series_range_sum(
        m.local_traffic_ts, i, 0, m.local_traffic_ts.frames());
    EXPECT_NEAR(summed, m.local_links[i].traffic,
                1e-3 * std::max(1.0, m.local_links[i].traffic));
    const double sat_summed = dv::testing::series_range_sum(
        m.local_sat_ts, i, 0, m.local_sat_ts.frames());
    EXPECT_NEAR(sat_summed, m.local_links[i].sat_time,
                1e-3 * std::max(1.0, m.local_links[i].sat_time) + 0.5);
  }
  for (std::size_t i = 0; i < m.terminals.size(); ++i) {
    const double summed = dv::testing::series_range_sum(
        m.term_traffic_ts, i, 0, m.term_traffic_ts.frames());
    EXPECT_NEAR(summed, m.terminals[i].data_size,
                1e-3 * std::max(1.0, m.terminals[i].data_size));
  }
}

TEST(Netsim, JobLabelsPropagate) {
  const auto topo = small();
  const auto placement = placement::place_jobs(
      topo, {{"jobA", 6, placement::Policy::kContiguous},
             {"jobB", 6, placement::Policy::kRandomRouter}},
      3);
  Network net(topo, routing::Algo::kMinimal, fast_params(), 1);
  net.set_jobs(placement);
  net.set_labels("test", "hybrid", {"jobA", "jobB"});
  net.add_message({placement.terminals[0][0], placement.terminals[0][1],
                   512, 0.0, 0});
  const auto m = net.run();
  EXPECT_EQ(m.workload, "test");
  EXPECT_EQ(m.placement, "hybrid");
  EXPECT_EQ(m.job_names.size(), 2u);
  EXPECT_EQ(m.terminals[placement.terminals[0][0]].job, 0);
  EXPECT_EQ(m.terminals[placement.terminals[1][0]].job, 1);
  int idle = 0;
  for (const auto& t : m.terminals) idle += (t.job == -1);
  EXPECT_EQ(idle, static_cast<int>(topo.num_terminals()) - 12);
}

TEST(Netsim, RejectsBadMessages) {
  const auto topo = small();
  Network net(topo, routing::Algo::kMinimal, fast_params(), 1);
  EXPECT_THROW(net.add_message({0, 0, 100, 0.0, 0}), Error);      // self
  EXPECT_THROW(net.add_message({0, 99999, 100, 0.0, 0}), Error);  // range
  EXPECT_THROW(net.add_message({0, 1, 0, 0.0, 0}), Error);        // empty
  EXPECT_THROW(net.add_message({0, 1, 10, -1.0, 0}), Error);      // time
}

TEST(Netsim, RunTwiceThrows) {
  Network net(small(), routing::Algo::kMinimal, fast_params(), 1);
  net.add_message({0, 1, 100, 0.0, 0});
  (void)net.run();
  EXPECT_THROW(net.run(), Error);
}

TEST(Netsim, ParamsValidate) {
  Params p;
  p.packet_size = 0;
  EXPECT_THROW(Network(small(), routing::Algo::kMinimal, p, 1), Error);
  Params q;
  q.local_bandwidth = -1;
  EXPECT_THROW(Network(small(), routing::Algo::kMinimal, q, 1), Error);
  // Zero latencies are rejected: they break saturation accounting and
  // would collapse the scheduler's bucket width to nothing.
  Params r;
  r.credit_latency = 0.0;
  EXPECT_THROW(Network(small(), routing::Algo::kMinimal, r, 1), Error);
  Params s;
  s.local_latency = 0.0;
  EXPECT_THROW(Network(small(), routing::Algo::kMinimal, s, 1), Error);
  Params t;
  t.global_latency = -5.0;
  EXPECT_THROW(Network(small(), routing::Algo::kMinimal, t, 1), Error);
  Params u;
  u.router_delay = -1.0;
  EXPECT_THROW(Network(small(), routing::Algo::kMinimal, u, 1), Error);
}

TEST(Netsim, LookaheadIsTheMinimumLinkOrCreditDelay) {
  Params p = fast_params();
  p.credit_latency = 20.0;
  p.local_latency = 50.0;
  p.global_latency = 300.0;
  Network net(small(), routing::Algo::kMinimal, p, 1);
  EXPECT_DOUBLE_EQ(net.lookahead(), 20.0);
  p.credit_latency = 400.0;
  Network wide(small(), routing::Algo::kMinimal, p, 1);
  EXPECT_DOUBLE_EQ(wide.lookahead(), 50.0);
}

TEST(Netsim, SetParallelAcceptsOnlyTheSequentialEngine) {
  Network net(small(), routing::Algo::kMinimal, fast_params(), 1);
  net.set_parallel(0);
  net.set_parallel(1);
  EXPECT_THROW(net.set_parallel(2), Error);
}

TEST(Netsim, ValiantDoublesGlobalTraffic) {
  // Paper (Sec. V-B): routing non-minimally through proxy groups "doubles
  // bandwidth of the global links". Cross-group uniform traffic takes one
  // global hop minimally and two via a Valiant proxy.
  const auto topo = topo::Dragonfly::canonical(3);
  auto run_with = [&](routing::Algo algo) {
    Network net(topo, algo, fast_params(), 3);
    Rng rng(4);
    for (int i = 0; i < 400; ++i) {
      const auto src =
          static_cast<std::uint32_t>(rng.next_below(topo.num_terminals()));
      auto dst = src;
      while (dst == src ||
             topo.terminal_group(dst) == topo.terminal_group(src)) {
        dst = static_cast<std::uint32_t>(rng.next_below(topo.num_terminals()));
      }
      net.add_message({src, dst, 2048, rng.next_double() * 50000.0, 0});
    }
    return net.run();
  };
  const auto mmin = run_with(routing::Algo::kMinimal);
  const auto mval = run_with(routing::Algo::kNonMinimal);
  const double gmin = mmin.total_global_traffic();
  const double gval = mval.total_global_traffic();
  EXPECT_NEAR(gval / gmin, 2.0, 0.15);
}

TEST(Netsim, ContentionAtTheLinkItselfCountsAsSaturation) {
  // Several flows share one local link while every downstream ejection
  // port is distinct (no downstream blocking): the saturation must come
  // from the output backlog at the link itself.
  const auto topo = small();
  Params p = fast_params();
  p.vc_buffer_packets = 2;
  Network net(topo, routing::Algo::kMinimal, p, 1);
  // All terminals of router 0 flood distinct terminals of router 1.
  const std::uint32_t per = topo.terminals_per_router();
  for (std::uint32_t s = 0; s < per; ++s) {
    net.add_message({s, per + s, 256 * 1024, 0.0, 0});
  }
  const auto m = net.run();
  const std::uint32_t lport = topo.local_port(0, 1) - per;
  const std::uint32_t lid = topo.local_link_id(0, lport);
  EXPECT_GT(m.local_links[lid].traffic, 0.0);
  EXPECT_GT(m.local_links[lid].sat_time, 0.0)
      << "shared-link contention must register as saturation";
  // And the saturation is specific to that link.
  for (std::uint32_t l = 0; l < m.local_links.size(); ++l) {
    if (l != lid) {
      EXPECT_DOUBLE_EQ(m.local_links[l].sat_time, 0.0);
    }
  }
}

TEST(Netsim, AdaptiveSpreadsTrafficVsMinimal) {
  // The paper's central qualitative claim (Figs. 8/9): adaptive routing
  // raises link usage spread and lowers saturation under adversarial
  // traffic. Group 0 floods group 1 (worst case for minimal).
  const auto topo = topo::Dragonfly::canonical(3);
  const std::uint32_t per_group =
      topo.routers_per_group() * topo.terminals_per_router();
  auto flood = [&](routing::Algo algo) {
    Params p = fast_params();
    p.vc_buffer_packets = 4;
    Network net(topo, algo, p, 7);
    for (std::uint32_t s = 0; s < per_group; ++s) {
      for (int k = 0; k < 4; ++k) {
        net.add_message(
            {s, per_group + (s + 7 * k) % per_group, 8192, k * 100.0, 0});
      }
    }
    return net.run();
  };
  const auto mmin = flood(routing::Algo::kMinimal);
  const auto madp = flood(routing::Algo::kAdaptive);

  int used_min = 0, used_adp = 0;
  double peak_sat_min = 0, peak_sat_adp = 0;
  for (const auto& l : mmin.global_links) {
    used_min += l.traffic > 0;
    peak_sat_min = std::max(peak_sat_min, l.sat_time);
  }
  for (const auto& l : madp.global_links) {
    used_adp += l.traffic > 0;
    peak_sat_adp = std::max(peak_sat_adp, l.sat_time);
  }
  EXPECT_GT(used_adp, used_min) << "adaptive should use more global links";
  EXPECT_LT(peak_sat_adp, peak_sat_min)
      << "adaptive should relieve the congestion hotspot";
  EXPECT_LT(madp.end_time, mmin.end_time)
      << "adaptive should finish the adversarial workload sooner";
}

TEST(Netsim, MessageStartsStreamThroughThePendingSet) {
  if (!obs::kEnabled) GTEST_SKIP() << "built with DV_OBS_ENABLED=OFF";
  // 5,000 small messages spread over 5 ms: few are in flight at once, so
  // the pending-event set stays small unless every start is queued ahead.
  const auto topo = small();
  Network net(topo, routing::Algo::kMinimal, fast_params(), 3);
  Rng rng(31);
  for (int i = 0; i < 5000; ++i) {
    const auto src =
        static_cast<std::uint32_t>(rng.next_below(topo.num_terminals()));
    auto dst = src;
    while (dst == src) {
      dst = static_cast<std::uint32_t>(rng.next_below(topo.num_terminals()));
    }
    net.add_message({src, dst, 64 + rng.next_below(512),
                     rng.next_double() * 5e6, 0});
  }
  net.run();
  EXPECT_EQ(net.packets_injected(), net.packets_delivered());
  EXPECT_GT(net.queue_high_water(), 0u);
  EXPECT_LT(net.queue_high_water(), 250u);
}

// ---- pinned content uids ---------------------------------------------
// metrics::run_content_uid of packet runs covering every dragonfly
// routing algorithm at three scales (sampled and unsampled), structured
// workloads, fault plans with real drops, a fat tree under incast, and
// message starts that tie on time and are added out of time order.
// All but the tied-starts row were recorded before the partitioned
// parallel engine was removed, so they also pin what that engine's
// equivalence suites compared against. Anything that moves event order, a routing draw or a
// counter moves one of them.

/// Random + hotspot load touching every group (many senders into
/// terminal 0 force backpressure).
std::unique_ptr<Network> soup_net(std::uint32_t dragonfly_p,
                                  routing::Algo algo, double sample_dt) {
  const auto topo = topo::Dragonfly::canonical(dragonfly_p);
  auto net = std::make_unique<Network>(topo, algo, fast_params(), 42);
  Rng rng(7);
  for (int i = 0; i < 400; ++i) {
    const auto src =
        static_cast<std::uint32_t>(rng.next_below(topo.num_terminals()));
    auto dst = src;
    while (dst == src) {
      dst = static_cast<std::uint32_t>(rng.next_below(topo.num_terminals()));
    }
    const std::uint64_t bytes = 100 + rng.next_below(4000);
    net->add_message({src, dst, bytes, rng.next_double() * 20000.0, 0});
  }
  for (std::uint32_t t = 1; t < std::min(10u, topo.num_terminals()); ++t) {
    net->add_message({t, 0, 4096, 100.0 * t, 1});
  }
  if (sample_dt > 0.0) net->enable_sampling(sample_dt);
  return net;
}

/// DF(2) adaptive under a generated workload; "faulted" is uniform_random
/// with a transient cable and a transient router outage.
std::unique_ptr<Network> workload_net(const std::string& name) {
  const auto topo = topo::Dragonfly::canonical(2);
  const bool faulted = name == "faulted";
  workload::Config cfg;
  cfg.ranks = topo.num_terminals();
  cfg.total_bytes = 256 * 1024;
  cfg.window = 40000.0;
  cfg.seed = 11;
  cfg.msg_bytes = 2048;
  auto net = std::make_unique<Network>(topo, routing::Algo::kAdaptive,
                                       fast_params(), 42);
  for (const auto& m :
       workload::generate(faulted ? "uniform_random" : name, cfg)) {
    if (m.src_rank == m.dst_rank) continue;
    net->add_message({m.src_rank, m.dst_rank, m.bytes, m.time, 0});
  }
  if (faulted) {
    net->set_fault_plan(fault::FaultPlan::parse(
        "link:g0->g1@5000:40000\n"
        "router:g1.r1@10000:60000\n"));
  }
  return net;
}

/// Uniform-random soup under a mixed plan whose last router never
/// recovers, so packets exhaust their retry budget and drop.
std::unique_ptr<Network> fault_plan_net(std::uint32_t dragonfly_p,
                                        routing::Algo algo) {
  const auto topo = topo::Dragonfly::canonical(dragonfly_p);
  auto net = std::make_unique<Network>(topo, algo, fast_params(), 11);
  Rng rng(42);
  for (int i = 0; i < 400; ++i) {
    const auto src =
        static_cast<std::uint32_t>(rng.next_below(topo.num_terminals()));
    auto dst = src;
    while (dst == src) {
      dst = static_cast<std::uint32_t>(rng.next_below(topo.num_terminals()));
    }
    net->add_message({src, dst, 100 + rng.next_below(4000),
                      rng.next_double() * 20000.0, 0});
  }
  net->set_fault_plan(fault::FaultPlan::parse(
      "link:g0->g1@5000:40000\n"
      "router:g2.r1@10000:60000\n"
      "router:g3.r0@20000\n"));
  return net;
}

/// FatTree(8) (128 hosts) with random traffic, an incast and sampling.
std::unique_ptr<Network> fat_tree_net() {
  Params p = fast_params();
  p.local_latency = 100.0;
  p.global_latency = 100.0;
  p.global_bandwidth = p.local_bandwidth;
  auto net = std::make_unique<Network>(topo::FatTree(8), p, 4);
  const std::uint32_t hosts = net->fabric().num_terminals();
  Rng rng(13);
  for (int i = 0; i < 600; ++i) {
    const auto src = static_cast<std::uint32_t>(rng.next_below(hosts));
    auto dst = src;
    while (dst == src) dst = static_cast<std::uint32_t>(rng.next_below(hosts));
    const std::uint64_t bytes = 256 + rng.next_below(8192);
    net->add_message({src, dst, bytes, rng.next_double() * 20000.0, 0});
  }
  for (std::uint32_t s = 1; s < 40; s += 3) {
    net->add_message({s, 0, 8192, 50.0 * s, 0});
  }
  net->enable_sampling(5000.0);
  return net;
}

/// DF(2) adaptive, sampled: 2,000 messages on 20 distinct timestamps,
/// added latest first, so message starts tie on time and arrive out of
/// time order.
std::unique_ptr<Network> tied_starts_net() {
  const auto topo = topo::Dragonfly::canonical(2);
  auto net = std::make_unique<Network>(topo, routing::Algo::kAdaptive,
                                       fast_params(), 5);
  Rng rng(23);
  for (int step = 19; step >= 0; --step) {
    for (int i = 0; i < 100; ++i) {
      const auto src =
          static_cast<std::uint32_t>(rng.next_below(topo.num_terminals()));
      auto dst = src;
      while (dst == src) {
        dst = static_cast<std::uint32_t>(rng.next_below(topo.num_terminals()));
      }
      net->add_message({src, dst, 100 + rng.next_below(2000), 1000.0 * step,
                        0});
    }
  }
  net->enable_sampling(1000.0);
  return net;
}

TEST(Netsim, ContentUidsArePinned) {
  using routing::Algo;
  struct SoupPin {
    std::uint32_t p;
    Algo algo;
    double sample_dt;
    std::uint64_t uid;
  };
  const SoupPin soup[] = {
      {2, Algo::kMinimal, 0.0, 4198761417191199560ull},
      {2, Algo::kNonMinimal, 0.0, 11850313227797289842ull},
      {2, Algo::kAdaptive, 0.0, 5158994334554673135ull},
      {2, Algo::kProgressiveAdaptive, 0.0, 3944353986324186599ull},
      {2, Algo::kMinimal, 500.0, 12254048373135282575ull},
      {2, Algo::kNonMinimal, 500.0, 3666186701443422712ull},
      {2, Algo::kAdaptive, 500.0, 7213752577718429858ull},
      {2, Algo::kProgressiveAdaptive, 500.0, 17253656001217522743ull},
      {3, Algo::kMinimal, 0.0, 1641025928518285409ull},
      {3, Algo::kNonMinimal, 0.0, 17403478070236886551ull},
      {3, Algo::kAdaptive, 0.0, 16499934623560423418ull},
      {3, Algo::kProgressiveAdaptive, 0.0, 15719013655495548424ull},
      {3, Algo::kMinimal, 1000.0, 3056053410940188244ull},
      {3, Algo::kNonMinimal, 1000.0, 17486890882119187832ull},
      {3, Algo::kAdaptive, 1000.0, 337649577482942728ull},
      {3, Algo::kProgressiveAdaptive, 1000.0, 4307148846454621269ull},
      {4, Algo::kMinimal, 0.0, 6440597986526574143ull},
      {4, Algo::kNonMinimal, 0.0, 11184483213456864212ull},
      {4, Algo::kAdaptive, 0.0, 5619134599537186125ull},
      {4, Algo::kProgressiveAdaptive, 0.0, 324633546643465928ull},
      {4, Algo::kMinimal, 1000.0, 12083443762223921951ull},
      {4, Algo::kNonMinimal, 1000.0, 5514555170803757744ull},
      {4, Algo::kAdaptive, 1000.0, 7108682195407805072ull},
      {4, Algo::kProgressiveAdaptive, 1000.0, 15602161564006952463ull},
  };
  for (const SoupPin& c : soup) {
    auto net = soup_net(c.p, c.algo, c.sample_dt);
    const auto m = net->run();
    EXPECT_EQ(net->packets_injected(), net->packets_delivered());
    EXPECT_EQ(metrics::run_content_uid(m), c.uid)
        << "DF(" << c.p << ") " << routing::to_string(c.algo)
        << " sample_dt=" << c.sample_dt;
  }

  struct NamedPin {
    const char* name;
    std::uint64_t uid;
  };
  const NamedPin workloads[] = {
      {"uniform_random", 11032618878183720290ull},
      {"transpose", 17070001370663773262ull},
      {"amg", 9545770927593348545ull},
      {"faulted", 7444599300723708721ull},
  };
  for (const NamedPin& c : workloads) {
    EXPECT_EQ(metrics::run_content_uid(workload_net(c.name)->run()), c.uid)
        << c.name;
  }

  struct FaultPin {
    std::uint32_t p;
    Algo algo;
    std::uint64_t uid;
  };
  const FaultPin faults[] = {
      {2, Algo::kMinimal, 14012782239382952462ull},
      {2, Algo::kNonMinimal, 4748927661727935552ull},
      {2, Algo::kAdaptive, 9595592451934691059ull},
      {2, Algo::kProgressiveAdaptive, 18395029401033345490ull},
      {3, Algo::kAdaptive, 230934447723564104ull},
      {3, Algo::kMinimal, 13960401172148624604ull},
  };
  for (const FaultPin& c : faults) {
    EXPECT_EQ(metrics::run_content_uid(fault_plan_net(c.p, c.algo)->run()),
              c.uid)
        << "faulted DF(" << c.p << ") " << routing::to_string(c.algo);
  }

  EXPECT_EQ(metrics::run_content_uid(fat_tree_net()->run()),
            1259147854913097198ull)
      << "fat tree";
  EXPECT_EQ(metrics::run_content_uid(tied_starts_net()->run()),
            2418387448937293960ull)
      << "tied descending starts";
}

}  // namespace
}  // namespace dv::netsim
