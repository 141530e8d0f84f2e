// Flow-backend unit tests: the max-min water-filling solver on
// hand-computable fixtures, convergence properties on randomized inputs,
// and FlowNetwork end-to-end invariants (conservation, determinism,
// sampling consistency).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "app/runner.hpp"
#include "flow/flow.hpp"
#include "metrics/dvr.hpp"
#include "util/rng.hpp"

namespace dv::flow {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

SolverFlow make_flow(std::vector<std::uint32_t> links, double cap = kInf) {
  SolverFlow f;
  f.links = std::move(links);
  f.rate_cap = cap;
  return f;
}

TEST(FlowSolver, BottleneckSharedEqually) {
  // Two flows over one link of capacity 10: max-min gives 5 each.
  const auto res = water_fill({10.0}, {make_flow({0}), make_flow({0})});
  ASSERT_EQ(res.rates.size(), 2u);
  EXPECT_DOUBLE_EQ(res.rates[0], 5.0);
  EXPECT_DOUBLE_EQ(res.rates[1], 5.0);
  EXPECT_DOUBLE_EQ(res.link_load[0], 10.0);
}

TEST(FlowSolver, UnequalPathLengths) {
  // f0 crosses only link 0 (cap 10); f1 crosses links 0 and 1 (cap 4).
  // Progressive filling: both rise to 4 (link 1 exhausts, freezing f1),
  // then f0 alone takes link 0's remaining headroom: 10 - 8 = 2 -> 6.
  const auto res =
      water_fill({10.0, 4.0}, {make_flow({0}), make_flow({0, 1})});
  EXPECT_DOUBLE_EQ(res.rates[0], 6.0);
  EXPECT_DOUBLE_EQ(res.rates[1], 4.0);
  EXPECT_DOUBLE_EQ(res.link_load[0], 10.0);
  EXPECT_DOUBLE_EQ(res.link_load[1], 4.0);
}

TEST(FlowSolver, SaturatedLinkFixpoint) {
  // Classic 2-link chain: caps {1, 2}; f0 on link 0, f1 on both, f2 on
  // link 1. Link 0 exhausts first at rate 1/2 (freezing f0 and f1), then
  // f2 fills link 1 to capacity: 2 - 1/2 = 3/2.
  const auto res = water_fill(
      {1.0, 2.0}, {make_flow({0}), make_flow({0, 1}), make_flow({1})});
  EXPECT_DOUBLE_EQ(res.rates[0], 0.5);
  EXPECT_DOUBLE_EQ(res.rates[1], 0.5);
  EXPECT_DOUBLE_EQ(res.rates[2], 1.5);
  EXPECT_DOUBLE_EQ(res.link_load[0], 1.0);
  EXPECT_DOUBLE_EQ(res.link_load[1], 2.0);
}

TEST(FlowSolver, ZeroDemandFlowsStayAtZero) {
  // A zero-cap flow must not consume capacity or stall the round loop.
  const auto res = water_fill(
      {8.0}, {make_flow({0}, 0.0), make_flow({0}), make_flow({0})});
  EXPECT_DOUBLE_EQ(res.rates[0], 0.0);
  EXPECT_DOUBLE_EQ(res.rates[1], 4.0);
  EXPECT_DOUBLE_EQ(res.rates[2], 4.0);
}

TEST(FlowSolver, RateCapsFreezeBeforeTheLink) {
  // f0 capped at 2 frees its share for f1: 2 + 8 = 10.
  const auto res =
      water_fill({10.0}, {make_flow({0}, 2.0), make_flow({0})});
  EXPECT_DOUBLE_EQ(res.rates[0], 2.0);
  EXPECT_DOUBLE_EQ(res.rates[1], 8.0);
}

TEST(FlowSolver, LinklessCappedFlowRunsAtItsCap) {
  const auto res = water_fill({5.0}, {make_flow({}, 3.0), make_flow({0})});
  EXPECT_DOUBLE_EQ(res.rates[0], 3.0);
  EXPECT_DOUBLE_EQ(res.rates[1], 5.0);
}

TEST(FlowSolver, EdgeCasesAndValidation) {
  // No flows: empty allocation, zero loads.
  const auto empty = water_fill({1.0, 2.0}, {});
  EXPECT_TRUE(empty.rates.empty());
  EXPECT_DOUBLE_EQ(empty.link_load[0], 0.0);
  // A flow with no links and no cap has no finite max-min rate.
  EXPECT_THROW(water_fill({1.0}, {make_flow({})}), Error);
  // Out-of-range link index and negative cap are rejected.
  EXPECT_THROW(water_fill({1.0}, {make_flow({7})}), Error);
  EXPECT_THROW(water_fill({1.0}, {make_flow({0}, -1.0)}), Error);
}

TEST(FlowSolver, RepeatedLinksCountTwice) {
  // A flow listed twice on one link consumes double share there — the
  // solver must stay consistent (load counts every crossing).
  const auto res = water_fill({6.0}, {make_flow({0, 0}), make_flow({0})});
  // Uniform filling: increment limited by 6 / 3 crossings = 2.
  EXPECT_DOUBLE_EQ(res.rates[0], 2.0);
  EXPECT_DOUBLE_EQ(res.rates[1], 2.0);
  EXPECT_DOUBLE_EQ(res.link_load[0], 6.0);
}

/// Max-min certificate on randomized inputs: feasibility (no link above
/// capacity) and saturation (every flow is at its cap or crosses at least
/// one saturated link), plus the round bound that guarantees termination.
TEST(FlowSolver, RandomizedMaxMinCertificate) {
  Rng rng(2024, 7);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t nl = 1 + rng.next_below(12);
    const std::size_t nf = 1 + rng.next_below(24);
    std::vector<double> caps(nl);
    for (auto& c : caps) c = 0.5 + rng.next_double() * 20.0;
    std::vector<SolverFlow> flows(nf);
    for (auto& f : flows) {
      const std::size_t degree = 1 + rng.next_below(std::min<std::size_t>(nl, 4));
      for (std::size_t k = 0; k < degree; ++k) {
        f.links.push_back(static_cast<std::uint32_t>(rng.next_below(nl)));
      }
      if (rng.next_bool(0.3)) f.rate_cap = rng.next_double() * 5.0;
    }

    const auto res = water_fill(caps, flows);
    ASSERT_EQ(res.rates.size(), nf);
    EXPECT_LE(res.rounds, nf + nl + 1);

    for (std::size_t l = 0; l < nl; ++l) {
      EXPECT_LE(res.link_load[l], caps[l] * (1.0 + 1e-9)) << "trial " << trial;
    }
    for (std::size_t f = 0; f < nf; ++f) {
      EXPECT_GE(res.rates[f], 0.0);
      const bool at_cap =
          std::isfinite(flows[f].rate_cap) &&
          res.rates[f] >= flows[f].rate_cap * (1.0 - 1e-9) - 1e-12;
      bool on_saturated = false;
      for (const std::uint32_t l : flows[f].links) {
        if (res.link_load[l] >= caps[l] * (1.0 - 1e-6)) on_saturated = true;
      }
      EXPECT_TRUE(at_cap || on_saturated)
          << "trial " << trial << " flow " << f << " rate " << res.rates[f]
          << " is neither capped nor bottlenecked";
    }
  }
}

// ------------------------------------------------- incremental re-solve

TEST(FlowSolver, IncrementalRemovalExactOnDyadicCascade) {
  // All-dyadic fixture, so the incremental path must land bit-for-bit on
  // the fresh solve. Links: 0 (cap 1/2), 1 (cap 3/2), 2 (cap 3).
  // Flows: h={0,2}, x={1}, g={1,2}, f={2}.
  // Full solve: link 0 freezes h at 1/2; link 1 freezes x,g at 3/4; f
  // takes link 2's remainder: 3 - 1/2 - 3/4 = 7/4.
  std::vector<double> caps{0.5, 1.5, 3.0};
  std::vector<SolverFlow> flows{make_flow({0, 2}), make_flow({1}),
                                make_flow({1, 2}), make_flow({2})};
  auto state = water_fill(caps, flows);
  EXPECT_EQ(state.rates[0], 0.5);
  EXPECT_EQ(state.rates[1], 0.75);
  EXPECT_EQ(state.rates[2], 0.75);
  EXPECT_EQ(state.rates[3], 1.75);

  // Remove x. The seed set is {g} (the only survivor on link 1); its
  // restricted pass lands at 3/4 (link 2 headroom), which *lowers* the
  // water level of saturated link 2 below f's frozen 7/4 — f must be
  // released and pushed down. Fixpoint: g = f = 5/4 (not monotone!).
  // cascade_frac = 1.0: the cascade (2 of 3 survivors) is the point here,
  // not the sparseness bail.
  const auto inc = water_fill_removed(caps, flows, {1}, state, 1.0);
  EXPECT_FALSE(inc.full_solve);
  EXPECT_EQ(inc.released, 2u);
  EXPECT_EQ(state.rates[0], 0.5);
  EXPECT_EQ(state.rates[1], 0.0);  // removed rates are zeroed
  EXPECT_EQ(state.rates[2], 1.25);
  EXPECT_EQ(state.rates[3], 1.25);
  EXPECT_EQ(state.link_load[0], 0.5);
  EXPECT_EQ(state.link_load[1], 1.25);
  EXPECT_EQ(state.link_load[2], 3.0);

  // The surviving allocation is bitwise the fresh solve's.
  flows[1].rate_cap = 0.0;
  const auto ref = water_fill(caps, flows);
  for (std::size_t f = 0; f < flows.size(); ++f) {
    EXPECT_EQ(state.rates[f], ref.rates[f]) << "flow " << f;
  }
}

TEST(FlowSolver, IncrementalRemovalOfIsolatedFlowTouchesNothing) {
  // The removed flow shares no link with any survivor: the seed set is
  // empty, nothing re-solves, and the frozen rates stay bitwise put.
  std::vector<double> caps{2.0, 7.0};
  std::vector<SolverFlow> flows{make_flow({0}), make_flow({1}),
                                make_flow({1})};
  auto state = water_fill(caps, flows);
  const double keep1 = state.rates[1], keep2 = state.rates[2];

  const auto inc = water_fill_removed(caps, flows, {0}, state);
  EXPECT_FALSE(inc.full_solve);
  EXPECT_EQ(inc.released, 0u);
  EXPECT_EQ(state.rates[0], 0.0);
  EXPECT_EQ(state.rates[1], keep1);
  EXPECT_EQ(state.rates[2], keep2);
  EXPECT_EQ(state.link_load[0], 0.0);
  EXPECT_EQ(state.link_load[1], 7.0);
}

TEST(FlowSolver, IncrementalRemovalBailsWhenTheCascadeIsWide) {
  // Ten equal flows on one link: removing one perturbs every survivor, so
  // the restricted re-solve would touch the whole problem. The function
  // must report full_solve instead of pretending the update was sparse.
  std::vector<double> caps{10.0};
  std::vector<SolverFlow> flows(10, make_flow({0}));
  auto state = water_fill(caps, flows);
  EXPECT_DOUBLE_EQ(state.rates[0], 1.0);

  const auto inc = water_fill_removed(caps, flows, {0}, state);
  EXPECT_TRUE(inc.full_solve);

  // The caller's contract: mark removed flows absent and full-solve.
  flows[0].rate_cap = 0.0;
  state = water_fill(caps, flows);
  EXPECT_DOUBLE_EQ(state.rates[0], 0.0);
  EXPECT_DOUBLE_EQ(state.rates[5], 10.0 / 9.0);
}

/// The property the event engine's drain batching leans on: across any
/// sequence of completion-driven shrinks, a successful incremental
/// re-solve equals a from-scratch water_fill over the survivors (and the
/// wide-cascade bail is exercised often enough to trust the fallback).
TEST(FlowSolver, IncrementalMatchesFullAcrossRandomShrinkSequences) {
  Rng rng(4096, 21);
  int incremental_successes = 0, full_bails = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const std::size_t nl = 2 + rng.next_below(10);
    const std::size_t nf = 4 + rng.next_below(20);
    std::vector<double> caps(nl);
    for (auto& c : caps) c = 0.5 + rng.next_double() * 20.0;
    std::vector<SolverFlow> flows(nf);
    for (auto& f : flows) {
      const std::size_t degree =
          1 + rng.next_below(std::min<std::size_t>(nl, 4));
      for (std::size_t k = 0; k < degree; ++k) {
        f.links.push_back(static_cast<std::uint32_t>(rng.next_below(nl)));
      }
      if (rng.next_bool(0.3)) f.rate_cap = 0.1 + rng.next_double() * 5.0;
    }

    auto state = water_fill(caps, flows);
    std::vector<std::uint32_t> alive(nf);
    std::iota(alive.begin(), alive.end(), 0u);
    while (alive.size() > 1) {
      // Completions arrive in small batches: remove 1..|alive|/4 flows.
      const std::size_t nrem =
          1 + rng.next_below(std::max<std::size_t>(1, alive.size() / 4));
      for (std::size_t k = 0; k < nrem; ++k) {  // partial Fisher-Yates
        std::swap(alive[k], alive[k + rng.next_below(alive.size() - k)]);
      }
      std::vector<std::uint32_t> removed(alive.begin(), alive.begin() + nrem);
      std::sort(removed.begin(), removed.end());

      const auto inc = water_fill_removed(caps, flows, removed, state);
      for (const std::uint32_t id : removed) flows[id].rate_cap = 0.0;
      alive.erase(alive.begin(), alive.begin() + nrem);

      const auto ref = water_fill(caps, flows);
      if (inc.full_solve) {
        ++full_bails;
        state = ref;
        continue;
      }
      ++incremental_successes;
      ASSERT_EQ(state.rates.size(), ref.rates.size());
      for (std::size_t f = 0; f < nf; ++f) {
        EXPECT_NEAR(state.rates[f], ref.rates[f],
                    1e-9 * (1.0 + std::abs(ref.rates[f])))
            << "trial " << trial << " flow " << f;
      }
      for (std::size_t l = 0; l < nl; ++l) {
        EXPECT_NEAR(state.link_load[l], ref.link_load[l],
                    1e-9 * (1.0 + caps[l]))
            << "trial " << trial << " link " << l;
        // Feasibility holds on the incremental state itself.
        EXPECT_LE(state.link_load[l], caps[l] * (1.0 + 1e-9));
      }
    }
  }
  // Both paths must actually run, or the suite proves nothing.
  EXPECT_GT(incremental_successes, 50);
  EXPECT_GT(full_bails, 10);
}

// ---------------------------------------------------------- FlowNetwork

netsim::Message msg(std::uint32_t src, std::uint32_t dst,
                    std::uint64_t bytes, double t, std::int32_t job = -1) {
  return netsim::Message{src, dst, bytes, t, job};
}

TEST(FlowNetwork, DrainsEverythingAndConservesBytes) {
  const auto topo = topo::Dragonfly::canonical(2);
  FlowNetwork net(topo, routing::Algo::kMinimal);
  net.add_messages({msg(0, 9, 64 * 1024, 0.0), msg(3, 40, 128 * 1024, 500.0),
                    msg(40, 3, 32 * 1024, 1000.0)});
  const auto run = net.run();

  EXPECT_GT(run.end_time, 0.0);
  EXPECT_DOUBLE_EQ(run.total_injected(), 64.0 * 1024 + 128 * 1024 + 32 * 1024);
  // Each message arrives as ceil(bytes / packet_size) packets.
  const std::uint64_t expect_pkts = (64 * 1024 + 2047) / 2048 +
                                    (128 * 1024 + 2047) / 2048 +
                                    (32 * 1024 + 2047) / 2048;
  EXPECT_EQ(run.total_packets_finished(), expect_pkts);
  // Latency can never undercut the fixed path latency.
  for (const auto& t : run.terminals) {
    if (t.packets_finished) {
      EXPECT_GT(t.avg_latency(), 0.0);
    }
  }
  EXPECT_GT(net.epochs(), 0u);
  EXPECT_EQ(net.bundles(), 3u);
}

TEST(FlowNetwork, EmptyRunIsValid) {
  const auto topo = topo::Dragonfly::canonical(2);
  FlowNetwork net(topo, routing::Algo::kMinimal);
  const auto run = net.run();
  EXPECT_DOUBLE_EQ(run.total_injected(), 0.0);
  EXPECT_EQ(run.total_packets_finished(), 0u);
  EXPECT_EQ(run.local_links.size(),
            static_cast<std::size_t>(topo.num_local_links()));
  EXPECT_EQ(run.global_links.size(),
            static_cast<std::size_t>(topo.num_global_links()));
}

TEST(FlowNetwork, RunIsDeterministic) {
  const auto topo = topo::Dragonfly::canonical(2);
  std::vector<netsim::Message> ms;
  Rng rng(11, 3);
  for (int i = 0; i < 64; ++i) {
    const auto s = static_cast<std::uint32_t>(rng.next_below(topo.num_terminals()));
    auto d = s;
    while (d == s) {
      d = static_cast<std::uint32_t>(rng.next_below(topo.num_terminals()));
    }
    ms.push_back(msg(s, d, 4096 + 512 * i, rng.next_double() * 1e5));
  }
  auto run_once = [&] {
    FlowNetwork net(topo, routing::Algo::kAdaptive, {}, 42);
    net.add_messages(ms);
    net.enable_sampling(1000.0);
    return net.run();
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(metrics::run_content_uid(a), metrics::run_content_uid(b));
}

TEST(FlowNetwork, SampledFramesSumToCumulativeTotals) {
  const auto topo = topo::Dragonfly::canonical(2);
  FlowNetwork net(topo, routing::Algo::kNonMinimal, {}, 7);
  std::vector<netsim::Message> ms;
  for (std::uint32_t t = 0; t < 32; ++t) {
    ms.push_back(msg(t, (t + 17) % topo.num_terminals(), 16 * 1024,
                     250.0 * t));
  }
  net.add_messages(ms);
  net.enable_sampling(500.0);
  const auto run = net.run();

  ASSERT_TRUE(run.has_time_series());
  ASSERT_GT(run.local_traffic_ts.frames(), 0u);
  // Frames are per-epoch deltas: summed over time they must reproduce the
  // cumulative per-class totals (float accumulation tolerance).
  auto series_total = [](const metrics::SampledSeries& s) {
    double sum = 0.0;
    for (std::size_t f = 0; f < s.frames(); ++f) sum += s.frame_total(f);
    return sum;
  };
  EXPECT_NEAR(series_total(run.local_traffic_ts), run.total_local_traffic(),
              run.total_local_traffic() * 1e-4 + 1.0);
  EXPECT_NEAR(series_total(run.global_traffic_ts), run.total_global_traffic(),
              run.total_global_traffic() * 1e-4 + 1.0);
  EXPECT_NEAR(series_total(run.term_traffic_ts), run.total_terminal_traffic(),
              run.total_terminal_traffic() * 1e-4 + 1.0);
  // The sampled span covers the whole run.
  EXPECT_GE(static_cast<double>(run.local_traffic_ts.frames()) *
                run.sample_dt,
            run.end_time - run.sample_dt);
}

TEST(FlowNetwork, ValidatesInputs) {
  const auto topo = topo::Dragonfly::canonical(2);
  FlowNetwork net(topo, routing::Algo::kMinimal);
  EXPECT_THROW(net.add_message(msg(0, 0, 100, 0.0)), Error);      // self-send
  EXPECT_THROW(net.add_message(msg(0, 100000, 100, 0.0)), Error); // range
  EXPECT_THROW(net.add_message(msg(0, 1, 0, 0.0)), Error);        // empty
  EXPECT_THROW(net.add_message(msg(0, 1, 100, -1.0)), Error);     // time
  EXPECT_THROW(net.enable_sampling(0.0), Error);
  net.add_message(msg(0, 1, 100, 0.0));
  (void)net.run();
  EXPECT_THROW(net.run(), Error);                   // single-shot
  EXPECT_THROW(net.add_message(msg(1, 2, 1, 0.0)), Error);  // post-run
}

TEST(FlowNetwork, EpochLengthDoesNotChangeTotals) {
  // Different epoch lengths move the stepper's solve points, never what it
  // delivers: minimal routing fixes the paths, so injected bytes, finished
  // packets and per-class traffic are epoch-invariant. An unsampled run
  // (auto quantum, span / 256) is compared with one sampled at 50 ns (the
  // quantum locks to the sampling interval). Two inputs: a staggered
  // 16-message ladder and 48 random messages.
  const auto topo = topo::Dragonfly::canonical(2);
  std::vector<netsim::Message> ladder;
  for (std::uint32_t t = 0; t < 16; ++t) {
    ladder.push_back(msg(4 * t, (4 * t + 5) % topo.num_terminals(),
                         64 * 1024, 100.0 * t));
  }
  std::vector<netsim::Message> random;
  Rng rng(17, 5);
  for (int i = 0; i < 48; ++i) {
    const auto s =
        static_cast<std::uint32_t>(rng.next_below(topo.num_terminals()));
    auto d = s;
    while (d == s) {
      d = static_cast<std::uint32_t>(rng.next_below(topo.num_terminals()));
    }
    random.push_back(msg(s, d, 3000 + 700 * i, rng.next_double() * 5e4));
  }
  auto run_with = [&](const std::vector<netsim::Message>& ms,
                      double sample_dt) {
    FlowNetwork net(topo, routing::Algo::kMinimal, {}, 9);
    net.add_messages(ms);
    if (sample_dt > 0) net.enable_sampling(sample_dt);
    return net.run();
  };
  for (const auto* ms : {&ladder, &random}) {
    SCOPED_TRACE(ms == &ladder ? "ladder" : "random");
    const auto auto_q = run_with(*ms, 0.0);  // unsampled: auto quantum
    const auto fine = run_with(*ms, 50.0);
    EXPECT_DOUBLE_EQ(auto_q.total_injected(), fine.total_injected());
    EXPECT_EQ(auto_q.total_packets_finished(), fine.total_packets_finished());
    EXPECT_NEAR(auto_q.total_local_traffic(), fine.total_local_traffic(),
                auto_q.total_local_traffic() * 1e-9 + 1.0);
    EXPECT_NEAR(auto_q.total_global_traffic(), fine.total_global_traffic(),
                auto_q.total_global_traffic() * 1e-9 + 1.0);
    EXPECT_NEAR(auto_q.total_terminal_traffic(), fine.total_terminal_traffic(),
                auto_q.total_terminal_traffic() * 1e-9 + 1.0);
  }
}

TEST(FlowNetwork, EventSteppingMatchesClosedFormOnAlignedCompletions) {
  // Every activation and completion lands on a frame boundary, so the
  // sampled record has a closed form the stepper must hit exactly.
  // Construction: unit bandwidths, disjoint same-router pairs (inj+ej
  // links only, no sharing -> every rate is exactly 1 byte/ns), message
  // sizes in multiples of 4096 = 16 x 256-ns frames, issues at 0 and 2048.
  const auto topo = topo::Dragonfly::canonical(2);
  netsim::Params prm;
  prm.terminal_bandwidth = 1.0;
  prm.local_bandwidth = 1.0;
  prm.global_bandwidth = 1.0;
  constexpr double kFrame = 256.0;
  std::vector<netsim::Message> ms;
  for (std::uint32_t r = 0; r < topo.num_routers(); ++r) {
    ms.push_back(msg(2 * r, 2 * r + 1, 4096ull * (1 + r % 3), 0.0));
    if (r % 2 == 0) ms.push_back(msg(2 * r, 2 * r + 1, 4096, 2048.0));
  }
  FlowNetwork net(topo, routing::Algo::kMinimal, prm, 3);
  net.add_messages(ms);
  net.enable_sampling(kFrame);
  const auto run = net.run();

  // Closed form. A pair's messages (listed in issue order) drain FIFO at
  // 1 byte/ns: each completes at max(issue, previous completion) + bytes
  // and arrives one path latency later (two terminal links, one router).
  const double path_latency = 2.0 * prm.terminal_latency + prm.router_delay;
  const std::size_t nterm = topo.num_terminals();
  std::vector<std::uint64_t> packets(nterm, 0);
  std::vector<double> latency(nterm, 0.0);
  std::vector<double> drained_at(nterm, 0.0);  // per source terminal
  double last_arrival = 0.0;
  for (const auto& m : ms) {
    double& done = drained_at[m.src_terminal];
    done = std::max(done, m.time) + static_cast<double>(m.bytes);
    const std::uint64_t npkts =
        (m.bytes + prm.packet_size - 1) / prm.packet_size;
    packets[m.dst_terminal] += npkts;
    latency[m.dst_terminal] +=
        (done + path_latency - m.time) * static_cast<double>(npkts);
    last_arrival = std::max(last_arrival, done + path_latency);
  }
  // Sampled runs end at the first frame boundary covering the last arrival.
  const double end = std::ceil(last_arrival / kFrame) * kFrame;
  EXPECT_EQ(run.end_time, end);
  ASSERT_EQ(run.terminals.size(), nterm);
  for (std::size_t t = 0; t < nterm; ++t) {
    EXPECT_EQ(run.terminals[t].packets_finished, packets[t]) << "term " << t;
    EXPECT_EQ(run.terminals[t].sum_latency, latency[t]) << "term " << t;
  }
  // While a pair drains, its source injects a full frame of bytes, and
  // the source's injection link and the destination's ejection link are
  // saturated for the whole frame; afterwards both read zero.
  const auto frames = static_cast<std::size_t>(end / kFrame);
  ASSERT_EQ(run.term_traffic_ts.frames(), frames);
  ASSERT_EQ(run.term_sat_ts.frames(), frames);
  for (std::size_t f = 0; f < frames; ++f) {
    const double frame_end = static_cast<double>(f + 1) * kFrame;
    for (std::size_t t = 0; t < nterm; ++t) {
      const std::size_t src = t & ~std::size_t{1};  // pair (2r, 2r + 1)
      const bool busy = frame_end <= drained_at[src];
      const float traffic = t == src && busy ? kFrame : 0.0f;
      const float sat = busy ? kFrame : 0.0f;
      EXPECT_EQ(run.term_traffic_ts.at(f, t), traffic)
          << "frame " << f << " term " << t;
      EXPECT_EQ(run.term_sat_ts.at(f, t), sat)
          << "frame " << f << " term " << t;
    }
  }
}

/// Content uids of DF(3) flow runs through run_experiment, pinned so that
/// changes to the issue path (bundle FIFOs, route decisions) are proven
/// output-neutral: {uniform_random, transpose} x {minimal, adaptive} and
/// {uniform_random, nearest_neighbor} x {nonminimal, progressive
/// adaptive}, unsampled and sampled.
/// nearest_neighbor under nonminimal routing reaches the intra-group
/// Valiant draw (a proxy router); uniform_random the proxy group.
struct PinnedUid {
  const char* workload;
  routing::Algo routing;
  double sample_dt;
  std::uint64_t uid;
};

/// FatTree(8) sampled: netsim's fat_tree_net() fixture on the flow
/// backend. Pins the padded terminal rows (agg and core switches have no
/// hosts) and fat-tree sampling.
metrics::RunMetrics fat_tree_flow_run() {
  netsim::Params p;
  p.packet_size = 512;
  p.local_latency = 100.0;
  p.global_latency = 100.0;
  p.global_bandwidth = p.local_bandwidth;
  FlowNetwork net(topo::FatTree(8), p, 4);
  const std::uint32_t hosts = topo::FatTree(8).num_hosts();
  Rng rng(13);
  for (int i = 0; i < 600; ++i) {
    const auto src = static_cast<std::uint32_t>(rng.next_below(hosts));
    auto dst = src;
    while (dst == src) dst = static_cast<std::uint32_t>(rng.next_below(hosts));
    const std::uint64_t bytes = 256 + rng.next_below(8192);
    net.add_message(msg(src, dst, bytes, rng.next_double() * 20000.0, 0));
  }
  for (std::uint32_t s = 1; s < 40; s += 3) {
    net.add_message(msg(s, 0, 8192, 50.0 * s, 0));
  }
  net.enable_sampling(5000.0);
  return net.run();
}

TEST(FlowNetwork, ContentUidsArePinned) {
  using routing::Algo;
  const PinnedUid cases[] = {
      {"uniform_random", Algo::kMinimal, 0.0, 1386960425720503912ull},
      {"uniform_random", Algo::kAdaptive, 0.0, 4762891858410712882ull},
      {"transpose", Algo::kMinimal, 0.0, 2154718124508855922ull},
      {"transpose", Algo::kAdaptive, 0.0, 12185161646573125343ull},
      {"uniform_random", Algo::kMinimal, 5e3, 17457300128060876122ull},
      {"uniform_random", Algo::kAdaptive, 5e3, 10619459015603097831ull},
      {"transpose", Algo::kMinimal, 5e3, 14532117436866670070ull},
      {"transpose", Algo::kAdaptive, 5e3, 15351001117768683078ull},
      {"uniform_random", Algo::kNonMinimal, 0.0, 7595258620831018900ull},
      {"nearest_neighbor", Algo::kNonMinimal, 0.0, 10584092359439307399ull},
      {"uniform_random", Algo::kProgressiveAdaptive, 0.0,
       14406604972178228302ull},
      {"nearest_neighbor", Algo::kProgressiveAdaptive, 0.0,
       2686463933239850272ull},
      {"uniform_random", Algo::kNonMinimal, 5e3, 8617846989629775613ull},
      {"nearest_neighbor", Algo::kNonMinimal, 5e3, 5698651122591197971ull},
      {"uniform_random", Algo::kProgressiveAdaptive, 5e3,
       11819689442827915131ull},
      {"nearest_neighbor", Algo::kProgressiveAdaptive, 5e3,
       5207974660987016181ull},
  };
  for (const PinnedUid& c : cases) {
    app::ExperimentConfig cfg;
    cfg.dragonfly_p = 3;
    app::JobSpec job;
    job.workload = c.workload;
    cfg.jobs.push_back(job);
    cfg.routing = c.routing;
    cfg.window = 1.0e5;
    cfg.synthetic_bytes_per_rank = 64 * 1024;
    cfg.seed = 7;
    cfg.sample_dt = c.sample_dt;
    cfg.backend = app::Backend::kFlow;
    const auto res = app::run_experiment(cfg);
    EXPECT_EQ(metrics::run_content_uid(res.run), c.uid)
        << c.workload << " " << routing::to_string(c.routing)
        << " sample_dt=" << c.sample_dt;
  }
  EXPECT_EQ(metrics::run_content_uid(fat_tree_flow_run()),
            3468083078817772114ull)
      << "fat tree";
}

}  // namespace
}  // namespace dv::flow
