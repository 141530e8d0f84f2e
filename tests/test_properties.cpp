// Cross-module property sweeps (TEST_P): simulator invariants across the
// parameter space, aggregation algebra on random tables, end-to-end
// pipeline consistency.
#include <gtest/gtest.h>

#include <numeric>
#include <random>
#include <tuple>

#include "core/projection.hpp"
#include "core/query.hpp"
#include "core/views.hpp"
#include "helpers.hpp"
#include "slice_oracle.hpp"
#include "netsim/network.hpp"
#include "workload/workload.hpp"

namespace dv {
namespace {

// ------------------------------------------------------- netsim invariants

using SimParams = std::tuple<std::uint32_t /*packet*/, std::uint32_t /*buf*/,
                             std::uint32_t /*p*/>;

class SimSweep : public ::testing::TestWithParam<SimParams> {};

TEST_P(SimSweep, ConservationAndAccountingInvariants) {
  const auto [packet, buf, p] = GetParam();
  const auto topo = topo::Dragonfly::canonical(p);
  netsim::Params params;
  params.packet_size = packet;
  params.vc_buffer_packets = buf;
  params.event_budget = 80'000'000;
  netsim::Network net(topo, routing::Algo::kAdaptive, params, 5);

  Rng rng(11);
  std::uint64_t injected = 0;
  for (int i = 0; i < 250; ++i) {
    const auto src =
        static_cast<std::uint32_t>(rng.next_below(topo.num_terminals()));
    auto dst = src;
    while (dst == src) {
      dst = static_cast<std::uint32_t>(rng.next_below(topo.num_terminals()));
    }
    const std::uint64_t bytes = 1 + rng.next_below(3 * packet);
    injected += bytes;
    net.add_message({src, dst, bytes, rng.next_double() * 30000.0, 0});
  }
  const auto m = net.run();

  // Byte conservation at the terminals.
  EXPECT_DOUBLE_EQ(m.total_injected(), static_cast<double>(injected));
  EXPECT_EQ(net.packets_injected(), net.packets_delivered());

  // Non-negative metrics everywhere; saturation bounded by run time.
  for (const auto& l : m.local_links) {
    EXPECT_GE(l.traffic, 0.0);
    EXPECT_GE(l.sat_time, 0.0);
    // Credits + backlog each contribute at most end_time per VC/port.
    EXPECT_LE(l.sat_time,
              m.end_time * (routing::RoutePlanner(topo, routing::Algo::kAdaptive)
                                .max_link_hops() +
                            1));
  }
  // Hops within the routing bound; latency positive.
  for (const auto& t : m.terminals) {
    if (t.packets_finished == 0) continue;
    EXPECT_GT(t.avg_latency(), 0.0);
    EXPECT_GE(t.avg_hops(), 1.0);
    EXPECT_LE(t.avg_hops(), 8.0);
  }
  // Global traffic only between distinct groups.
  for (const auto& l : m.global_links) {
    if (l.traffic > 0) {
      EXPECT_NE(l.src_router / topo.routers_per_group(),
                l.dst_router / topo.routers_per_group());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Space, SimSweep,
    ::testing::Values(SimParams{256, 2, 2}, SimParams{256, 16, 2},
                      SimParams{2048, 2, 2}, SimParams{2048, 8, 3},
                      SimParams{512, 4, 3}, SimParams{4096, 8, 2}));

// ------------------------------------------------------- workload volumes

class VolumeSweep
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {
};

TEST_P(VolumeSweep, GeneratedVolumeTracksTarget) {
  const auto [name, bytes] = GetParam();
  workload::Config cfg;
  cfg.ranks = 96;
  cfg.total_bytes = bytes;
  cfg.window = 1.0e5;
  cfg.seed = 2;
  const auto msgs = workload::generate(name, cfg);
  const auto total = workload::total_bytes(msgs);
  EXPECT_LE(total, bytes);
  EXPECT_GE(total, bytes * 80 / 100) << name;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, VolumeSweep,
    ::testing::Combine(
        ::testing::Values("uniform_random", "nearest_neighbor", "amg",
                          "amr_boxlib", "minife", "permutation"),
        ::testing::Values(std::uint64_t{1} << 18, std::uint64_t{1} << 22,
                          std::uint64_t{1} << 25)));

// ------------------------------------------------------- aggregation algebra

class BinSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BinSweep, BinnedPartitionIsCompleteAndOrdered) {
  const std::size_t max_bins = GetParam();
  Rng rng(max_bins + 1);
  const std::size_t n = 500;
  std::vector<double> key(n), val(n);
  for (std::size_t i = 0; i < n; ++i) {
    key[i] = static_cast<double>(rng.next_below(97));
    val[i] = rng.next_double();
  }
  const double total = std::accumulate(val.begin(), val.end(), 0.0);
  core::DataTable t;
  t.add_column("k", key);
  t.add_column("v", val);
  core::AggregationSpec spec;
  spec.keys = {"k"};
  spec.max_bins = max_bins;
  const core::Aggregation agg(t, spec);
  // bucket = floor(distinct / max_bins), so the partition count is bounded
  // by 2 * max_bins (and equals the distinct-key count when unbinned).
  if (max_bins) {
    EXPECT_LE(agg.size(), 2 * max_bins);
  }
  // Every row lands in exactly one group.
  std::size_t covered = 0;
  for (const auto& g : agg.groups()) covered += g.rows.size();
  EXPECT_EQ(covered, n);
  // Sums are preserved and groups are key-ordered.
  const auto sums = agg.reduce("v", core::Reducer::kSum);
  EXPECT_NEAR(std::accumulate(sums.begin(), sums.end(), 0.0), total, 1e-9);
  for (std::size_t g = 1; g < agg.size(); ++g) {
    EXPECT_LT(agg.groups()[g - 1].keys[0], agg.groups()[g].keys[0] + 1e-12);
  }
  // Bins respect key order: max key of bin i < min key of bin i+1.
  if (agg.binned()) {
    for (std::size_t g = 1; g < agg.size(); ++g) {
      double prev_max = -1e300, cur_min = 1e300;
      for (std::uint32_t r : agg.groups()[g - 1].rows) {
        prev_max = std::max(prev_max, key[r]);
      }
      for (std::uint32_t r : agg.groups()[g].rows) {
        cur_min = std::min(cur_min, key[r]);
      }
      EXPECT_LT(prev_max, cur_min);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Bins, BinSweep,
                         ::testing::Values(0u, 1u, 2u, 5u, 8u, 16u, 50u,
                                           200u));

// ------------------------------------------------------- pipeline sanity

TEST(Pipeline, ProjectionTotalsMatchRawTables) {
  // Whatever the grouping, the summed 'size' channel over a traffic ring
  // equals the table total — aggregation never invents or loses traffic.
  const auto mini = dv::testing::make_mini_run();
  const core::DataSet data(mini.run);
  for (const char* key : {"group_id", "router_rank", "router_port"}) {
    const auto spec = core::SpecBuilder()
                          .level(core::Entity::kGlobalLink)
                          .aggregate({key})
                          .size("traffic")
                          .color("sat_time")
                          .no_ribbons()
                          .build();
    const core::ProjectionView view(data, spec);
    double ring_total = 0;
    for (const auto& it : view.rings()[0].items) ring_total += it.size_value;
    EXPECT_NEAR(ring_total, mini.run.total_global_traffic(),
                ring_total * 1e-9)
        << key;
  }
}

TEST(Pipeline, SessionSliceEqualsManualSlice) {
  const auto mini = dv::testing::make_mini_run();
  const double end = mini.run.end_time;
  core::AnalysisSession session{
      core::DataSet(mini.run),
      core::SpecBuilder()
          .level(core::Entity::kLocalLink)
          .aggregate({"group_id"})
          .size("traffic")
          .color("sat_time")
          .no_ribbons()
          .build()};
  session.select_time_range(end * 0.2, end * 0.6);
  double session_total = 0;
  for (const auto& it : session.projection().rings()[0].items) {
    session_total += it.size_value;
  }
  const core::DataSet manual =
      dv::testing::slice_time(core::DataSet(mini.run), end * 0.2, end * 0.6);
  const auto& col = manual.table(core::Entity::kLocalLink).column("traffic");
  const double manual_total = std::accumulate(col.begin(), col.end(), 0.0);
  EXPECT_NEAR(session_total, manual_total, 1e-6 + manual_total * 1e-9);
}

// ----------------------------------------------------- query-engine algebra

namespace qprop {

struct RandomQuery {
  core::Entity entity;
  core::AggregationSpec spec;
  std::string attr;
  core::Reducer reducer;
};

/// Draws a random but valid query: entity, keys, bins, filters (bounded,
/// one-sided, or unbounded), reducer, attribute, and an optional window.
RandomQuery draw(std::mt19937& rng, double end_time) {
  static const struct {
    core::Entity entity;
    std::vector<const char*> keys;
    std::vector<const char*> attrs;
  } kPools[] = {
      {core::Entity::kLocalLink,
       {"group_id", "router_rank", "router_port", "src_job"},
       {"traffic", "sat_time"}},
      {core::Entity::kGlobalLink,
       {"group_id", "router_rank", "dst_group"},
       {"traffic", "sat_time"}},
      {core::Entity::kTerminal,
       {"group_id", "router_rank", "router_port", "workload"},
       {"data_size", "sat_time", "avg_latency", "avg_hops"}},
      {core::Entity::kRouter,
       {"group_id", "router_rank"},
       {"local_traffic", "global_traffic", "local_sat_time"}},
  };
  const auto& pool = kPools[rng() % 4];

  RandomQuery q;
  q.entity = pool.entity;
  const std::size_t n_keys = 1 + rng() % 2;
  for (std::size_t i = 0; i < n_keys; ++i) {
    const char* k = pool.keys[rng() % pool.keys.size()];
    if (q.spec.keys.empty() || q.spec.keys[0] != k) q.spec.keys.push_back(k);
  }
  if (rng() % 3 == 0) q.spec.max_bins = 2 + rng() % 12;
  if (rng() % 3 == 0) {
    core::AttrFilter f;
    f.attr = pool.attrs[rng() % pool.attrs.size()];
    switch (rng() % 3) {
      case 0: f.lo = 0.0; break;                      // one-sided
      case 1: f.hi = 1e12; break;                     // one-sided
      default: f.lo = 0.0; f.hi = 1e12; break;        // bounded
    }
    q.spec.filters.push_back(std::move(f));
  }
  q.attr = pool.attrs[rng() % pool.attrs.size()];
  static const core::Reducer kReducers[] = {
      core::Reducer::kSum, core::Reducer::kMean, core::Reducer::kMax,
      core::Reducer::kMin, core::Reducer::kCount};
  q.reducer = kReducers[rng() % 5];
  if (rng() % 2) {
    const double a = (rng() % 1000) / 1000.0 * end_time;
    const double b = (rng() % 1000) / 1000.0 * end_time;
    if (a != b) q.spec.window = core::TimeWindow{std::min(a, b), std::max(a, b)};
  }
  return q;
}

}  // namespace qprop

TEST(QueryProperty, CachedEqualsFreshRecomputeBitExactAcross1000Specs) {
  // The acceptance-criteria sweep: for >= 1000 random specs, a warmed
  // shared engine returns results bit-identical to a fresh engine's cold
  // recompute. EXPECT_EQ on doubles is exact equality on purpose.
  const auto mini = dv::testing::make_mini_run();
  const core::DataSet data(mini.run);
  const double end = mini.run.end_time;
  core::QueryEngine warmed(data, 256);
  std::mt19937 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto q = qprop::draw(rng, end);
    // Query twice so the second answer is (usually) served from cache.
    (void)warmed.reduce(q.entity, q.spec, q.attr, q.reducer);
    const auto cached = warmed.reduce(q.entity, q.spec, q.attr, q.reducer);
    core::QueryEngine fresh(data);
    const auto cold = fresh.reduce(q.entity, q.spec, q.attr, q.reducer);
    ASSERT_EQ(cached->size(), cold->size()) << "spec " << i;
    for (std::size_t g = 0; g < cold->size(); ++g) {
      ASSERT_EQ((*cached)[g], (*cold)[g])
          << "spec " << i << " group " << g << " (cached vs recompute)";
    }
  }
  const auto s = warmed.stats();
  EXPECT_GT(s.hits, 0u);
  EXPECT_GT(s.misses, 0u);
}

TEST(QueryProperty, WindowCoveringWholeRunMatchesFullAggregation) {
  // Sum over [0, end] equals the unwindowed aggregation up to sampling
  // float precision (series store float deltas, totals are doubles).
  const auto mini = dv::testing::make_mini_run();
  const core::DataSet data(mini.run);
  core::QueryEngine eng(data);
  core::AggregationSpec spec;
  spec.keys = {"group_id"};
  const auto full = eng.reduce(core::Entity::kGlobalLink, spec, "traffic",
                               core::Reducer::kSum);
  spec.window = core::TimeWindow{0.0, mini.run.end_time + 1.0};
  const auto windowed = eng.reduce(core::Entity::kGlobalLink, spec, "traffic",
                                   core::Reducer::kSum);
  ASSERT_EQ(full->size(), windowed->size());
  for (std::size_t g = 0; g < full->size(); ++g) {
    EXPECT_NEAR((*windowed)[g], (*full)[g], 1e-3 + (*full)[g] * 1e-4)
        << "group " << g;
  }
}

TEST(QueryProperty, WindowedSumsAreAdditiveAtFrameBoundaries) {
  // [0, m) + [m, end) = [0, end) when m is frame-aligned (windows quantize
  // to frames, so only aligned splits partition exactly).
  const auto mini = dv::testing::make_mini_run();
  const core::DataSet data(mini.run);
  core::QueryEngine eng(data);
  const double dt = mini.run.sample_dt;
  const std::size_t frames = mini.run.global_traffic_ts.frames();
  ASSERT_GT(frames, 2u);
  const double mid = dt * static_cast<double>(frames / 2);
  const double end = dt * static_cast<double>(frames);

  core::AggregationSpec spec;
  spec.keys = {"group_id"};
  auto sum_over = [&](double t0, double t1) {
    auto s = spec;
    s.window = core::TimeWindow{t0, t1};
    return *eng.reduce(core::Entity::kGlobalLink, s, "traffic",
                       core::Reducer::kSum);
  };
  const auto left = sum_over(0.0, mid);
  const auto right = sum_over(mid, end);
  const auto whole = sum_over(0.0, end);
  ASSERT_EQ(left.size(), whole.size());
  ASSERT_EQ(right.size(), whole.size());
  for (std::size_t g = 0; g < whole.size(); ++g) {
    EXPECT_NEAR(left[g] + right[g], whole[g], 1e-6 + whole[g] * 1e-9)
        << "group " << g;
  }
}

TEST(QueryProperty, WindowedMeanStaysPacketWeighted) {
  // kMean weights by packets_finished. Windowing replaces the sampled value
  // columns but never the weights, so the windowed mean must equal the
  // hand-computed packet-weighted mean over the windowed values.
  const auto mini = dv::testing::make_mini_run();
  const core::DataSet data(mini.run);
  core::QueryEngine eng(data);
  const double end = mini.run.end_time;
  core::AggregationSpec spec;
  spec.keys = {"router_rank"};
  spec.window = core::TimeWindow{end * 0.2, end * 0.8};
  const auto got = eng.reduce(core::Entity::kTerminal, spec, "data_size",
                              core::Reducer::kMean);

  const core::DataTable wt =
      data.windowed_table(core::Entity::kTerminal, end * 0.2, end * 0.8);
  const auto agg = eng.aggregate(core::Entity::kTerminal, spec);
  const auto& vals = wt.column("data_size");
  const auto& weights = wt.column("packets_finished");
  ASSERT_EQ(got->size(), agg->size());
  for (std::size_t g = 0; g < agg->size(); ++g) {
    double acc = 0.0, wsum = 0.0;
    for (std::uint32_t row : agg->groups()[g].rows) {
      acc += vals[row] * weights[row];
      wsum += weights[row];
    }
    const double want = wsum > 0 ? acc / wsum : 0.0;
    EXPECT_DOUBLE_EQ((*got)[g], want) << "group " << g;
  }
}

TEST(Pipeline, SeedChangesRandomPlacementButNotTotals) {
  const auto a = dv::testing::make_mini_run(routing::Algo::kAdaptive,
                                            placement::Policy::kRandomNode,
                                            placement::Policy::kRandomNode, 1);
  const auto b = dv::testing::make_mini_run(routing::Algo::kAdaptive,
                                            placement::Policy::kRandomNode,
                                            placement::Policy::kRandomNode, 2);
  EXPECT_NE(a.placement.terminals, b.placement.terminals);
  // Same workload volume regardless of placement seed.
  EXPECT_NEAR(a.run.total_injected(), b.run.total_injected(),
              a.run.total_injected() * 0.02);
}

}  // namespace
}  // namespace dv
