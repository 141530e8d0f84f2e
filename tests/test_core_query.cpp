// QueryEngine: windowed tables vs the slice_time oracle, cache semantics
// (hit / miss / LRU eviction), bit-exact cached results, the group-slab
// fast path, and run_parallel behavior.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <fstream>
#include <future>
#include <map>
#include <numeric>
#include <set>
#include <thread>

#include "core/query.hpp"
#include "core/spec.hpp"
#include "helpers.hpp"
#include "slice_oracle.hpp"
#include "util/str.hpp"

namespace dv {
namespace {

using core::AggregationSpec;
using core::AttrFilter;
using core::DataSet;
using core::Entity;
using core::QueryEngine;
using core::Reducer;
using core::TimeWindow;

const dv::testing::MiniRun& mini() {
  static const auto run = dv::testing::make_mini_run();
  return run;
}

std::vector<std::pair<Entity, const char*>> windowable_attrs() {
  return {{Entity::kLocalLink, "traffic"},     {Entity::kLocalLink, "sat_time"},
          {Entity::kGlobalLink, "traffic"},    {Entity::kGlobalLink, "sat_time"},
          {Entity::kTerminal, "data_size"},    {Entity::kTerminal, "sat_time"},
          {Entity::kRouter, "local_traffic"},  {Entity::kRouter, "global_traffic"},
          {Entity::kRouter, "local_sat_time"}, {Entity::kRouter, "global_sat_time"}};
}

// ------------------------------------------------- windowed_table semantics

TEST(QueryWindow, WindowedTableMatchesSliceTimeBitExact) {
  const DataSet data(mini().run);
  const double end = mini().run.end_time;
  const double t0 = end * 0.25, t1 = end * 0.7;
  const DataSet sliced = dv::testing::slice_time(data, t0, t1);
  for (const auto& [e, attr] : windowable_attrs()) {
    const core::DataTable wt = data.windowed_table(e, t0, t1);
    const auto& want = sliced.table(e).column(attr);
    const auto& got = wt.column(attr);
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      // Both paths reduce through the same PrefixSeries, so the values are
      // identical down to the last bit, not merely close.
      EXPECT_DOUBLE_EQ(want[i], got[i]) << core::to_string(e) << "." << attr
                                        << " row " << i;
    }
  }
}

TEST(QueryWindow, SpecDocListsEveryWindowableAttribute) {
  std::ifstream is(std::string(DV_DOCS_DIR) + "/SPEC_LANGUAGE.md");
  ASSERT_TRUE(is.good()) << "docs/SPEC_LANGUAGE.md missing";
  // The "- **window**" bullet's sub-bullets: "  - <entities>: `a`, `b`".
  const std::map<std::string, std::vector<Entity>> kLabels = {
      {"routers", {Entity::kRouter}},
      {"local and global links", {Entity::kLocalLink, Entity::kGlobalLink}},
      {"terminals", {Entity::kTerminal}}};
  std::map<Entity, std::set<std::string>> documented;
  bool in_bullet = false;
  for (std::string line; std::getline(is, line);) {
    if (line.starts_with("- **")) in_bullet = line.starts_with("- **window**");
    if (!in_bullet || !line.starts_with("  - ")) continue;
    const auto colon = line.find(':');
    ASSERT_NE(colon, std::string::npos) << line;
    const auto it = kLabels.find(line.substr(4, colon - 4));
    ASSERT_NE(it, kLabels.end()) << line;
    for (const auto& cell : split(line.substr(colon + 1), ',')) {
      const std::string attr = trim(cell);
      ASSERT_TRUE(attr.size() > 2 && attr.front() == '`' && attr.back() == '`')
          << line;
      for (const Entity e : it->second) {
        documented[e].insert(attr.substr(1, attr.size() - 2));
      }
    }
  }
  const DataSet data(mini().run);
  for (const Entity e : {Entity::kRouter, Entity::kLocalLink,
                         Entity::kGlobalLink, Entity::kTerminal}) {
    std::set<std::string> windowable;
    for (const auto& col : data.table(e).column_names()) {
      if (DataSet::windowable(e, col)) windowable.insert(col);
    }
    EXPECT_FALSE(windowable.empty()) << core::to_string(e);
    EXPECT_EQ(documented[e], windowable) << core::to_string(e);
  }
}

TEST(QueryWindow, NonWindowedColumnsAreUntouched) {
  const DataSet data(mini().run);
  const double end = mini().run.end_time;
  const core::DataTable wt =
      data.windowed_table(Entity::kTerminal, end * 0.1, end * 0.4);
  for (const char* col : {"terminal", "group_id", "packets_finished"}) {
    EXPECT_EQ(data.table(Entity::kTerminal).column(col), wt.column(col)) << col;
  }
}

TEST(QueryWindow, FullWindowEqualsSampledTotals) {
  // [0, end] covers every frame, so the windowed column equals the series
  // total. Series are float deltas, so compare with a relative tolerance.
  const DataSet data(mini().run);
  const core::DataTable wt =
      data.windowed_table(Entity::kGlobalLink, 0.0, mini().run.end_time + 1);
  const auto& full = data.table(Entity::kGlobalLink).column("traffic");
  const auto& windowed = wt.column("traffic");
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_NEAR(full[i], windowed[i], 1e-3 + full[i] * 1e-4);
  }
}

TEST(QueryWindow, SlicingUnsampledRunThrows) {
  auto run = mini().run;
  run.sample_dt = 0;
  run.local_traffic_ts = {};
  run.local_sat_ts = {};
  run.global_traffic_ts = {};
  run.global_sat_ts = {};
  run.term_traffic_ts = {};
  run.term_sat_ts = {};
  const DataSet data(run);
  EXPECT_FALSE(data.has_time_series());
  EXPECT_THROW(data.windowed_table(Entity::kTerminal, 0, 100), Error);
}

// ----------------------------------------------------------- cache behavior

TEST(QueryCache, RepeatedQueryHitsAndSharesResult) {
  const DataSet data(mini().run);
  QueryEngine eng(data);
  AggregationSpec spec;
  spec.keys = {"group_id"};
  spec.window = TimeWindow{100.0, mini().run.end_time * 0.5};
  const auto a = eng.reduce(Entity::kGlobalLink, spec, "traffic");
  const auto b = eng.reduce(Entity::kGlobalLink, spec, "traffic");
  EXPECT_EQ(a.get(), b.get());  // the literal same cached vector
  const auto s = eng.stats();
  EXPECT_GE(s.hits, 1u);
  EXPECT_GE(s.misses, 1u);
}

TEST(QueryCache, InactiveWindowAliasesBaseTable) {
  const DataSet data(mini().run);
  QueryEngine eng(data);
  const auto tbl = eng.table(Entity::kLocalLink, TimeWindow{});
  EXPECT_EQ(tbl.get(), &data.table(Entity::kLocalLink));
  EXPECT_EQ(eng.stats().entries, 0u);  // nothing cached for the base table
}

TEST(QueryCache, WindowInsensitiveQuerySharesEntryAcrossBrushes) {
  // A reduction that ignores the window (unsampled attribute, window-free
  // grouping) must not fragment the cache as the user brushes.
  const DataSet data(mini().run);
  QueryEngine eng(data);
  AggregationSpec spec;
  spec.keys = {"group_id"};
  const double end = mini().run.end_time;
  spec.window = TimeWindow{0.0, end * 0.3};
  const auto a = eng.reduce(Entity::kTerminal, spec, "avg_latency");
  spec.window = TimeWindow{end * 0.4, end * 0.9};
  const auto b = eng.reduce(Entity::kTerminal, spec, "avg_latency");
  EXPECT_EQ(a.get(), b.get());
}

TEST(QueryCache, LruEvictsWhenOverCapacity) {
  const DataSet data(mini().run);
  QueryEngine eng(data, 2);
  AggregationSpec spec;
  spec.keys = {"group_id"};
  const double end = mini().run.end_time;
  for (int i = 1; i <= 6; ++i) {
    spec.window = TimeWindow{0.0, end * 0.1 * i};
    (void)eng.reduce(Entity::kGlobalLink, spec, "traffic");
  }
  const auto s = eng.stats();
  EXPECT_LE(s.entries, 2u);
  EXPECT_GT(s.evictions, 0u);
}

TEST(QueryCache, ClearDropsEntriesButKeepsCounting) {
  const DataSet data(mini().run);
  QueryEngine eng(data);
  AggregationSpec spec;
  spec.keys = {"router_rank"};
  (void)eng.aggregate(Entity::kLocalLink, spec);
  EXPECT_GT(eng.stats().entries, 0u);
  eng.clear();
  EXPECT_EQ(eng.stats().entries, 0u);
  (void)eng.aggregate(Entity::kLocalLink, spec);
  EXPECT_GE(eng.stats().misses, 2u);
}

// ------------------------------------------------------ evaluation parity

TEST(QueryReduce, SlabPathMatchesSliceThenAggregate) {
  // The O(groups) slab delta must agree with slicing the run and summing
  // (same data, different association order => NEAR, not bit-exact).
  const DataSet data(mini().run);
  QueryEngine eng(data);
  const double end = mini().run.end_time;
  AggregationSpec spec;
  spec.keys = {"group_id"};
  spec.window = TimeWindow{end * 0.2, end * 0.6};
  const auto fast = eng.reduce(Entity::kGlobalLink, spec, "traffic");
  EXPECT_GE(eng.stats().slab_builds, 1u);
  EXPECT_GE(eng.stats().slab_reduces, 1u);

  const DataSet sliced = dv::testing::slice_time(data, end * 0.2, end * 0.6);
  AggregationSpec plain;
  plain.keys = {"group_id"};
  const core::Aggregation agg(sliced.table(Entity::kGlobalLink), plain);
  const auto want = agg.reduce("traffic", Reducer::kSum);
  ASSERT_EQ(want.size(), fast->size());
  double scale = 0.0;
  for (double v : want) scale += std::abs(v);
  for (std::size_t g = 0; g < want.size(); ++g) {
    EXPECT_NEAR((*fast)[g], want[g], 1e-6 + scale * 1e-9) << "group " << g;
  }
}

TEST(QueryReduce, GroupSlabsMatchTheDenseOracleForZeroAndNonzeroSeries) {
  // An all-zero series keeps no prefix and its slab is never summed; its
  // window sums must still equal, bit for bit, what a dense prefix gives,
  // as must those of a series with values.
  metrics::RunMetrics run = mini().run;
  const auto& sat = run.local_sat_ts;
  run.local_sat_ts = metrics::SampledSeries::adopt(
      sat.entities(), sat.dt(),
      std::vector<float>(sat.frames() * sat.entities(), 0.0f));
  const DataSet data(run);
  ASSERT_FALSE(data.slabs()[0].all_zero());  // local_traffic_ts
  ASSERT_TRUE(data.slabs()[1].all_zero());   // local_sat_ts
  QueryEngine eng(data);
  AggregationSpec plain;
  plain.keys = {"router_rank"};
  const core::Aggregation agg(data.table(Entity::kLocalLink), plain);
  std::vector<std::vector<std::uint32_t>> groups;
  for (const auto& g : agg.groups()) groups.push_back(g.rows);
  const double end = run.end_time;
  for (const auto& [attr, series] :
       {std::pair{"traffic", &run.local_traffic_ts},
        std::pair{"sat_time", &run.local_sat_ts}}) {
    for (const auto& [t0, t1] : {std::pair{0.0, end * 0.5},
                                 std::pair{end * 0.3, end * 0.9}}) {
      AggregationSpec spec = plain;
      spec.window = TimeWindow{t0, t1};
      const auto got =
          eng.reduce(Entity::kLocalLink, spec, attr, Reducer::kSum);
      const auto [f0, f1] = data.frame_range(Entity::kLocalLink, t0, t1);
      const auto want =
          dv::testing::dense_group_window_sums(*series, groups, f0, f1);
      ASSERT_EQ(got->size(), want.size());
      for (std::size_t g = 0; g < want.size(); ++g) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>((*got)[g]),
                  std::bit_cast<std::uint64_t>(want[g]))
            << attr << " group " << g;
      }
    }
  }
  EXPECT_GE(eng.stats().slab_builds, 2u);
}

TEST(QueryReduce, WindowedNonSlabPathIsBitExactWithSliceThenAggregate) {
  // kMax is not slab-eligible, so it reduces over the windowed table — the
  // exact same per-row values slice_time produces, hence bit-exact.
  const DataSet data(mini().run);
  QueryEngine eng(data);
  const double end = mini().run.end_time;
  AggregationSpec spec;
  spec.keys = {"router_rank"};
  spec.window = TimeWindow{end * 0.1, end * 0.8};
  const auto got = eng.reduce(Entity::kLocalLink, spec, "traffic", Reducer::kMax);

  const DataSet sliced = dv::testing::slice_time(data, end * 0.1, end * 0.8);
  AggregationSpec plain;
  plain.keys = {"router_rank"};
  const core::Aggregation agg(sliced.table(Entity::kLocalLink), plain);
  const auto want = agg.reduce("traffic", Reducer::kMax);
  ASSERT_EQ(want.size(), got->size());
  for (std::size_t g = 0; g < want.size(); ++g) {
    EXPECT_DOUBLE_EQ((*got)[g], want[g]);
  }
}

TEST(QueryReduce, WindowDependentGroupingFiltersWindowedValues) {
  // A filter on a windowable attribute must test the *windowed* values:
  // links idle inside the window drop out even if busy over the full run.
  const DataSet data(mini().run);
  QueryEngine eng(data);
  const double end = mini().run.end_time;
  AggregationSpec spec;
  AttrFilter f;
  f.attr = "traffic";
  f.lo = 1.0;  // busy-in-window links only
  spec.filters = {f};
  spec.window = TimeWindow{end * 0.3, end * 0.5};
  const auto agg = eng.aggregate(Entity::kGlobalLink, spec);

  const DataSet sliced = dv::testing::slice_time(data, end * 0.3, end * 0.5);
  AggregationSpec plain;
  plain.filters = {f};
  const core::Aggregation want(sliced.table(Entity::kGlobalLink), plain);
  EXPECT_EQ(want.size(), agg->size());
}

// --------------------------------------------- AttrFilter unbounded default

TEST(QueryFilter, DefaultFilterRangeIsUnbounded) {
  // Regression: a default-constructed AttrFilter used to be lo == hi == 0,
  // silently filtering out every row with a nonzero value.
  const DataSet data(mini().run);
  AggregationSpec spec;
  AttrFilter f;
  f.attr = "traffic";
  spec.filters = {f};
  const core::Aggregation agg(data.table(Entity::kLocalLink), spec);
  std::size_t covered = 0;
  for (const auto& g : agg.groups()) covered += g.rows.size();
  EXPECT_EQ(covered, data.table(Entity::kLocalLink).rows());
}

TEST(QueryFilter, OneSidedFiltersWork) {
  const DataSet data(mini().run);
  const auto& col = data.table(Entity::kTerminal).column("data_size");
  const double mid =
      std::accumulate(col.begin(), col.end(), 0.0) / col.size();

  AggregationSpec lo_only;
  AttrFilter f;
  f.attr = "data_size";
  f.lo = mid;
  lo_only.filters = {f};
  const core::Aggregation above(data.table(Entity::kTerminal), lo_only);

  AggregationSpec hi_only;
  AttrFilter g;
  g.attr = "data_size";
  g.hi = mid;
  hi_only.filters = {g};
  const core::Aggregation below(data.table(Entity::kTerminal), hi_only);

  std::size_t n_above = 0, n_below = 0;
  for (const auto& grp : above.groups()) n_above += grp.rows.size();
  for (const auto& grp : below.groups()) n_below += grp.rows.size();
  EXPECT_GT(n_above, 0u);
  EXPECT_GT(n_below, 0u);
  // mid is a column value boundary: rows equal to mid land in both.
  EXPECT_GE(n_above + n_below, data.table(Entity::kTerminal).rows());
}

TEST(QueryFilter, SpecScriptNullFilterRoundTrips) {
  const auto spec = core::ProjectionSpec::parse(R"(
    { project: "terminal", aggregate: "router_rank",
      vmap: { color: "sat_time" },
      filter: { traffic: null } }
  )");
  ASSERT_EQ(spec.levels[0].filters.size(), 1u);
  EXPECT_FALSE(spec.levels[0].filters[0].bounded_lo());
  EXPECT_FALSE(spec.levels[0].filters[0].bounded_hi());
  const auto again = core::ProjectionSpec::parse(spec.to_script());
  ASSERT_EQ(again.levels[0].filters.size(), 1u);
  EXPECT_FALSE(again.levels[0].filters[0].bounded_lo());
  EXPECT_FALSE(again.levels[0].filters[0].bounded_hi());
}

TEST(QueryFilter, SpecWindowRoundTrips) {
  auto spec = core::SpecBuilder()
                  .level(Entity::kGlobalLink)
                  .aggregate({"group_id"})
                  .color("sat_time")
                  .window(1500.0, 9250.0)
                  .no_ribbons()
                  .build();
  EXPECT_TRUE(spec.window.active());
  const auto again = core::ProjectionSpec::parse(spec.to_script());
  EXPECT_DOUBLE_EQ(again.window.t0, 1500.0);
  EXPECT_DOUBLE_EQ(again.window.t1, 9250.0);
}

// ------------------------------------------------------------ parallelism

TEST(QueryParallel, ConcurrentEngineUseIsDeterministic) {
  const DataSet data(mini().run);
  const double end = mini().run.end_time;

  // Sequential reference results, one engine per query (all cold).
  std::vector<std::vector<double>> want(8);
  for (int i = 0; i < 8; ++i) {
    QueryEngine fresh(data);
    AggregationSpec spec;
    spec.keys = {"group_id"};
    spec.window = TimeWindow{0.0, end * 0.1 * (1 + i % 4)};
    want[i] = *fresh.reduce(Entity::kGlobalLink, spec, "traffic");
  }

  // The same queries racing on one shared engine (duplicate windows race on
  // the same cache key on purpose).
  QueryEngine shared(data);
  std::vector<std::vector<double>> got(8);
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&, i] {
      AggregationSpec spec;
      spec.keys = {"group_id"};
      spec.window = TimeWindow{0.0, end * 0.1 * (1 + i % 4)};
      got[i] = *shared.reduce(Entity::kGlobalLink, spec, "traffic");
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(want[i].size(), got[i].size());
    for (std::size_t g = 0; g < want[i].size(); ++g) {
      EXPECT_EQ(want[i][g], got[i][g]) << "query " << i << " group " << g;
    }
  }
}

TEST(QueryParallel, RunParallelRunsEveryTaskOnce) {
  std::atomic<int> count{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 32; ++i) {
    tasks.push_back([&count] { count.fetch_add(1); });
  }
  core::run_parallel(std::move(tasks));
  EXPECT_EQ(count.load(), 32);
}

TEST(QueryParallel, RunParallelPropagatesTaskExceptions) {
  std::vector<std::function<void()>> tasks;
  tasks.push_back([] {});
  tasks.push_back([] { throw Error("task failed"); });
  tasks.push_back([] {});
  EXPECT_THROW(core::run_parallel(std::move(tasks)), Error);
}

TEST(QueryParallel, NestedRunParallelFallsBackToInline) {
  // A task that itself fans out must not deadlock on the pool barrier.
  std::atomic<int> inner{0};
  std::vector<std::function<void()>> outer;
  for (int i = 0; i < 4; ++i) {
    outer.push_back([&inner] {
      std::vector<std::function<void()>> nested;
      for (int j = 0; j < 4; ++j) {
        nested.push_back([&inner] { inner.fetch_add(1); });
      }
      core::run_parallel(std::move(nested));
    });
  }
  core::run_parallel(std::move(outer));
  EXPECT_EQ(inner.load(), 16);
}

TEST(QueryParallel, ConcurrentCallersWaitOnlyForTheirOwnTasks) {
  // Caller A's batch holds a pool thread on a gate; caller B's trivial
  // batch must finish on the other threads without waiting for A's.
  if (std::min(4u, std::thread::hardware_concurrency()) < 2) {
    GTEST_SKIP() << "run_parallel runs inline below 2 threads";
  }
  std::promise<void> a_started;
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  std::thread caller_a([&] {
    std::vector<std::function<void()>> tasks;
    tasks.push_back([&] {
      a_started.set_value();
      open.wait();
    });
    tasks.push_back([] {});
    core::run_parallel(std::move(tasks));
  });
  a_started.get_future().wait();

  std::atomic<int> b_ran{0};
  auto caller_b = std::async(std::launch::async, [&] {
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 4; ++i) tasks.push_back([&b_ran] { b_ran++; });
    core::run_parallel(std::move(tasks));
  });
  const bool b_done =
      caller_b.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  gate.set_value();  // release A whatever happened, so nothing hangs
  caller_b.get();
  caller_a.join();
  if (!b_done) FAIL() << "caller B waited for caller A's blocked task";
  EXPECT_EQ(b_ran.load(), 4);
}

}  // namespace
}  // namespace dv
