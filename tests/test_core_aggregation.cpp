// Aggregation tests: grouping, filters, maxBins re-binning (including the
// paper's 73-groups -> 9-partitions case), reducers, sum preservation.
#include <gtest/gtest.h>

#include <numeric>

#include "core/aggregation.hpp"
#include "util/rng.hpp"

namespace dv::core {
namespace {

/// Table with n rows: key = i / stride, val = i, weight = 1 + i % 3.
DataTable make_table(std::size_t n, std::size_t stride) {
  std::vector<double> key(n), val(n), w(n);
  for (std::size_t i = 0; i < n; ++i) {
    key[i] = static_cast<double>(i / stride);
    val[i] = static_cast<double>(i);
    w[i] = static_cast<double>(1 + i % 3);
  }
  DataTable t;
  t.add_column("key", std::move(key));
  t.add_column("val", std::move(val));
  t.add_column("packets_finished", std::move(w));
  return t;
}

TEST(Aggregation, GroupsByKeyInOrder) {
  const auto t = make_table(20, 5);
  const Aggregation agg(t, {{"key"}, 0, {}, {}});
  ASSERT_EQ(agg.size(), 4u);
  for (std::size_t g = 0; g < 4; ++g) {
    EXPECT_DOUBLE_EQ(agg.groups()[g].keys[0], static_cast<double>(g));
    EXPECT_EQ(agg.groups()[g].rows.size(), 5u);
  }
}

TEST(Aggregation, EmptyKeysMeansIndividualRows) {
  const auto t = make_table(7, 2);
  const Aggregation agg(t, {});
  EXPECT_EQ(agg.size(), 7u);
  EXPECT_FALSE(agg.binned());
}

TEST(Aggregation, SumPreservationUnderAnyGrouping) {
  const auto t = make_table(60, 7);
  const double total = std::accumulate(t.column("val").begin(),
                                       t.column("val").end(), 0.0);
  for (std::size_t bins : {0u, 2u, 3u, 100u}) {
    AggregationSpec spec;
    spec.keys = {"key"};
    spec.max_bins = bins;
    const Aggregation agg(t, spec);
    const auto sums = agg.reduce("val", Reducer::kSum);
    EXPECT_DOUBLE_EQ(std::accumulate(sums.begin(), sums.end(), 0.0), total)
        << "bins=" << bins;
  }
}

TEST(Aggregation, MaxBinsMatchesPaperExample) {
  // Fig. 5a: 73 groups with maxBins 8 aggregate to 9 partitions.
  std::vector<double> key(73);
  std::iota(key.begin(), key.end(), 0.0);
  DataTable t;
  t.add_column("group_id", std::move(key));
  AggregationSpec spec;
  spec.keys = {"group_id"};
  spec.max_bins = 8;
  const Aggregation agg(t, spec);
  EXPECT_TRUE(agg.binned());
  EXPECT_EQ(agg.size(), 9u);
}

TEST(Aggregation, MaxBinsNoOpWhenFewGroups) {
  const auto t = make_table(20, 5);  // 4 distinct keys
  AggregationSpec spec;
  spec.keys = {"key"};
  spec.max_bins = 8;
  const Aggregation agg(t, spec);
  EXPECT_FALSE(agg.binned());
  EXPECT_EQ(agg.size(), 4u);
}

TEST(Aggregation, MultiKeyGrouping) {
  DataTable t;
  t.add_column("a", {0, 0, 0, 1, 1, 1});
  t.add_column("b", {0, 1, 0, 1, 0, 1});
  t.add_column("v", {1, 2, 3, 4, 5, 6});
  AggregationSpec spec;
  spec.keys = {"a", "b"};
  const Aggregation agg(t, spec);
  ASSERT_EQ(agg.size(), 4u);  // (0,0) (0,1) (1,0) (1,1)
  const auto sums = agg.reduce("v", Reducer::kSum);
  EXPECT_DOUBLE_EQ(sums[0], 4.0);  // rows 0, 2
  EXPECT_DOUBLE_EQ(sums[1], 2.0);
  EXPECT_DOUBLE_EQ(sums[2], 5.0);
  EXPECT_DOUBLE_EQ(sums[3], 10.0);
}

TEST(Aggregation, FiltersAreInclusiveRanges) {
  const auto t = make_table(20, 5);
  AggregationSpec spec;
  spec.keys = {"key"};
  spec.filters = {{"val", 5.0, 9.0}};
  const Aggregation agg(t, spec);
  ASSERT_EQ(agg.size(), 1u);  // only key 1 (rows 5..9)
  EXPECT_EQ(agg.filtered_rows().size(), 5u);
  EXPECT_EQ(agg.filtered_rows().front(), 5u);
  EXPECT_EQ(agg.filtered_rows().back(), 9u);
}

TEST(Aggregation, FilterOnMissingColumnThrows) {
  const auto t = make_table(10, 2);
  AggregationSpec spec;
  spec.filters = {{"nope", 0.0, 1.0}};
  EXPECT_THROW(Aggregation(t, spec), Error);
  AggregationSpec inverted;
  inverted.filters = {{"val", 5.0, 1.0}};
  EXPECT_THROW(Aggregation(t, inverted), Error);
}

TEST(Aggregation, DisjointFilterStillValidatesLaterFilters) {
  const auto t = make_table(10, 2);
  // A filter disjoint from the column extent empties the result…
  AggregationSpec disjoint;
  disjoint.filters = {{"val", 100.0, 200.0}};
  EXPECT_TRUE(Aggregation(t, disjoint).filtered_rows().empty());
  // …but must not short-circuit validation of the filters after it: an
  // inverted later range or a later filter on a missing column still
  // throws instead of silently yielding the empty result.
  AggregationSpec inverted;
  inverted.filters = {{"val", 100.0, 200.0}, {"val", 5.0, 1.0}};
  EXPECT_THROW(Aggregation(t, inverted), Error);
  AggregationSpec missing;
  missing.filters = {{"val", 100.0, 200.0}, {"nope", 0.0, 1.0}};
  EXPECT_THROW(Aggregation(t, missing), Error);
}

TEST(Aggregation, Reducers) {
  DataTable t;
  t.add_column("k", {0, 0, 0});
  t.add_column("v", {1.0, 2.0, 6.0});
  const Aggregation agg(t, {{"k"}, 0, {}, {}});
  EXPECT_DOUBLE_EQ(agg.reduce("v", Reducer::kSum)[0], 9.0);
  EXPECT_DOUBLE_EQ(agg.reduce("v", Reducer::kMean)[0], 3.0);
  EXPECT_DOUBLE_EQ(agg.reduce("v", Reducer::kMax)[0], 6.0);
  EXPECT_DOUBLE_EQ(agg.reduce("v", Reducer::kMin)[0], 1.0);
  EXPECT_DOUBLE_EQ(agg.reduce("v", Reducer::kCount)[0], 3.0);
}

TEST(Aggregation, MeanIsWeightedByPacketsFinished) {
  // Aggregated avg_latency must equal the exact average over packets, not
  // the average of per-terminal averages.
  DataTable t;
  t.add_column("k", {0, 0});
  t.add_column("avg_latency", {10.0, 100.0});
  t.add_column("packets_finished", {9.0, 1.0});
  const Aggregation agg(t, {{"k"}, 0, {}, {}});
  const double weighted = agg.reduce("avg_latency", Reducer::kMean)[0];
  EXPECT_DOUBLE_EQ(weighted, (9.0 * 10.0 + 1.0 * 100.0) / 10.0);
}

TEST(Aggregation, DefaultReducerRule) {
  EXPECT_EQ(default_reducer("traffic"), Reducer::kSum);
  EXPECT_EQ(default_reducer("sat_time"), Reducer::kSum);
  EXPECT_EQ(default_reducer("avg_latency"), Reducer::kMean);
  EXPECT_EQ(default_reducer("avg_hops"), Reducer::kMean);
}

TEST(Aggregation, Fig2bHistogramOverContinuousMetric) {
  // Fig. 2(b) of the paper: "we can further divide the global links into a
  // histogram of six bins, for example, based on accumulated traffic of
  // the link". Aggregating by a continuous metric makes every row its own
  // key; maxBins re-bins the sorted values into (at most ~) six rank-order
  // partitions.
  Rng rng(42);
  const std::size_t n = 300;
  std::vector<double> traffic(n);
  for (auto& v : traffic) v = rng.next_double() * 1e9;
  DataTable t;
  t.add_column("traffic", traffic);
  AggregationSpec spec;
  spec.keys = {"traffic"};
  spec.max_bins = 6;
  const Aggregation agg(t, spec);
  EXPECT_TRUE(agg.binned());
  EXPECT_LE(agg.size(), 7u);
  EXPECT_GE(agg.size(), 6u);
  // Bins are traffic-ordered: every value in bin i is below every value in
  // bin i+1 (rank-order histogram).
  for (std::size_t g = 1; g < agg.size(); ++g) {
    double prev_max = 0, cur_min = 2e9;
    for (std::uint32_t r : agg.groups()[g - 1].rows) {
      prev_max = std::max(prev_max, traffic[r]);
    }
    for (std::uint32_t r : agg.groups()[g].rows) {
      cur_min = std::min(cur_min, traffic[r]);
    }
    EXPECT_LT(prev_max, cur_min);
  }
}

TEST(Aggregation, BinnedGroupsPreserveRowMembership) {
  std::vector<double> key(30);
  std::iota(key.begin(), key.end(), 0.0);
  DataTable t;
  t.add_column("k", std::move(key));
  AggregationSpec spec;
  spec.keys = {"k"};
  spec.max_bins = 4;
  const Aggregation agg(t, spec);
  std::size_t covered = 0;
  for (const auto& g : agg.groups()) covered += g.rows.size();
  EXPECT_EQ(covered, 30u);
  EXPECT_LE(agg.size(), 5u);  // ~max_bins partitions
}

}  // namespace
}  // namespace dv::core
