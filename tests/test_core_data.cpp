// DataTable / DataSet tests: entity tables (Fig. 2a schema), derived
// columns, time-range slicing.
#include <gtest/gtest.h>

#include <cmath>

#include "core/datatable.hpp"
#include "helpers.hpp"
#include "slice_oracle.hpp"

namespace dv::core {
namespace {

TEST(DataTable, ColumnsAndExtent) {
  DataTable t;
  t.add_column("a", {1.0, 5.0, 3.0});
  t.add_column("b", {2.0, 2.0, 2.0});
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_TRUE(t.has_column("a"));
  EXPECT_FALSE(t.has_column("c"));
  EXPECT_DOUBLE_EQ(t.column("a")[1], 5.0);
  const auto [lo, hi] = t.extent("a");
  EXPECT_DOUBLE_EQ(lo, 1.0);
  EXPECT_DOUBLE_EQ(hi, 5.0);
}

TEST(DataTable, Errors) {
  DataTable t;
  t.add_column("a", {1.0});
  EXPECT_THROW(t.add_column("a", {2.0}), Error);       // duplicate
  EXPECT_THROW(t.add_column("b", {1.0, 2.0}), Error);  // length mismatch
  EXPECT_THROW(t.column("zz"), Error);
}

TEST(DataSet, EntityTablesHaveFig2aSchema) {
  const auto mini = dv::testing::make_mini_run();
  const DataSet data(mini.run);

  const DataTable& routers = data.table(Entity::kRouter);
  EXPECT_EQ(routers.rows(), mini.topo.num_routers());
  for (const char* col : {"router", "group_id", "router_rank",
                          "global_traffic", "global_sat_time",
                          "local_traffic", "local_sat_time", "job"}) {
    EXPECT_TRUE(routers.has_column(col)) << col;
  }

  const DataTable& links = data.table(Entity::kLocalLink);
  EXPECT_EQ(links.rows(), mini.topo.num_local_links());
  for (const char* col : {"src_router", "src_port", "dst_router", "dst_port",
                          "group_id", "router_rank", "router_port",
                          "dst_group", "dst_rank", "src_job", "dst_job",
                          "traffic", "sat_time"}) {
    EXPECT_TRUE(links.has_column(col)) << col;
  }

  const DataTable& terms = data.table(Entity::kTerminal);
  EXPECT_EQ(terms.rows(), mini.topo.num_terminals());
  for (const char* col : {"terminal", "router", "group_id", "router_rank",
                          "router_port", "data_size", "sat_time",
                          "packets_finished", "avg_latency", "avg_hops",
                          "workload"}) {
    EXPECT_TRUE(terms.has_column(col)) << col;
  }
}

TEST(DataSet, DerivedColumnsAreConsistent) {
  const auto mini = dv::testing::make_mini_run();
  const DataSet data(mini.run);
  const DataTable& terms = data.table(Entity::kTerminal);
  const auto& job = terms.column("workload");
  // Job column matches the placement.
  for (std::uint32_t t = 0; t < mini.topo.num_terminals(); ++t) {
    EXPECT_DOUBLE_EQ(job[t], mini.placement.job_of[t]);
  }
  // Link dst_group column matches topology.
  const DataTable& links = data.table(Entity::kGlobalLink);
  const auto& dst_router = links.column("dst_router");
  const auto& dst_group = links.column("dst_group");
  for (std::uint32_t r = 0; r < links.rows(); ++r) {
    EXPECT_DOUBLE_EQ(dst_group[r],
                     std::floor(dst_router[r] / mini.topo.routers_per_group()));
  }
}

TEST(DataSet, RouterJobIsMajorityOfTerminals) {
  const auto mini = dv::testing::make_mini_run();
  const DataSet data(mini.run);
  const auto& rjob = data.table(Entity::kRouter).column("job");
  for (std::uint32_t r = 0; r < mini.topo.num_routers(); ++r) {
    // Contiguous job 0 occupies routers 0..2 (12 ranks / 4 per router).
    if (r < 3) {
      EXPECT_DOUBLE_EQ(rjob[r], 0.0);
    }
  }
}

TEST(DataSet, SliceTimeConservesTotals) {
  const auto mini = dv::testing::make_mini_run();
  const DataSet data(mini.run);
  const double end = mini.run.end_time;
  const DataSet whole = dv::testing::slice_time(data, 0.0, end + 1000.0);
  const auto& full = data.table(Entity::kLocalLink).column("traffic");
  const auto& sliced = whole.table(Entity::kLocalLink).column("traffic");
  double sum_full = 0, sum_sliced = 0;
  for (std::size_t i = 0; i < full.size(); ++i) {
    sum_full += full[i];
    sum_sliced += sliced[i];
  }
  EXPECT_NEAR(sum_sliced, sum_full, sum_full * 1e-3);

  // Two halves sum to the whole.
  const DataSet first = dv::testing::slice_time(data, 0.0, end / 2);
  const DataSet second =
      dv::testing::slice_time(data, end / 2, end + 1000.0);
  const auto& t1 = first.table(Entity::kTerminal).column("data_size");
  const auto& t2 = second.table(Entity::kTerminal).column("data_size");
  const auto& tf = data.table(Entity::kTerminal).column("data_size");
  for (std::size_t i = 0; i < tf.size(); ++i) {
    EXPECT_NEAR(t1[i] + t2[i], tf[i], std::max(1.0, tf[i]) * 1e-3);
  }
}

TEST(DataSet, SliceTimeRequiresSeries) {
  auto mini = dv::testing::make_mini_run();
  mini.run.sample_dt = 0.0;  // strip the series
  const DataSet data(mini.run);
  EXPECT_THROW(dv::testing::slice_time(data, 0.0, 100.0), Error);
}

TEST(DataSet, EntityStringRoundTrip) {
  for (Entity e : {Entity::kRouter, Entity::kLocalLink, Entity::kGlobalLink,
                   Entity::kTerminal}) {
    EXPECT_EQ(entity_from_string(to_string(e)), e);
  }
  EXPECT_EQ(entity_from_string("terminals"), Entity::kTerminal);
  EXPECT_THROW(entity_from_string("nope"), Error);
}

}  // namespace
}  // namespace dv::core
