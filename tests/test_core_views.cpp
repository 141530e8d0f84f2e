// Detail/timeline/linked-session tests (the Fig. 6 interactions).
#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "core/views.hpp"
#include "helpers.hpp"
#include "slice_oracle.hpp"

namespace dv::core {
namespace {

ProjectionSpec simple_spec() {
  return SpecBuilder()
      .level(Entity::kGlobalLink)
      .aggregate({"router_rank"})
      .color("sat_time")
      .size("traffic")
      .level(Entity::kTerminal)
      .aggregate({"router_rank"})
      .color("sat_time")
      .ribbons(Entity::kLocalLink, "router_rank")
      .build();
}

TEST(DetailView, BrushFiltersTerminals) {
  const auto mini = dv::testing::make_mini_run();
  const DataSet data(mini.run);
  DetailView dv(data);
  const auto all = dv.selected_terminals();
  EXPECT_EQ(all.size(), mini.topo.num_terminals());

  // Brush out idle terminals (workload >= 0).
  dv.brush("workload", 0.0, 10.0);
  const auto active = dv.selected_terminals();
  EXPECT_EQ(active.size(), 24u);  // 2 jobs x 12 ranks

  // Second brush composes.
  dv.brush("data_size", 1.0, 1e18);
  EXPECT_LE(dv.selected_terminals().size(), active.size());

  // Re-brushing an axis replaces the range.
  dv.brush("workload", 1.0, 1.0);
  EXPECT_LE(dv.selected_terminals().size(), 12u);

  dv.clear_brushes();
  EXPECT_EQ(dv.selected_terminals().size(), mini.topo.num_terminals());
}

TEST(DetailView, BrushValidation) {
  const auto mini = dv::testing::make_mini_run();
  const DataSet data(mini.run);
  DetailView dv(data);
  EXPECT_THROW(dv.brush("no_such_axis", 0, 1), Error);
  EXPECT_THROW(dv.brush("workload", 5, 1), Error);
  EXPECT_THROW(DetailView(data, {"bogus_column"}), Error);
}

TEST(DetailView, AssociatedLinksTouchSelectedRouters) {
  const auto mini = dv::testing::make_mini_run();
  const DataSet data(mini.run);
  DetailView dv(data);
  // Select the terminals of router 0 explicitly.
  std::vector<std::uint32_t> rows;
  for (std::uint32_t t = 0; t < mini.topo.terminals_per_router(); ++t) {
    rows.push_back(t);
  }
  dv.select_terminals(rows);
  const auto links = dv.associated_links(Entity::kLocalLink);
  ASSERT_FALSE(links.empty());
  const auto& table = data.table(Entity::kLocalLink);
  const auto& src = table.column("src_router");
  const auto& dst = table.column("dst_router");
  for (std::uint32_t l : links) {
    EXPECT_TRUE(src[l] == 0.0 || dst[l] == 0.0);
  }
  // Every local link of router 0 is included (a-1 out + a-1 in).
  EXPECT_EQ(links.size(), 2u * (mini.topo.routers_per_group() - 1));
  EXPECT_THROW(dv.associated_links(Entity::kRouter), Error);
}

TEST(DetailView, RendersSvg) {
  const auto mini = dv::testing::make_mini_run();
  const DataSet data(mini.run);
  DetailView dv(data);
  dv.brush("avg_latency", 0.0, 1e18);
  const auto svg = dv.to_svg();
  EXPECT_NE(svg.find("Global links"), std::string::npos);
  EXPECT_NE(svg.find("Terminals"), std::string::npos);
  EXPECT_NE(svg.find("<polyline"), std::string::npos);
}

TEST(TimelineView, SeriesTotalsMatchRun) {
  const auto mini = dv::testing::make_mini_run();
  const DataSet data(mini.run);
  TimelineView tv(data);
  const auto s = tv.series("local_traffic");
  EXPECT_GT(s.size(), 2u);
  double sum = 0;
  for (double v : s) sum += v;
  EXPECT_NEAR(sum, mini.run.total_local_traffic(),
              mini.run.total_local_traffic() * 1e-3);
  EXPECT_THROW(tv.series("bogus"), Error);
}

TEST(TimelineView, SliceRespectsSelection) {
  const auto mini = dv::testing::make_mini_run();
  const DataSet data(mini.run);
  TimelineView tv(data);
  EXPECT_FALSE(tv.has_selection());
  tv.select_range(0.0, mini.run.end_time / 4);
  ASSERT_TRUE(tv.has_selection());
  const DataTable windowed =
      data.windowed_table(Entity::kTerminal, tv.t0(), tv.t1());
  const auto& full = data.table(Entity::kTerminal).column("data_size");
  const auto& part = windowed.column("data_size");
  double sum_full = 0, sum_part = 0;
  for (std::size_t i = 0; i < full.size(); ++i) {
    sum_full += full[i];
    sum_part += part[i];
  }
  EXPECT_LT(sum_part, sum_full);
  EXPECT_GT(sum_part, 0.0);
  tv.clear_range();
  EXPECT_FALSE(tv.has_selection());
  EXPECT_THROW(tv.select_range(5.0, 5.0), Error);
}

TEST(TimelineView, RequiresSampledRun) {
  auto mini = dv::testing::make_mini_run();
  mini.run.sample_dt = 0.0;
  const DataSet data(mini.run);
  EXPECT_THROW(TimelineView{data}, Error);
}

TEST(RenderGeometry, BarChartExtentTracksSizeChannel) {
  // The SVG is generated from size_t_: items with larger normalized size
  // must produce longer radial bars. We verify on the computed model (the
  // single source of truth for the renderer).
  const auto mini = dv::testing::make_mini_run();
  const DataSet data(mini.run);
  const auto spec = SpecBuilder()
                        .level(Entity::kGlobalLink)
                        .aggregate({"router_rank"})
                        .color("sat_time")
                        .size("traffic")
                        .no_ribbons()
                        .build();
  const ProjectionView view(data, spec);
  const auto& items = view.rings()[0].items;
  for (std::size_t i = 0; i < items.size(); ++i) {
    for (std::size_t j = 0; j < items.size(); ++j) {
      if (items[i].size_value < items[j].size_value) {
        EXPECT_LE(items[i].size_t_, items[j].size_t_);
      }
    }
  }
}

TEST(RenderGeometry, Heatmap2DCoversDistinctGridCells) {
  const auto mini = dv::testing::make_mini_run();
  const DataSet data(mini.run);
  const auto spec = SpecBuilder()
                        .level(Entity::kLocalLink)
                        .aggregate({"router_rank", "router_port"})
                        .color("traffic")
                        .x("router_rank")
                        .y("router_port")
                        .no_ribbons()
                        .build();
  const ProjectionView view(data, spec);
  ASSERT_EQ(view.rings()[0].type, PlotType::kHeatmap2D);
  // Each (rank, port) pair occupies a unique grid cell.
  std::set<std::pair<double, double>> cells;
  for (const auto& it : view.rings()[0].items) {
    EXPECT_TRUE(cells.insert({it.x_value, it.y_value}).second);
  }
  // a ranks x (a-1) local ports.
  EXPECT_EQ(cells.size(),
            static_cast<std::size_t>(mini.topo.routers_per_group()) *
                (mini.topo.routers_per_group() - 1));
}

TEST(Session, TimeRangeReaggregatesProjection) {
  const auto mini = dv::testing::make_mini_run();
  AnalysisSession session(DataSet(mini.run), simple_spec());
  // Whole-run totals on ring 0.
  double total_before = 0;
  for (const auto& it : session.projection().rings()[0].items) {
    total_before += it.size_value;
  }
  session.select_time_range(0.0, mini.run.end_time / 4);
  double total_after = 0;
  for (const auto& it : session.projection().rings()[0].items) {
    total_after += it.size_value;
  }
  EXPECT_LT(total_after, total_before);
  session.clear_time_range();
  double total_restored = 0;
  for (const auto& it : session.projection().rings()[0].items) {
    total_restored += it.size_value;
  }
  EXPECT_NEAR(total_restored, total_before, total_before * 1e-3);
}

TEST(Session, BrushFiltersProjectionTerminals) {
  const auto mini = dv::testing::make_mini_run();
  AnalysisSession session(DataSet(mini.run), simple_spec());
  std::size_t terms_before = 0;
  for (const auto& it : session.projection().rings()[1].items) {
    terms_before += it.source_rows.size();
  }
  EXPECT_EQ(terms_before, mini.topo.num_terminals());
  session.brush("workload", 0.0, 10.0);  // only placed terminals
  std::size_t terms_after = 0;
  for (const auto& it : session.projection().rings()[1].items) {
    terms_after += it.source_rows.size();
  }
  EXPECT_EQ(terms_after, 24u);
}

TEST(Session, SelectAggregateHighlightsAssociatedLinks) {
  const auto mini = dv::testing::make_mini_run();
  AnalysisSession session(DataSet(mini.run), simple_spec());
  session.select_aggregate(1, 0);  // terminals of rank 0
  std::size_t highlighted_ribbons = 0;
  for (const auto& rb : session.projection().ribbons()) {
    highlighted_ribbons += rb.highlighted;
  }
  EXPECT_GT(highlighted_ribbons, 0u)
      << "selecting terminals should highlight their local-link ribbons";
  std::size_t highlighted_terms = 0;
  for (const auto& it : session.projection().rings()[1].items) {
    highlighted_terms += it.highlighted;
  }
  EXPECT_EQ(highlighted_terms, 1u);
}

TEST(Session, DetailViewWindowsThroughTheEngine) {
  const auto mini = dv::testing::make_mini_run();
  const DataSet data(mini.run);
  AnalysisSession session(data, simple_spec());
  const double t0 = mini.run.end_time * 0.2, t1 = mini.run.end_time * 0.7;
  session.select_time_range(t0, t1);

  // Every detail-view column equals a dataset rebuilt from the sliced run,
  // bit for bit, and so does the rendered panel.
  const DataSet sliced = dv::testing::slice_time(data, t0, t1);
  for (Entity e :
       {Entity::kTerminal, Entity::kLocalLink, Entity::kGlobalLink}) {
    SCOPED_TRACE(to_string(e));
    const DataTable& got = session.detail().table(e);
    const DataTable& want = sliced.table(e);
    ASSERT_EQ(got.column_names(), want.column_names());
    for (const auto& name : want.column_names()) {
      const auto& g = got.column(name);
      const auto& w = want.column(name);
      ASSERT_EQ(g.size(), w.size()) << name;
      EXPECT_EQ(std::memcmp(g.data(), w.data(), g.size() * sizeof(double)), 0)
          << name;
    }
  }
  EXPECT_EQ(session.detail().to_svg(), DetailView(sliced).to_svg());
  EXPECT_THROW(session.detail().table(Entity::kRouter), Error);

  // Re-selecting the same window is answered from the engine's cache.
  const auto misses = session.query_stats().misses;
  session.select_time_range(t0, t1);
  EXPECT_EQ(session.query_stats().misses, misses);

  // With no window the detail view reads the dataset's own tables, which
  // the session's copy of the dataset shares.
  session.clear_time_range();
  EXPECT_EQ(&session.detail().table(Entity::kTerminal),
            &data.table(Entity::kTerminal));
}

TEST(Session, FullUiSvg) {
  const auto mini = dv::testing::make_mini_run();
  AnalysisSession session(DataSet(mini.run), simple_spec());
  session.select_time_range(0.0, mini.run.end_time / 2);
  const auto svg = session.to_svg(1000, 700);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("dragonviz"), std::string::npos);
  EXPECT_NE(svg.find("Network link traffic"), std::string::npos);
}

}  // namespace
}  // namespace dv::core
