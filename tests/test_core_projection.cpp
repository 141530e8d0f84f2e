// Projection-view tests: ring construction, angular layout, scales,
// ribbons (chord layout invariants), selection/highlight, SVG output.
#include <gtest/gtest.h>

#include <numeric>

#include "core/presets.hpp"
#include "core/projection.hpp"
#include "helpers.hpp"
#include "ribbon_oracle.hpp"

namespace dv::core {
namespace {

constexpr double kTau = 6.283185307179586;

ProjectionSpec fig4_style_spec() {
  return SpecBuilder()
      .level(Entity::kGlobalLink)
      .aggregate({"router_rank", "router_port"})
      .color("sat_time")
      .size("traffic")
      .colors({"white", "purple"})
      .level(Entity::kTerminal)
      .aggregate({"router_rank", "router_port"})
      .color("sat_time")
      .level(Entity::kTerminal)
      .color("workload")
      .size("avg_latency")
      .x("avg_hops")
      .y("data_size")
      .ribbons(Entity::kLocalLink, "router_rank")
      .build();
}

TEST(Projection, RingStructureMatchesSpec) {
  const auto mini = dv::testing::make_mini_run();
  const DataSet data(mini.run);
  const ProjectionView view(data, fig4_style_spec());
  ASSERT_EQ(view.rings().size(), 3u);
  const auto& r0 = view.rings()[0];
  // 4 ranks x 2 global ports per router on the p=2 dragonfly... rank count
  // a=4, h=2 -> 8 (rank, port) pairs... router_port here is the absolute
  // port index (2 terminal + 3 local + 2 global = indices 5,6).
  EXPECT_EQ(r0.items.size(), 4u * 2u);
  EXPECT_EQ(r0.type, PlotType::kBarChart);
  EXPECT_EQ(view.rings()[1].type, PlotType::kHeatmap1D);
  EXPECT_EQ(view.rings()[2].type, PlotType::kScatter);
  // Individual terminals on the outer ring.
  EXPECT_EQ(view.rings()[2].items.size(), mini.topo.num_terminals());
}

TEST(Projection, AngularSpansTileTheCircle) {
  const auto mini = dv::testing::make_mini_run();
  const DataSet data(mini.run);
  const ProjectionView view(data, fig4_style_spec());
  for (const auto& ring : view.rings()) {
    double covered = 0.0;
    for (std::size_t i = 0; i < ring.items.size(); ++i) {
      const auto& it = ring.items[i];
      EXPECT_LT(it.a0, it.a1);
      covered += it.a1 - it.a0;
      if (i > 0) {
        EXPECT_NEAR(ring.items[i - 1].a1, it.a0, 1e-9) << "gap in ring";
      }
    }
    EXPECT_NEAR(covered, kTau, 1e-6);
  }
}

TEST(Projection, NormalizedChannelsInUnitRange) {
  const auto mini = dv::testing::make_mini_run();
  const DataSet data(mini.run);
  const ProjectionView view(data, fig4_style_spec());
  for (const auto& ring : view.rings()) {
    for (const auto& it : ring.items) {
      EXPECT_GE(it.color_t, 0.0);
      EXPECT_LE(it.color_t, 1.0);
      EXPECT_GE(it.size_t_, 0.0);
      EXPECT_LE(it.size_t_, 1.0);
    }
  }
}

TEST(Projection, ItemsMaximizingAChannelGetT1) {
  const auto mini = dv::testing::make_mini_run();
  const DataSet data(mini.run);
  const ProjectionView view(data, fig4_style_spec());
  const auto& ring = view.rings()[0];
  double max_val = 0;
  for (const auto& it : ring.items) max_val = std::max(max_val, it.size_value);
  bool found = false;
  for (const auto& it : ring.items) {
    if (it.size_value == max_val && max_val > 0) {
      EXPECT_DOUBLE_EQ(it.size_t_, 1.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Projection, SelectionReturnsSourceRows) {
  const auto mini = dv::testing::make_mini_run();
  const DataSet data(mini.run);
  const ProjectionView view(data, fig4_style_spec());
  // All ring-1 items together cover every terminal exactly once.
  std::vector<std::uint32_t> all;
  for (std::size_t i = 0; i < view.rings()[1].items.size(); ++i) {
    const auto& rows = view.select(1, i);
    all.insert(all.end(), rows.begin(), rows.end());
  }
  std::sort(all.begin(), all.end());
  std::vector<std::uint32_t> expect(mini.topo.num_terminals());
  std::iota(expect.begin(), expect.end(), 0u);
  EXPECT_EQ(all, expect);
  EXPECT_THROW(view.select(9, 0), Error);
}

TEST(Projection, HighlightMarksMatchingItems) {
  const auto mini = dv::testing::make_mini_run();
  const DataSet data(mini.run);
  ProjectionView view(data, fig4_style_spec());
  const auto hits = view.highlight(Entity::kTerminal, {0u, 1u, 2u});
  EXPECT_GT(hits, 0u);
  std::size_t marked = 0;
  for (const auto& ring : view.rings()) {
    for (const auto& it : ring.items) marked += it.highlighted;
  }
  EXPECT_EQ(marked, hits);
  view.clear_highlight();
  for (const auto& ring : view.rings()) {
    for (const auto& it : ring.items) EXPECT_FALSE(it.highlighted);
  }
}

TEST(Projection, RibbonChordInvariants) {
  const auto mini = dv::testing::make_mini_run();
  const DataSet data(mini.run);
  const ProjectionView view(data, fig4_style_spec());
  ASSERT_FALSE(view.arcs().empty());
  ASSERT_FALSE(view.ribbons().empty());
  // Arc spans are disjoint and ordered.
  for (std::size_t i = 1; i < view.arcs().size(); ++i) {
    EXPECT_GE(view.arcs()[i].a0, view.arcs()[i - 1].a1 - 1e-9);
  }
  for (const auto& rb : view.ribbons()) {
    // Each ribbon end sits inside its arc.
    const auto& arc_a = view.arcs()[rb.arc_a];
    const auto& arc_b = view.arcs()[rb.arc_b];
    EXPECT_GE(rb.a0, arc_a.a0 - 1e-9);
    EXPECT_LE(rb.a1, arc_a.a1 + 1e-9);
    EXPECT_GE(rb.b0, arc_b.a0 - 1e-9);
    EXPECT_LE(rb.b1, arc_b.a1 + 1e-9);
    EXPECT_GT(rb.size_value, 0.0);
    EXPECT_FALSE(rb.source_rows.empty());
  }
  // Bundles sum to the table's total traffic over used links.
  const auto& links = data.table(Entity::kLocalLink);
  const auto& traffic = links.column("traffic");
  const double total = std::accumulate(traffic.begin(), traffic.end(), 0.0);
  double bundled = 0;
  for (const auto& rb : view.ribbons()) bundled += rb.size_value;
  EXPECT_NEAR(bundled, total, total * 1e-9);
}

TEST(Projection, RibbonsBundleByRankGroupOrJobOnly) {
  const auto mini = dv::testing::make_mini_run();
  const DataSet data(mini.run);
  ProjectionSpec spec = fig4_style_spec();
  for (const char* key : {"traffic", "router", "port"}) {
    spec.ribbons.key = key;
    EXPECT_THROW(ProjectionView(data, spec), Error) << key;
  }
}

TEST(Projection, MaxBinsProducesPartitionedRing) {
  const auto mini = dv::testing::make_mini_run();
  const DataSet data(mini.run);
  const auto spec = SpecBuilder()
                        .level(Entity::kGlobalLink)
                        .aggregate({"group_id"})
                        .max_bins(4)
                        .color("sat_time")
                        .no_ribbons()
                        .build();
  const ProjectionView view(data, spec);
  // 9 groups with maxBins 4 -> bucket size 2 -> 5 partitions.
  EXPECT_EQ(view.rings()[0].items.size(), 5u);
}

TEST(Projection, FilterRestrictsRing) {
  const auto mini = dv::testing::make_mini_run();
  const DataSet data(mini.run);
  const auto spec = SpecBuilder()
                        .level(Entity::kRouter)
                        .aggregate({"group_id"})
                        .filter("group_id", 0, 2)
                        .color("local_traffic")
                        .no_ribbons()
                        .build();
  const ProjectionView view(data, spec);
  EXPECT_EQ(view.rings()[0].items.size(), 3u);
}

TEST(Projection, SharedScalesWidenDomains) {
  const auto mini = dv::testing::make_mini_run();
  const DataSet data(mini.run);
  const auto spec = fig4_style_spec();
  ScaleSet shared = ProjectionView::compute_scales(data, spec);
  // Inflate one domain far beyond the local max.
  shared.get_or_add("L0/size").include(1e15);
  const ProjectionView view(data, spec, &shared);
  for (const auto& it : view.rings()[0].items) {
    EXPECT_LT(it.size_t_, 0.01) << "shared scale should compress local values";
  }
}

TEST(Projection, CategoricalJobColors) {
  const auto mini = dv::testing::make_mini_run();
  const DataSet data(mini.run);
  const ProjectionView view(data, fig4_style_spec());
  const auto& outer = view.rings()[2];
  // Terminals of job 0 and job 1 get the distinct categorical colors;
  // idle terminals get gray.
  const auto& jobs = data.table(Entity::kTerminal).column("workload");
  for (std::size_t i = 0; i < outer.items.size(); ++i) {
    const auto job = static_cast<std::int64_t>(jobs[outer.items[i].source_rows[0]]);
    EXPECT_EQ(outer.items[i].color, categorical_color(job));
  }
  EXPECT_EQ(categorical_color(-1), (Rgb{170, 170, 170}));
  EXPECT_NE(categorical_color(0), categorical_color(1));
}

TEST(Projection, DrillDownFocusesOnClickedPartition) {
  // The Fig. 5 workflow: an overview binned to partitions; clicking a
  // partition yields the detail view of exactly its groups.
  const auto mini = dv::testing::make_mini_run();
  const DataSet data(mini.run);
  const auto overview = SpecBuilder()
                            .level(Entity::kGlobalLink)
                            .aggregate({"group_id"})
                            .max_bins(4)
                            .color("sat_time")
                            .size("traffic")
                            .level(Entity::kTerminal)
                            .aggregate({"group_id"})
                            .color("sat_time")
                            .ribbons(Entity::kLocalLink, "router_rank")
                            .build();
  const ProjectionView view(data, overview);
  ASSERT_EQ(view.rings()[0].items.size(), 5u);  // 9 groups, maxBins 4

  const auto focused_spec = view.drill_down(0, 0);
  const ProjectionView focused(data, focused_spec);
  // The first partition covers groups 0..1 (bucket size 2); the focused
  // view shows those groups individually on every level.
  EXPECT_EQ(focused.rings()[0].items.size(), 2u);
  EXPECT_EQ(focused.rings()[1].items.size(), 2u);
  // And its terminal rows really are only those groups' terminals.
  const auto& grp = data.table(Entity::kTerminal).column("group_id");
  for (const auto& it : focused.rings()[1].items) {
    for (std::uint32_t r : it.source_rows) EXPECT_LE(grp[r], 1.0);
  }
  // Drill-down on an individual-entity ring is rejected.
  const auto flat = SpecBuilder()
                        .level(Entity::kTerminal)
                        .color("sat_time")
                        .no_ribbons()
                        .build();
  const ProjectionView flat_view(data, flat);
  EXPECT_THROW(flat_view.drill_down(0, 0), Error);
}

TEST(Projection, LegendDescribesEveryLevel) {
  const auto mini = dv::testing::make_mini_run();
  const DataSet data(mini.run);
  const ProjectionView view(data, fig4_style_spec());
  EXPECT_GT(view.legend_height(), 0.0);
  const std::string svg = view.to_svg(400);
  // One legend line per ring plus the ribbon line, with channel names and
  // the shared color-scale domains.
  EXPECT_NE(svg.find("ring 0 (bar_chart)"), std::string::npos);
  EXPECT_NE(svg.find("ring 2 (scatter)"), std::string::npos);
  EXPECT_NE(svg.find("ribbons: local_link by router_rank"), std::string::npos);
  EXPECT_NE(svg.find("color=sat_time"), std::string::npos);
  EXPECT_NE(svg.find("x=avg_hops"), std::string::npos);
}

TEST(Projection, SvgRendersAllItems) {
  const auto mini = dv::testing::make_mini_run();
  const DataSet data(mini.run);
  const ProjectionView view(data, fig4_style_spec());
  const std::string svg = view.to_svg(400, "test view");
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  EXPECT_NE(svg.find("test view"), std::string::npos);
  // At least one path per ribbon and per non-scatter ring item.
  std::size_t paths = 0;
  for (std::size_t pos = svg.find("<path"); pos != std::string::npos;
       pos = svg.find("<path", pos + 1)) {
    ++paths;
  }
  EXPECT_GE(paths, view.ribbons().size() + view.rings()[1].items.size());
}

/// A sampled DF(3) packet run of one job. With `ranks` well below the 162
/// terminals and minimal routing, many links carry nothing.
metrics::RunMetrics df3_run(std::uint32_t ranks, routing::Algo algo,
                            bool uniform_random) {
  const topo::Dragonfly topo = topo::Dragonfly::canonical(3);
  const auto placement = placement::place_jobs(
      topo, {{"job0", ranks, placement::Policy::kRandomRouter}}, 7);
  workload::Config cfg;
  cfg.ranks = ranks;
  cfg.total_bytes = 2 << 20;
  cfg.window = 2.0e4;
  cfg.seed = 7;
  cfg.msg_bytes = 4096;
  netsim::Params params;
  params.packet_size = 1024;
  netsim::Network net(topo, algo, params, 7);
  net.set_jobs(placement);
  net.set_labels(uniform_random ? "ur" : "nn", "random_router", {"job0"});
  net.add_messages(workload::map_to_terminals(
      uniform_random ? workload::generate_uniform_random(cfg)
                     : workload::generate_nearest_neighbor(cfg),
      placement, 0));
  net.enable_sampling(1000.0);
  return net.run();
}

void expect_same_ribbons(const ProjectionView& view,
                         const dv::testing::RibbonLayer& want,
                         const std::string& where) {
  SCOPED_TRACE(where);
  ASSERT_EQ(view.arcs().size(), want.arcs.size());
  for (std::size_t i = 0; i < want.arcs.size(); ++i) {
    const RibbonArc& got = view.arcs()[i];
    EXPECT_EQ(got.key, want.arcs[i].key) << "arc " << i;
    EXPECT_EQ(got.a0, want.arcs[i].a0) << "arc " << i;
    EXPECT_EQ(got.a1, want.arcs[i].a1) << "arc " << i;
    EXPECT_EQ(got.weight, want.arcs[i].weight) << "arc " << i;
    EXPECT_EQ(got.color, want.arcs[i].color) << "arc " << i;
  }
  ASSERT_EQ(view.ribbons().size(), want.ribbons.size());
  for (std::size_t i = 0; i < want.ribbons.size(); ++i) {
    const RibbonBundle& got = view.ribbons()[i];
    const RibbonBundle& rb = want.ribbons[i];
    EXPECT_EQ(got.arc_a, rb.arc_a) << "ribbon " << i;
    EXPECT_EQ(got.arc_b, rb.arc_b) << "ribbon " << i;
    EXPECT_EQ(got.a0, rb.a0) << "ribbon " << i;
    EXPECT_EQ(got.a1, rb.a1) << "ribbon " << i;
    EXPECT_EQ(got.b0, rb.b0) << "ribbon " << i;
    EXPECT_EQ(got.b1, rb.b1) << "ribbon " << i;
    EXPECT_EQ(got.size_value, rb.size_value) << "ribbon " << i;
    EXPECT_EQ(got.color_value, rb.color_value) << "ribbon " << i;
    EXPECT_EQ(got.source_rows, rb.source_rows) << "ribbon " << i;
  }
}

TEST(Projection, FlatRibbonBundlerMatchesTheMapOracle) {
  // A full-machine UR run, and a sparse nearest-neighbour run whose unused
  // links still contribute arcs.
  const metrics::RunMetrics runs[] = {
      df3_run(162, routing::Algo::kAdaptive, true),
      df3_run(16, routing::Algo::kMinimal, false)};
  std::size_t compared = 0, unused_links = 0;
  for (const auto& run : runs) {
    const DataSet data(run);
    QueryEngine engine(data);
    for (const std::string& name : preset_names()) {
      ProjectionSpec spec = preset(name);
      if (!spec.ribbons.enabled) continue;
      for (const TimeWindow w :
           {TimeWindow{}, TimeWindow{0.0, run.end_time / 3}}) {
        spec.window = w;
        const ProjectionView view(data, spec, nullptr, &engine);
        const auto table = engine.table(spec.ribbons.entity, spec.window);
        const auto& size = table->column(spec.ribbons.size_attr);
        const auto& color = table->column(spec.ribbons.color_attr);
        for (std::size_t r = 0; r < table->rows(); ++r) {
          unused_links += size[r] == 0.0 && color[r] == 0.0;
        }
        expect_same_ribbons(
            view, dv::testing::bundle_ribbons_oracle(*table, spec.ribbons),
            run.workload + " / " + name + (w.active() ? " windowed" : ""));
        compared += view.ribbons().size();
      }
    }
  }
  EXPECT_GT(compared, 0u);
  EXPECT_GT(unused_links, 0u);
}

}  // namespace
}  // namespace dv::core
