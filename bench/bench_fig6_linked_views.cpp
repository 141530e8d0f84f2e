// Figure 6 — The full linked-view user interface: projection + detail +
// timeline for AMG (1728 ranks) on the 2,550-terminal Dragonfly, with a
// time range selected around a traffic burst and a brush on high-latency
// terminals highlighting their associated links.
#include <cstdio>

#include "bench_common.hpp"
#include "util/stats.hpp"

int main() {
  using namespace dv;
  bench::banner(
      "Figure 6 — linked projection/detail/timeline views (AMG, 2550 nodes)",
      "time-range selection updates the projection; selecting high-latency "
      "terminals highlights their saturated links");

  auto cfg = bench::paper_df5_app("amg", routing::Algo::kAdaptive);
  cfg.sample_dt = 20'000.0;  // the paper's 0.02 ms AMG sampling rate
  const auto result = app::run_experiment(cfg);
  std::printf("simulated %s (%llu events)\n", result.topo.describe().c_str(),
              static_cast<unsigned long long>(result.events));

  const auto spec = core::SpecBuilder()
                        .level(core::Entity::kGlobalLink)
                        .aggregate({"router_rank"})
                        .color("sat_time")
                        .size("traffic")
                        .colors({"white", "purple"})
                        .level(core::Entity::kTerminal)
                        .aggregate({"router_rank"})
                        .color("sat_time")
                        .level(core::Entity::kTerminal)
                        .color("workload")
                        .size("avg_latency")
                        .x("avg_hops")
                        .y("data_size")
                        .ribbons(core::Entity::kLocalLink, "router_rank")
                        .build();
  core::AnalysisSession session{core::DataSet(result.run), spec};

  // Timeline: find the second traffic burst and select it (Fig. 6c).
  const auto series = session.timeline().series("local_traffic");
  std::printf("timeline: %zu frames at %.0f ns\n", series.size(),
              session.timeline().dt());
  // Peaks: frames above 3x the mean.
  Accumulator acc;
  for (double v : series) acc.add(v);
  std::vector<std::size_t> bursts;
  bool in_burst = false;
  for (std::size_t f = 0; f < series.size(); ++f) {
    const bool high = series[f] > 2.0 * acc.mean();
    if (high && !in_burst) bursts.push_back(f);
    in_burst = high;
  }
  std::printf("burst count (frames > 2x mean): %zu at frames:", bursts.size());
  for (auto f : bursts) std::printf(" %zu", f);
  std::printf("\n");
  bench::shape_check(bursts.size() == 3,
                     "AMG shows three traffic bursts (begin/middle/end)");

  session.save_svg(bench::out_path("fig6_full_ui.svg"), 1400, 900);

  if (bursts.size() >= 2) {
    const double dt = session.timeline().dt();
    const double t0 = static_cast<double>(bursts[1]) * dt - 2 * dt;
    const double t1 = static_cast<double>(bursts[1]) * dt + 5 * dt;
    session.select_time_range(std::max(0.0, t0), t1);
    session.save_svg(bench::out_path("fig6_burst_selected.svg"), 1400, 900);
    // During the burst only some global links saturate (the paper's
    // observation motivating progressive adaptive routing).
    const auto& ring0 = session.projection().rings()[0];
    int saturated = 0;
    for (const auto& it : ring0.items) saturated += it.color_value > 0;
    std::printf("burst window: %d/%zu global-link aggregates saturated\n",
                saturated, ring0.items.size());
    bench::shape_check(saturated > 0 &&
                           saturated < static_cast<int>(ring0.items.size()),
                       "only specific global links saturate inside the burst");
    session.clear_time_range();
  }

  // Brush the outer-ring metric: terminals in the top latency decile.
  const auto& lat =
      core::DataSet(result.run).table(core::Entity::kTerminal)
          .column("avg_latency");
  std::vector<double> nonzero;
  for (double v : lat) {
    if (v > 0) nonzero.push_back(v);
  }
  const double p90 = percentile(nonzero, 0.90);
  session.brush("avg_latency", p90, 1e18);
  const auto selected = session.detail().selected_terminals();
  const auto assoc_local =
      session.detail().associated_links(core::Entity::kLocalLink);
  const auto assoc_global =
      session.detail().associated_links(core::Entity::kGlobalLink);
  std::printf("brush avg_latency >= p90: %zu terminals, %zu local + %zu "
              "global associated links\n",
              selected.size(), assoc_local.size(), assoc_global.size());
  bench::shape_check(!selected.empty() && !assoc_local.empty() &&
                         !assoc_global.empty(),
                     "selecting high-latency terminals highlights their "
                     "associated network links");
  session.save_svg(bench::out_path("fig6_brushed.svg"), 1400, 900);
  return bench::footer();
}
