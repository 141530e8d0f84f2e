// Figure 12 — Temporal characteristics of the network-link traffic for the
// three application workloads (timeline plots of total traffic over time).
//
// Paper: the three applications have very different temporal structure;
// AMG shows three traffic bursts (beginning, middle and near the end),
// MiniFE iterates periodically, AMR Boxlib is irregular with a couple of
// heavy phases.
#include <cstdio>

#include "bench_common.hpp"
#include "util/stats.hpp"

namespace {

/// Counts rising edges above `factor` x mean in a series.
int count_bursts(const std::vector<double>& series, double factor) {
  dv::Accumulator acc;
  for (double v : series) acc.add(v);
  int bursts = 0;
  bool in_burst = false;
  for (double v : series) {
    const bool high = v > factor * acc.mean();
    if (high && !in_burst) ++bursts;
    in_burst = high;
  }
  return bursts;
}

}  // namespace

int main() {
  using namespace dv;
  bench::banner(
      "Figure 12 — temporal characteristics of AMG / AMR Boxlib / MiniFE",
      "AMG: three bursts; AMR Boxlib: irregular phases; MiniFE: periodic "
      "iteration structure");

  std::vector<metrics::RunMetrics> runs;
  for (const char* appname : {"amg", "amr_boxlib", "minife"}) {
    auto cfg = bench::paper_df5_app(appname, routing::Algo::kAdaptive);
    cfg.sample_dt = 10'000.0;  // finer than the paper's rates; one scale
    runs.push_back(app::run_experiment(cfg).run);
  }

  std::vector<int> bursts(3);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const core::DataSet data(runs[i]);
    core::TimelineView tv(data);
    const auto series = tv.series("local_traffic");
    bursts[i] = count_bursts(series, 2.0);

    // Print the series the way the paper plots it (normalized sparkline).
    double peak = 0;
    for (double v : series) peak = std::max(peak, v);
    std::printf("%-12s (%zu frames, peak %.1f MB/frame): ",
                runs[i].workload.c_str(), series.size(), peak / 1e6);
    static const char* glyph = " .:-=+*#%@";
    for (std::size_t f = 0; f < series.size(); f += std::max<std::size_t>(1, series.size() / 80)) {
      const int level =
          peak > 0 ? static_cast<int>(series[f] / peak * 9.0) : 0;
      std::printf("%c", glyph[level]);
    }
    std::printf("\n");

    core::SvgDocument doc(900, 240);
    doc.rect(0, 0, 900, 240, core::Style::filled(Rgb{255, 255, 255}));
    doc.text(450, 16, "Fig. 12 — " + runs[i].workload + " link traffic over time",
             12, Rgb{40, 40, 40}, "middle");
    tv.render(doc, 8, 24, 884, 208);
    doc.save(bench::out_path("fig12_" + runs[i].workload + "_timeline.svg"));
  }

  std::printf("burst counts (>2x mean): amg=%d amr_boxlib=%d minife=%d\n",
              bursts[0], bursts[1], bursts[2]);
  bench::shape_check(bursts[0] == 3,
                     "AMG shows exactly three traffic bursts");
  bench::shape_check(bursts[2] >= 5,
                     "MiniFE shows repeated iteration bursts");
  bench::shape_check(bursts[1] >= 1 && bursts[1] <= 4,
                     "AMR Boxlib shows a small number of irregular phases");

  // The three temporal signatures are mutually distinct.
  bench::shape_check(bursts[0] != bursts[2],
                     "applications are distinguishable from their timelines");
  return bench::footer();
}
