// Figure 11 — Inter-group communication patterns and terminal metric
// correlations for the three applications (same runs as Fig. 10, viewed
// with the Fig. 5a-style configuration: binned group partitions, local
// saturation, avg packet latency on the outer ring).
//
// Paper: all three applications show high variance in per-terminal average
// packet latency and hop count; the view correlates local-link saturation
// with the terminals experiencing it.
#include <cstdio>

#include "bench_common.hpp"
#include "util/stats.hpp"

int main() {
  using namespace dv;
  bench::banner(
      "Figure 11 — inter-group patterns + terminal metrics (3 apps)",
      "high per-terminal variance of avg latency and hop count; terminal "
      "latency correlates with local-link saturation");

  std::vector<metrics::RunMetrics> runs;
  for (const char* appname : {"amg", "amr_boxlib", "minife"}) {
    runs.push_back(
        app::run_experiment(bench::paper_df5_app(appname,
                                                 routing::Algo::kAdaptive))
            .run);
  }

  std::printf("%-12s %14s %12s %12s %10s %10s\n", "app", "avg lat (ns)",
              "lat p10", "lat p90", "avg hops", "hops CV");
  bool all_high_variance = true;
  for (const auto& run : runs) {
    std::vector<double> lat, hops;
    Accumulator lat_acc, hop_acc;
    for (const auto& t : run.terminals) {
      if (t.packets_finished == 0) continue;  // unused terminals filtered
      lat.push_back(t.avg_latency());
      hops.push_back(t.avg_hops());
      lat_acc.add(t.avg_latency());
      hop_acc.add(t.avg_hops());
    }
    const double p10 = percentile(lat, 0.10);
    const double p90 = percentile(lat, 0.90);
    const double hop_cv = hop_acc.stddev() / hop_acc.mean();
    std::printf("%-12s %14.1f %12.1f %12.1f %10.2f %10.2f\n",
                run.workload.c_str(), lat_acc.mean(), p10, p90,
                hop_acc.mean(), hop_cv);
    if (p90 < 1.25 * p10) all_high_variance = false;
  }
  bench::shape_check(all_high_variance,
                     "every application shows high variance in per-terminal "
                     "average packet latency (p90 > 1.25x p10)");

  // The Fig. 5a-style scripted view applied to each run, shared scales.
  const auto spec = core::ProjectionSpec::parse(R"(
    { aggregate : "group_id", maxBins : 8, project : "global_link",
      vmap : { color : "sat_time", size : "traffic" },
      colors : ["white", "purple"]},
    { project : "local_link", aggregate : "router_rank",
      vmap : { color : "sat_time" }, colors : ["white", "steelblue"]},
    { project : "terminal", aggregate : ["router_rank"],
      vmap : { color : "avg_latency", size : "avg_hops" },
      colors : ["white", "crimson"]},
    { ribbons : { project : "global_link", key : "group_id",
                  vmap : { size : "traffic", color : "sat_time" },
                  colors : ["white", "purple"] } }
  )");
  const core::DataSet d0(runs[0]), d1(runs[1]), d2(runs[2]);
  const core::ComparisonView cmp({&d0, &d1, &d2}, spec,
                                 {"AMG", "AMR Boxlib", "MiniFE"});
  cmp.save_svg(bench::out_path("fig11_intergroup.svg"));

  // Correlation claim: terminals attached to routers with saturated local
  // links have above-median latency (checked on the heaviest app).
  const auto& run = runs[2];
  const auto routers = run.derive_routers();
  std::vector<double> lat_all;
  for (const auto& t : run.terminals) {
    if (t.packets_finished) lat_all.push_back(t.avg_latency());
  }
  const double median_lat = percentile(lat_all, 0.5);
  // Routers in the top decile of local saturation.
  std::vector<double> lsat;
  for (const auto& r : routers) lsat.push_back(r.local_sat_time);
  const double sat_p90 = percentile(lsat, 0.9);
  double hot_lat = 0;
  std::uint64_t hot_pkts = 0;
  for (const auto& t : run.terminals) {
    if (routers[t.router].local_sat_time >= sat_p90 && t.packets_finished) {
      hot_lat += t.sum_latency;
      hot_pkts += t.packets_finished;
    }
  }
  if (hot_pkts) {
    const double hot_avg = hot_lat / static_cast<double>(hot_pkts);
    std::printf("MiniFE: terminals on top-decile saturated routers average "
                "%.1f ns vs median %.1f ns\n",
                hot_avg, median_lat);
    bench::shape_check(hot_avg > median_lat,
                       "terminal latency correlates with local-link "
                       "saturation of the attached router");
  }
  return bench::footer();
}
