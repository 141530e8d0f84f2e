// Figure 10 — Intra-group communication patterns and link-class metric
// correlations for the three applications, each run alone on the
// 2,550-terminal Dragonfly (adaptive routing, contiguous placement).
//
// Paper: AMG and MiniFE balance traffic across local and global links;
// AMG's local links sit at a similar saturation level; MiniFE saturates
// only a few local/global links, with back pressure from global links
// showing up on local links; AMR Boxlib is strongly unbalanced — the
// first two groups generate >60 % of inter-group traffic.
#include <cstdio>
#include <cmath>

#include "bench_common.hpp"
#include "util/stats.hpp"
#include "workload/workload.hpp"

namespace {

using dv::metrics::RunMetrics;

double cv(const std::vector<double>& v) {
  dv::Accumulator acc;
  for (double x : v) acc.add(x);
  return acc.mean() > 0 ? acc.stddev() / acc.mean() : 0.0;
}

/// Pearson correlation between per-router global and local saturation.
double backpressure_corr(const RunMetrics& run) {
  const auto routers = run.derive_routers();
  double mg = 0, ml = 0;
  for (const auto& r : routers) {
    mg += r.global_sat_time;
    ml += r.local_sat_time;
  }
  mg /= static_cast<double>(routers.size());
  ml /= static_cast<double>(routers.size());
  double num = 0, dg = 0, dl = 0;
  for (const auto& r : routers) {
    num += (r.global_sat_time - mg) * (r.local_sat_time - ml);
    dg += (r.global_sat_time - mg) * (r.global_sat_time - mg);
    dl += (r.local_sat_time - ml) * (r.local_sat_time - ml);
  }
  return dg > 0 && dl > 0 ? num / std::sqrt(dg * dl) : 0.0;
}

}  // namespace

int main() {
  using namespace dv;
  bench::banner(
      "Figure 10 — intra-group patterns of AMG / AMR Boxlib / MiniFE",
      "AMG+MiniFE balanced; AMR's first groups dominate; MiniFE back "
      "pressure couples global and local saturation");

  std::vector<RunMetrics> runs;
  for (const char* appname : {"amg", "amr_boxlib", "minife"}) {
    runs.push_back(
        app::run_experiment(bench::paper_df5_app(appname,
                                                 routing::Algo::kAdaptive))
            .run);
  }

  std::printf("%-12s %12s %12s %14s %14s %16s\n", "app", "local MB",
              "global MB", "local sat us", "global sat us",
              "g1+g2 created shr");
  std::vector<double> local_cv(3), first2_share(3), bp(3);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& run = runs[i];
    const auto l = bench::link_stats(run.local_links);
    const auto g = bench::link_stats(run.global_links);
    std::vector<double> ltraf;
    for (const auto& link : run.local_links) ltraf.push_back(link.traffic);
    local_cv[i] = cv(ltraf);
    // Share of *created* inter-group traffic originating in the first two
    // groups (the paper's "routers in the first two groups created more
    // than 60 percent of the inter-group traffic"): computed from the
    // traffic matrix so Valiant transit is not re-attributed.
    {
      const char* names[] = {"amg", "amr_boxlib", "minife"};
      const auto& info = workload::app_info(names[i]);
      workload::Config wcfg;
      wcfg.ranks = info.ranks;
      wcfg.total_bytes =
          names[i] == std::string("amg")
              ? (150ull << 20)
              : static_cast<std::uint64_t>(info.scaled_bytes);
      wcfg.window = 5.0e5;
      wcfg.seed = 7;
      const auto msgs = workload::generate(names[i], wcfg);
      const std::uint32_t per_group =
          run.routers_per_group * run.terminals_per_router;
      double inter = 0, inter_first2 = 0;
      for (const auto& m : msgs) {
        const std::uint32_t sg = m.src_rank / per_group;  // contiguous
        const std::uint32_t dg = m.dst_rank / per_group;
        if (sg == dg) continue;
        inter += static_cast<double>(m.bytes);
        if (sg < 2) inter_first2 += static_cast<double>(m.bytes);
      }
      first2_share[i] = inter > 0 ? inter_first2 / inter : 0.0;
    }
    bp[i] = backpressure_corr(run);
    std::printf("%-12s %12.1f %12.1f %14.1f %14.1f %15.0f%%\n",
                run.workload.c_str(), l.traffic / 1e6, g.traffic / 1e6,
                l.sat / 1e3, g.sat / 1e3, first2_share[i] * 100);
  }
  std::printf("local traffic CV: amg=%.2f amr=%.2f minife=%.2f\n",
              local_cv[0], local_cv[1], local_cv[2]);
  std::printf("router global/local sat correlation (back pressure): "
              "amg=%.2f amr=%.2f minife=%.2f\n",
              bp[0], bp[1], bp[2]);

  // Shared-scale projection views per app (the figure's three panels).
  const core::DataSet d0(runs[0]), d1(runs[1]), d2(runs[2]);
  const auto spec = core::SpecBuilder()
                        .level(core::Entity::kGlobalLink)
                        .aggregate({"router_rank"})
                        .color("sat_time")
                        .size("traffic")
                        .colors({"white", "purple"})
                        .level(core::Entity::kTerminal)
                        .aggregate({"router_rank"})
                        .color("sat_time")
                        .colors({"white", "crimson"})
                        .ribbons(core::Entity::kLocalLink, "router_rank")
                        .build();
  core::ComparisonView({&d0, &d1, &d2}, spec,
                       {"AMG", "AMR Boxlib", "MiniFE"})
      .save_svg(bench::out_path("fig10_intragroup.svg"));

  bench::shape_check(first2_share[1] > 0.60,
                     "AMR Boxlib: first two groups generate >60% of the "
                     "inter-group traffic");
  bench::shape_check(first2_share[0] < 0.2 && first2_share[2] < 0.2,
                     "AMG and MiniFE spread inter-group traffic");
  bench::shape_check(local_cv[1] > 2.0 * local_cv[0],
                     "AMR's intra-group load is far more unbalanced than "
                     "AMG's");
  bench::shape_check(bp[2] > 0.3,
                     "MiniFE: high local-link saturation is back pressure "
                     "from the global links (router-level correlation)");
  return bench::footer();
}
