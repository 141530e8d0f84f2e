// Figure 13 — Job placement policies and inter-job interference: AMG,
// AMR Boxlib and MiniFE run in parallel on the paper's 5,256-terminal
// Dragonfly under (a) random-group, (b) random-router and (c) the hybrid
// placement the paper derives (AMR Boxlib on random-group, the others on
// random-router), plus (d) the per-application packet-latency comparison.
//
// Paper (13d): switching random-group -> random-router helps AMG (~+26%,
// from adaptive routing) but degrades AMR Boxlib (~-17%, its minimal
// routes are congested by the heavy jobs); the hybrid placement repairs
// AMR Boxlib's loss while keeping the gains.
#include <cstdio>

#include "bench_common.hpp"

int main() {
  using namespace dv;
  using placement::Policy;
  bench::banner(
      "Figure 13 — job placement and inter-job interference (5,256 nodes)",
      "random-router helps AMG, hurts AMR Boxlib; hybrid repairs AMR "
      "while keeping the gains (13d)");

  struct Case {
    const char* name;
    Policy amg, amr, minife;
  };
  const Case cases[] = {
      {"random_group", Policy::kRandomGroup, Policy::kRandomGroup,
       Policy::kRandomGroup},
      {"random_router", Policy::kRandomRouter, Policy::kRandomRouter,
       Policy::kRandomRouter},
      {"hybrid", Policy::kRandomRouter, Policy::kRandomGroup,
       Policy::kRandomRouter},
  };

  std::vector<metrics::RunMetrics> runs;
  for (const auto& c : cases) {
    const auto cfg = bench::fig13_config(c.amg, c.amr, c.minife);
    const auto result = app::run_experiment(cfg);
    std::printf("%-14s simulated (%llu events, %.1fs wall)\n", c.name,
                static_cast<unsigned long long>(result.events),
                result.wall_seconds);
    runs.push_back(result.run);
  }

  // Fig. 13a-c: job-level ribbon views under shared scales. Global links
  // bundle by job; routers carrying only Valiant transit form the
  // "proxies" arc (job -1 renders gray).
  const core::DataSet dg(runs[0]), dr(runs[1]), dh(runs[2]);
  const auto spec = core::SpecBuilder()
                        .level(core::Entity::kLocalLink)
                        .aggregate({"src_job"})
                        .color("sat_time")
                        .size("traffic")
                        .colors({"white", "steelblue"})
                        .level(core::Entity::kTerminal)
                        .aggregate({"workload"})
                        .color("avg_latency")
                        .size("avg_hops")
                        .colors({"white", "crimson"})
                        .ribbons(core::Entity::kGlobalLink, "job")
                        .build();
  const core::ComparisonView cmp(
      {&dg, &dr, &dh}, spec,
      {"(a) Random Group", "(b) Random Router", "(c) Hybrid"});
  cmp.save_svg(bench::out_path("fig13_placement.svg"));

  // Fig. 13d: avg packet latency per application and placement.
  const auto summaries = cmp.job_summaries();
  std::printf("\nFig. 13d — avg packet latency (us, lower is better)\n");
  std::printf("%-12s %14s %14s %14s\n", "job", "random-group",
              "random-router", "hybrid");
  double lat[3][3];
  for (std::size_t j = 0; j < 3; ++j) {
    for (std::size_t c = 0; c < 3; ++c) lat[j][c] = summaries[c][j].avg_latency;
    std::printf("%-12s %14.1f %14.1f %14.1f\n", summaries[0][j].name.c_str(),
                lat[j][0] / 1e3, lat[j][1] / 1e3, lat[j][2] / 1e3);
  }
  auto gain = [&](std::size_t job, std::size_t c) {
    return (lat[job][0] - lat[job][c]) / lat[job][0] * 100.0;
  };
  std::printf("\nchange vs random-group (positive = faster):\n");
  std::printf("%-12s %13s%% %13s%%\n", "job", "random-router", "hybrid");
  for (std::size_t j = 0; j < 3; ++j) {
    std::printf("%-12s %13.1f%% %13.1f%%\n", summaries[0][j].name.c_str(),
                gain(j, 1), gain(j, 2));
  }

  // Shape checks against the paper's reading of 13d.
  bench::shape_check(gain(0, 1) > 10.0,
                     "random-router gives AMG a large latency gain "
                     "(paper: ~26%)");
  bench::shape_check(gain(1, 1) < 0.0,
                     "random-router degrades AMR Boxlib (paper: ~-17%)");
  bench::shape_check(gain(1, 2) > gain(1, 1) + 3.0,
                     "hybrid repairs most of AMR Boxlib's loss");
  bench::shape_check(gain(0, 2) > 10.0,
                     "hybrid keeps AMG's adaptive-routing gain");
  bench::shape_check(std::abs(gain(2, 2)) < 15.0 && std::abs(gain(2, 1)) < 60.0,
                     "MiniFE is comparatively insensitive (intra-group "
                     "congestion bound)");

  // Proxy arcs appear in the random-group view: routers with no job carry
  // Valiant transit (the paper's 'proxies').
  bool proxies = false;
  for (const auto& arc : cmp.view(0).arcs()) {
    if (arc.key < 0) proxies = true;
  }
  bench::shape_check(proxies,
                     "proxy routers (no job) form their own ribbon arc");

  // Fig. 13a vs 13b claim: "very few non-minimal routes between AMG and
  // AMR Boxlib with random group placement" but heavy AMG<->AMR global
  // traffic under random router. Compare the AMG-AMR ribbon bundle size
  // (jobs 0 and 1) across the two views.
  auto amg_amr_bundle = [&](std::size_t run_idx) {
    for (const auto& rb : cmp.view(run_idx).ribbons()) {
      const double ka = cmp.view(run_idx).arcs()[rb.arc_a].key;
      const double kb = cmp.view(run_idx).arcs()[rb.arc_b].key;
      if ((ka == 0.0 && kb == 1.0) || (ka == 1.0 && kb == 0.0)) {
        return rb.size_value;
      }
    }
    return 0.0;
  };
  const double cross_group = amg_amr_bundle(0);
  const double cross_router = amg_amr_bundle(1);
  std::printf("\nAMG<->AMR global-link traffic: random-group %.1f MB, "
              "random-router %.1f MB\n",
              cross_group / 1e6, cross_router / 1e6);
  bench::shape_check(cross_router > 5.0 * std::max(1.0, cross_group),
                     "random-group has very few AMG<->AMR routes; "
                     "random-router mixes the jobs heavily (13a vs 13b)");
  return bench::footer();
}
