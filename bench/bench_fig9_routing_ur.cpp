// Figure 9 — Minimal vs. adaptive routing for uniform-random traffic on
// the 9,702-terminal Dragonfly.
//
// Paper: adaptive roughly doubles global-link usage (random proxy groups),
// raises local traffic in proxy groups, removes local-link saturation that
// minimal suffers from path conflicts, and — because the workload is
// already balanced — pays for it with higher hop counts and packet latency.
#include <cstdio>

#include "bench_common.hpp"

namespace {

dv::metrics::RunMetrics run_ur(dv::routing::Algo algo) {
  dv::app::ExperimentConfig cfg;
  cfg.dragonfly_p = 7;  // 9,702 terminals
  dv::app::JobSpec job;
  job.workload = "uniform_random";
  job.policy = dv::placement::Policy::kContiguous;
  job.bytes = 250'000'000;  // light load: minimal is unsaturated overall
  cfg.jobs = {job};
  cfg.routing = algo;
  cfg.window = 1.0e5;
  cfg.seed = 7;
  return dv::app::run_experiment(cfg).run;
}

}  // namespace

int main() {
  using namespace dv;
  bench::banner(
      "Figure 9 — minimal vs adaptive, uniform random on 9,702 nodes",
      "adaptive: higher global usage + local proxy traffic, lower local "
      "saturation, higher avg hops and packet latency");

  const auto mmin = run_ur(routing::Algo::kMinimal);
  const auto madp = run_ur(routing::Algo::kAdaptive);

  const auto lmin = bench::link_stats(mmin.local_links);
  const auto ladp = bench::link_stats(madp.local_links);
  const auto gmin = bench::link_stats(mmin.global_links);
  const auto gadp = bench::link_stats(madp.global_links);
  const auto tmin = bench::term_stats(mmin);
  const auto tadp = bench::term_stats(madp);

  std::printf("%-28s %14s %14s\n", "", "minimal", "adaptive");
  auto row = [](const char* label, double a, double b) {
    std::printf("%-28s %14.4g %14.4g\n", label, a, b);
  };
  row("global traffic (MB)", gmin.traffic / 1e6, gadp.traffic / 1e6);
  row("global sat (us)", gmin.sat / 1e3, gadp.sat / 1e3);
  row("local traffic (MB)", lmin.traffic / 1e6, ladp.traffic / 1e6);
  row("local sat (us)", lmin.sat / 1e3, ladp.sat / 1e3);
  row("avg hops", tmin.avg_hops, tadp.avg_hops);
  row("avg packet latency (ns)", tmin.avg_latency, tadp.avg_latency);

  const core::DataSet d_min(mmin), d_adp(madp);
  const auto spec = core::SpecBuilder()
                        .level(core::Entity::kGlobalLink)
                        .aggregate({"group_id"})
                        .max_bins(12)
                        .color("sat_time")
                        .size("traffic")
                        .colors({"white", "purple"})
                        .level(core::Entity::kLocalLink)
                        .aggregate({"router_rank"})
                        .color("sat_time")
                        .size("traffic")
                        .colors({"white", "steelblue"})
                        .level(core::Entity::kTerminal)
                        .aggregate({"router_rank"})
                        .color("avg_latency")
                        .size("avg_hops")
                        .colors({"white", "crimson"})
                        .ribbons(core::Entity::kGlobalLink, "group_id")
                        .build();
  core::ComparisonView({&d_min, &d_adp}, spec,
                       {"Minimal Routing", "Adaptive Routing"})
      .save_svg(bench::out_path("fig9_routing_ur.svg"));

  bench::shape_check(gadp.traffic > 1.3 * gmin.traffic,
                     "adaptive raises global-link usage (proxy groups)");
  bench::shape_check(ladp.traffic > lmin.traffic,
                     "adaptive raises local traffic in proxy groups");
  bench::shape_check(ladp.sat < 0.2 * lmin.sat,
                     "minimal has low local usage but high saturation from "
                     "path conflicts; adaptive removes it");
  bench::shape_check(tadp.avg_hops > tmin.avg_hops,
                     "adaptive raises average hop count");
  bench::shape_check(tadp.avg_latency > tmin.avg_latency,
                     "adaptive raises average packet latency (UR is "
                     "already balanced)");
  return bench::footer();
}
