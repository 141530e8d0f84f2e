// Extension — Fat Tree through the dragonviz VA pipeline (Sec. VI).
//
// The paper's future work: "extend our system to support analysis and
// exploration of other network topologies, such as Fat Tree and Slim Fly".
// This bench runs uniform-random and bisection workloads on a k=8 fat tree
// (128 hosts) on the same credit/VC packet model as the Dragonfly, laid
// out as the standard entity tables (pods = groups, edge/agg switches =
// routers, cores = pseudo-pods), and renders the same radial projection
// views used for the Dragonfly. The flow backend runs the same fabric and
// routing, so it must put the same bytes on every link.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench_common.hpp"
#include "flow/flow.hpp"
#include "netsim/network.hpp"
#include "util/stats.hpp"
#include "workload/workload.hpp"

namespace {

/// Runs `pattern` on the k=8 fat tree; Net is netsim::Network or
/// flow::FlowNetwork (same constructor and calls).
template <class Net>
dv::metrics::RunMetrics run_ft(const char* pattern, std::uint64_t seed) {
  const dv::topo::FatTree topo(8);
  // Fat-tree links: 100 ns and full host bandwidth on every switch link.
  dv::netsim::Params params;
  params.local_latency = 100.0;
  params.global_latency = 100.0;
  params.global_bandwidth = params.local_bandwidth;
  Net net(topo, params, seed);
  net.set_labels(pattern, "contiguous", {pattern});
  dv::placement::Placement placement;
  placement.job_of.assign(topo.num_hosts(), 0);
  net.set_jobs(placement);
  dv::workload::Config cfg;
  cfg.ranks = topo.num_hosts();
  cfg.total_bytes = 64ull << 20;
  cfg.window = 2.0e5;
  cfg.seed = seed;
  for (const auto& m : dv::workload::generate(pattern, cfg)) {
    net.add_message({m.src_rank, m.dst_rank, m.bytes, m.time, 0});
  }
  return net.run();
}

/// Largest relative difference of per-link traffic between two runs.
double max_link_rel_diff(const dv::metrics::RunMetrics& a,
                         const dv::metrics::RunMetrics& b) {
  double worst = 0.0;
  auto scan = [&](const std::vector<dv::metrics::LinkMetrics>& x,
                  const std::vector<dv::metrics::LinkMetrics>& y) {
    if (x.size() != y.size()) worst = INFINITY;
    for (std::size_t i = 0; i < std::min(x.size(), y.size()); ++i) {
      const double d = std::abs(x[i].traffic - y[i].traffic);
      if (d > 0.0) worst = std::max(worst, d / y[i].traffic);
    }
  };
  scan(a.local_links, b.local_links);
  scan(a.global_links, b.global_links);
  return worst;
}

double cv(const std::vector<dv::metrics::LinkMetrics>& links) {
  dv::Accumulator acc;
  for (const auto& l : links) acc.add(l.traffic);
  return acc.mean() > 0 ? acc.stddev() / acc.mean() : 0.0;
}

}  // namespace

int main() {
  using namespace dv;
  bench::banner(
      "Extension — Fat Tree via the dragonviz VA layer (128 hosts, k=8)",
      "future work of Sec. VI: other topologies through the same entity "
      "tables, aggregation and radial views");

  const auto ur = run_ft<netsim::Network>("uniform_random", 3);
  const auto bis = run_ft<netsim::Network>("bisection", 3);
  const auto ur_flow = run_ft<flow::FlowNetwork>("uniform_random", 3);
  const auto bis_flow = run_ft<flow::FlowNetwork>("bisection", 3);

  std::printf("%-24s %14s %14s\n", "", "uniform-random", "bisection");
  auto row = [](const char* label, double a, double b) {
    std::printf("%-24s %14.4g %14.4g\n", label, a, b);
  };
  const auto ur_g = bench::link_stats(ur.global_links);
  const auto bis_g = bench::link_stats(bis.global_links);
  row("core-link traffic (MB)", ur_g.traffic / 1e6, bis_g.traffic / 1e6);
  row("core-link traffic CV", cv(ur.global_links), cv(bis.global_links));
  row("core-link sat (us)", ur_g.sat / 1e3, bis_g.sat / 1e3);
  const auto ur_t = bench::term_stats(ur);
  const auto bis_t = bench::term_stats(bis);
  row("avg hops", ur_t.avg_hops, bis_t.avg_hops);
  row("avg latency (ns)", ur_t.avg_latency, bis_t.avg_latency);
  const double ur_diff = max_link_rel_diff(ur_flow, ur);
  const double bis_diff = max_link_rel_diff(bis_flow, bis);
  row("flow vs packet link diff", ur_diff, bis_diff);

  bench::shape_check(cv(ur.global_links) < 0.6,
                     "ECMP balances uniform-random load over the core");
  bench::shape_check(bis_t.avg_hops > 4.5,
                     "bisection traffic crosses the core (5-switch paths)");
  bench::shape_check(ur_t.avg_hops > 3.0 && ur_t.avg_hops < 5.0,
                     "uniform random mixes 1/3/5-switch paths");
  bench::shape_check(ur_diff <= 1e-12 && bis_diff <= 1e-12,
                     "flow and packet put the same bytes on every link "
                     "(up/down ECMP)");

  // The same VA pipeline renders the fat tree.
  const core::DataSet data(ur);
  const auto spec = core::SpecBuilder()
                        .level(core::Entity::kGlobalLink)
                        .aggregate({"group_id"})
                        .color("sat_time")
                        .size("traffic")
                        .colors({"white", "purple"})
                        .level(core::Entity::kTerminal)
                        .aggregate({"router_rank"})
                        .color("sat_time")
                        .colors({"white", "steelblue"})
                        .ribbons(core::Entity::kLocalLink, "group_id")
                        .build();
  const core::ProjectionView view(data, spec);
  view.save_svg(bench::out_path("ext_fattree_radial.svg"), 800,
                "k=8 fat tree, uniform random, via the dragonviz VA layer");
  std::printf("radial view: %zu rings, %zu ribbons (pods as groups)\n",
              view.rings().size(), view.ribbons().size());
  bench::shape_check(!view.rings()[0].items.empty() &&
                         !view.ribbons().empty(),
                     "fat-tree runs flow through the unchanged VA pipeline");
  return bench::footer();
}
