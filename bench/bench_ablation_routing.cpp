// Ablation — routing strategies on bursty and adversarial traffic.
//
// The paper's burst analysis (Sec. V-C) observes that source-adaptive
// routing can be notified too late during fast traffic bursts and suggests
// progressive adaptive routing (PAR), which re-evaluates the decision at
// every hop in the source group. This bench sweeps all four implemented
// strategies over (a) the bursty AMG workload and (b) the classic
// adversarial tornado pattern (every group floods its neighbour group,
// expressed as nearest-neighbour traffic with a one-group stride).
#include <cstdio>

#include "bench_common.hpp"

namespace {

using dv::routing::Algo;

dv::metrics::RunMetrics run_case(const char* workload, Algo algo,
                                 std::uint32_t nn_stride) {
  dv::app::ExperimentConfig cfg;
  cfg.dragonfly_p = 4;  // 1,056 terminals
  dv::app::JobSpec job;
  job.workload = workload;
  job.policy = dv::placement::Policy::kContiguous;
  if (std::string(workload) == "amg") {
    job.ranks = 512;
    job.bytes = 80u << 20;
  } else {
    job.bytes = 0;  // synthetic default per-rank volume
  }
  cfg.jobs = {job};
  cfg.routing = algo;
  cfg.synthetic_bytes_per_rank = 96 * 1024;
  cfg.nn_stride = nn_stride;
  cfg.window = 2.0e5;
  cfg.seed = 13;
  return dv::app::run_experiment(cfg).run;
}

}  // namespace

int main() {
  using namespace dv;
  bench::banner(
      "Ablation — routing strategies under bursts and adversarial traffic",
      "PAR should beat source-adaptive UGAL on fast bursts (Sec. V-C); "
      "Valiant/adaptive must beat minimal on tornado");

  const Algo algos[] = {Algo::kMinimal, Algo::kNonMinimal, Algo::kAdaptive,
                        Algo::kProgressiveAdaptive};

  std::printf("\n(a) bursty AMG halo exchange\n");
  std::printf("%-22s %14s %14s %14s\n", "routing", "latency (ns)",
              "peak gsat (us)", "finish (us)");
  double lat[4];
  for (int i = 0; i < 4; ++i) {
    const auto run = run_case("amg", algos[i], 0);
    const auto t = bench::term_stats(run);
    const auto g = bench::link_stats(run.global_links);
    lat[i] = t.avg_latency;
    std::printf("%-22s %14.1f %14.2f %14.1f\n",
                routing::to_string(algos[i]).c_str(), t.avg_latency,
                g.peak_sat / 1e3, run.end_time / 1e3);
  }
  bench::shape_check(lat[2] < lat[0],
                     "adaptive beats minimal on the bursty halo");
  bench::shape_check(lat[3] <= lat[2] * 1.05,
                     "PAR is at least competitive with source-adaptive "
                     "UGAL on bursts (paper suggests it should help)");

  std::printf("\n(b) tornado: every group floods its neighbour group\n");
  std::printf("%-22s %14s %14s %14s\n", "routing", "latency (ns)",
              "peak gsat (us)", "finish (us)");
  // stride = terminals per group on DF(4): 8 routers x 4 terminals.
  const std::uint32_t stride = 8 * 4;
  double tlat[4];
  for (int i = 0; i < 4; ++i) {
    const auto run = run_case("nearest_neighbor", algos[i], stride);
    const auto t = bench::term_stats(run);
    const auto g = bench::link_stats(run.global_links);
    tlat[i] = t.avg_latency;
    std::printf("%-22s %14.1f %14.2f %14.1f\n",
                routing::to_string(algos[i]).c_str(), t.avg_latency,
                g.peak_sat / 1e3, run.end_time / 1e3);
  }
  bench::shape_check(tlat[1] < tlat[0] && tlat[2] < tlat[0],
                     "Valiant and adaptive crush minimal on tornado (the "
                     "textbook dragonfly adversarial case)");
  bench::shape_check(tlat[3] < tlat[0],
                     "PAR also avoids the tornado hotspot");
  return bench::footer();
}
