// Sweep throughput: the flow backend's reason to exist. Fans the same
// 8-point design grid (workload x routing x load) through `run_sweep`
// under both backends and reports the wall-clock ratio. The grid is the
// byte-heavy/bundle-light regime sweeps live in (structured patterns,
// hundreds of demand pairs, large per-pair volumes) — the packet
// simulator resolves every 2 KB packet while the flow backend solves a
// few hundred water-filling epochs, so the gap is large by construction.
// A second section times the opposite regime: heavy uniform random
// (bundle-heavy/byte-light, the flow backend's historical worst case) and
// gates it at <= 1.5x the packet simulator's wall clock.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "app/sweep.hpp"
#include "bench_common.hpp"

namespace dv {
namespace {

std::string temp_store(const std::string& leaf) {
  const auto dir = (std::filesystem::temp_directory_path() / leaf).string();
  std::filesystem::remove_all(dir);
  return dir;
}

app::SweepConfig grid(const std::string& store_dir, app::Backend backend) {
  app::SweepConfig cfg;
  cfg.base.dragonfly_p = 3;  // canonical 342-terminal dragonfly
  cfg.base.window = 1.0e5;
  cfg.base.seed = 5;
  cfg.base.backend = backend;
  cfg.base.jobs.push_back(app::JobSpec{});  // overwritten per point
  cfg.workloads = {"nearest_neighbor", "transpose"};
  cfg.routings = {"minimal", "adaptive"};
  cfg.scales = {32.0, 64.0};
  cfg.store_dir = store_dir;
  return cfg;
}

/// The historical worst case for the flow backend: heavy uniform random
/// floods it with tens of thousands of tiny concurrent bundles, the
/// bundle-heavy/byte-light regime where PR-8's fixed-epoch loop ran ~30x
/// *slower* than the packet simulator. The event-driven engine must keep
/// this point at packet speed or better.
app::ExperimentConfig heavy_ur(app::Backend backend, bool coarsen) {
  app::ExperimentConfig cfg;
  cfg.dragonfly_p = 3;
  app::JobSpec job;
  job.workload = "uniform_random";
  cfg.jobs.push_back(job);
  cfg.routing = routing::Algo::kMinimal;
  cfg.traffic_scale = 60.0;
  cfg.window = 1.0e5;
  cfg.seed = 5;
  cfg.backend = backend;
  cfg.flow_coarsen = coarsen;
  return cfg;
}

std::string telemetry_json(const app::FlowTelemetry& t) {
  std::string s = "{";
  s += "\"epochs\": " + std::to_string(t.epochs);
  s += ", \"solves\": " + std::to_string(t.solves);
  s += ", \"full_solves\": " + std::to_string(t.full_solves);
  s += ", \"incremental_solves\": " + std::to_string(t.incremental_solves);
  s += ", \"solver_rounds\": " + std::to_string(t.solver_rounds);
  s += ", \"drain_events\": " + std::to_string(t.drain_events);
  return s + "}";
}

}  // namespace
}  // namespace dv

int main() {
  using namespace dv;
  bench::banner("sweep",
                "a design-space sweep under the flow backend is >= 20x "
                "faster than the same grid under the packet simulator");

  const auto flow_dir = temp_store("dv_bench_sweep_flow");
  const auto pkt_dir = temp_store("dv_bench_sweep_packet");

  // median_seconds re-runs the sweep into the same store each rep, which
  // also exercises the idempotent replace-in-place path continuously.
  app::SweepResult flow_res, pkt_res;
  const double flow_s = bench::median_seconds(
      5, [&] { flow_res = app::run_sweep(grid(flow_dir, app::Backend::kFlow)); });
  const double pkt_s = bench::median_seconds(
      5, [&] { pkt_res = app::run_sweep(grid(pkt_dir, app::Backend::kPacket)); });
  const double speedup = pkt_s / flow_s;

  std::printf("%-38s %12s %12s\n", "grid point", "flow uid", "packet uid");
  for (std::size_t i = 0; i < flow_res.points.size(); ++i) {
    std::printf("%-38s %12llu %12llu\n", flow_res.points[i].name.c_str(),
                static_cast<unsigned long long>(flow_res.points[i].uid),
                static_cast<unsigned long long>(pkt_res.points[i].uid));
  }
  std::printf("flow   %8.3f s per 8-point sweep\n", flow_s);
  std::printf("packet %8.3f s per 8-point sweep\n", pkt_s);
  std::printf("speedup: %.1fx\n", speedup);

  // A fresh store must reproduce the exact same run content uids.
  const auto fresh_dir = temp_store("dv_bench_sweep_flow_fresh");
  const auto fresh = app::run_sweep(grid(fresh_dir, app::Backend::kFlow));
  bool uids_match = fresh.points.size() == flow_res.points.size();
  for (std::size_t i = 0; uids_match && i < fresh.points.size(); ++i) {
    uids_match = fresh.points[i].uid == flow_res.points[i].uid;
  }

  bench::shape_check(flow_res.points.size() == 8 && pkt_res.points.size() == 8,
                     "both backends complete the full 8-point grid");
  bench::shape_check(uids_match,
                     "flow sweep into a fresh store reproduces identical uids");
  bench::shape_check(speedup >= 20.0,
                     "flow backend sweeps the grid >= 20x faster than packet");

  // Heavy-UR point: DF(3) uniform random at 60x, minimal routing — the
  // bundle-heavy regime the grid above never enters. Median-of-5 per
  // backend; the last flow rep's solver telemetry goes into the artifact
  // so the bench trajectory can see *why* the number moved.
  app::ExperimentResult ur_flow, ur_coarse;
  const double ur_flow_s = bench::median_seconds(
      5, [&] { ur_flow = app::run_experiment(heavy_ur(app::Backend::kFlow,
                                                      false)); });
  const double ur_coarse_s = bench::median_seconds(
      5, [&] { ur_coarse = app::run_experiment(heavy_ur(app::Backend::kFlow,
                                                        true)); });
  app::ExperimentResult ur_pkt;
  const double ur_pkt_s = bench::median_seconds(
      5, [&] { ur_pkt = app::run_experiment(heavy_ur(app::Backend::kPacket,
                                                     false)); });

  std::printf("heavy UR@60x  flow    %8.3f s  (%llu solves: %llu full + %llu "
              "incremental, %llu epochs)\n",
              ur_flow_s,
              static_cast<unsigned long long>(ur_flow.flow.solves),
              static_cast<unsigned long long>(ur_flow.flow.full_solves),
              static_cast<unsigned long long>(ur_flow.flow.incremental_solves),
              static_cast<unsigned long long>(ur_flow.flow.epochs));
  std::printf("heavy UR@60x  coarsen %8.3f s  (%llu solves, %llu epochs)\n",
              ur_coarse_s,
              static_cast<unsigned long long>(ur_coarse.flow.solves),
              static_cast<unsigned long long>(ur_coarse.flow.epochs));
  std::printf("heavy UR@60x  packet  %8.3f s\n", ur_pkt_s);

  // Packet counts are integers (exact); injected bytes accumulate as
  // fractional drains in the flow model, so compare to FP tolerance.
  bench::shape_check(ur_flow.run.total_packets_finished() ==
                         ur_pkt.run.total_packets_finished(),
                     "heavy-UR flow and packet runs deliver identical "
                     "packet counts");
  bench::shape_check(std::abs(ur_flow.run.total_injected() -
                              ur_pkt.run.total_injected()) <=
                         ur_pkt.run.total_injected() * 1e-9,
                     "heavy-UR flow and packet runs inject identical bytes");
  bench::shape_check(ur_flow_s <= 1.5 * ur_pkt_s,
                     "heavy-UR flow run stays within 1.5x of packet "
                     "(the PR-8 engine was ~30x slower here)");
  bench::shape_check(ur_coarse_s <= ur_flow_s * 1.25,
                     "bundle coarsening does not slow the heavy-UR point");

  const std::string path = bench::out_path("BENCH_sweep.json");
  std::ofstream os(path, std::ios::binary);
  os << "{\n  \"benchmark\": \"sweep_flow_vs_packet\",\n"
     << "  \"provenance\": " << bench::provenance_json() << ",\n"
     << "  \"grid_points\": 8,\n"
     << "  \"workloads\": [\"nearest_neighbor\", \"transpose\"],\n"
     << "  \"routings\": [\"minimal\", \"adaptive\"],\n"
     << "  \"scales\": [32, 64],\n"
     << "  \"seconds_flow\": " << flow_s << ",\n"
     << "  \"seconds_packet\": " << pkt_s << ",\n"
     << "  \"speedup_flow_vs_packet\": " << speedup << ",\n"
     << "  \"heavy_ur\": {\n"
     << "    \"workload\": \"uniform_random\", \"routing\": \"minimal\", "
     << "\"scale\": 60,\n"
     << "    \"seconds_flow\": " << ur_flow_s << ",\n"
     << "    \"seconds_flow_coarsen\": " << ur_coarse_s << ",\n"
     << "    \"seconds_packet\": " << ur_pkt_s << ",\n"
     << "    \"flow_vs_packet\": " << ur_flow_s / ur_pkt_s << ",\n"
     << "    \"telemetry_flow\": " << telemetry_json(ur_flow.flow) << ",\n"
     << "    \"telemetry_flow_coarsen\": " << telemetry_json(ur_coarse.flow)
     << "\n  },\n"
     << "  \"points\": [\n";
  for (std::size_t i = 0; i < flow_res.points.size(); ++i) {
    os << "    {\"name\": \"" << flow_res.points[i].name
       << "\", \"uid_flow\": " << flow_res.points[i].uid
       << ", \"uid_packet\": " << pkt_res.points[i].uid << "}"
       << (i + 1 < flow_res.points.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  std::printf("wrote %s\n", path.c_str());

  std::filesystem::remove_all(flow_dir);
  std::filesystem::remove_all(pkt_dir);
  std::filesystem::remove_all(fresh_dir);
  return bench::footer();
}
