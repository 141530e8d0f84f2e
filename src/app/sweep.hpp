// Design-space sweep orchestrator — the paper's exploration workflow at
// grid scale: fan a (workload × routing × load) parameter grid through
// either simulation backend, store one packed run per point in a RunStore,
// and emit a cross-run comparison report with shared scales so the points
// are visually comparable (Sec. III "fair comparison").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "app/runner.hpp"
#include "metrics/run_store.hpp"

namespace dv::app {

/// One completed grid point.
struct SweepPoint {
  std::string name;      ///< RunStore entry name
  std::string workload;
  std::string routing;
  double scale = 1.0;
  std::uint64_t uid = 0;  ///< run content uid (deterministic per config)
  std::uint64_t events = 0;
  double end_time = 0.0;
  double wall_seconds = 0.0;
  FlowTelemetry flow;  ///< solver telemetry, zeros for packet points
};

struct SweepConfig {
  /// Template for every point: backend, p, window, seed, sampling, params.
  /// Its jobs/routing/traffic_scale are overwritten per grid point.
  ExperimentConfig base;

  // Grid axes (each must be non-empty; the grid is the cross product).
  std::vector<std::string> workloads;
  std::vector<std::string> routings;
  std::vector<double> scales;

  std::string store_dir;  ///< required: RunStore directory for the points
  /// Must be kPacked (a store holds .dvr runs only; run_sweep rejects kText
  /// before it simulates). Stays only until analyst_bench drops its
  /// `format = kPacked` assignment.
  metrics::StoreFormat format = metrics::StoreFormat::kPacked;

  /// When non-empty, writes a comparison report over every point.
  std::string report_path;
  std::string report_spec = "preset:overview";  ///< preset ref or file path
  std::string report_title = "dragonviz sweep";
};

struct SweepResult {
  std::vector<SweepPoint> points;  ///< grid order: workload, routing, scale
  double wall_seconds = 0.0;       ///< total simulate+store wall time
  std::string report_path;         ///< empty when no report was requested
};

/// Store entry name for one grid point, e.g. "uniform_random-adaptive-x1-flow".
/// Stable across runs, so re-sweeping the same grid into the same store
/// replaces each point in place (idempotent, uid-stable).
std::string sweep_point_name(const std::string& workload,
                             const std::string& routing, double scale,
                             Backend backend);

/// Runs the whole grid. Existing store entries with a grid point's name are
/// replaced, not suffixed, so a re-run converges to the same store state.
/// Points simulate on the calling thread; each finished point is stored on
/// a thread of its own, in grid order, while the next one simulates. The store
/// ends byte-identical to a serial sweep's. When a point throws, every
/// earlier point is stored and indexed before the error is rethrown.
SweepResult run_sweep(const SweepConfig& cfg);

}  // namespace dv::app
