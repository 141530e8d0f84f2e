#include "app/sweep.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>

#include "core/comparison.hpp"
#include "core/datatable.hpp"
#include "core/presets.hpp"
#include "core/report.hpp"
#include "routing/routing.hpp"

namespace dv::app {

namespace {

std::string format_scale(double scale) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "x%g", scale);
  return buf;
}

core::ProjectionSpec resolve_spec(const std::string& ref) {
  if (core::is_preset_ref(ref)) return core::preset_from_ref(ref);
  std::ifstream is(ref, std::ios::binary);
  DV_REQUIRE(is.good(), "cannot open spec: " + ref);
  std::ostringstream buf;
  buf << is.rdbuf();
  return core::ProjectionSpec::parse(buf.str());
}

/// Stores `run` as grid point `p` and fills in its uid. Replaces (not
/// suffixes) an entry of the same name, so re-sweeping a grid is idempotent.
void store_point(metrics::RunStore& store, const metrics::RunMetrics& run,
                 SweepPoint& p) {
  if (store.contains(p.name)) store.remove(p.name);
  const std::string stored = store.add(run, p.name);
  DV_CHECK(stored == p.name, "sweep point name collided in the store");
  p.uid = store.info(p.name).uid;
}

}  // namespace

std::string sweep_point_name(const std::string& workload,
                             const std::string& routing, double scale,
                             Backend backend) {
  return workload + "-" + routing + "-" + format_scale(scale) + "-" +
         to_string(backend);
}

SweepResult run_sweep(const SweepConfig& cfg) {
  DV_REQUIRE(!cfg.workloads.empty(), "sweep needs at least one workload");
  DV_REQUIRE(!cfg.routings.empty(), "sweep needs at least one routing");
  DV_REQUIRE(!cfg.scales.empty(), "sweep needs at least one scale");
  DV_REQUIRE(!cfg.store_dir.empty(), "sweep needs a --store directory");
  DV_REQUIRE(cfg.format == metrics::StoreFormat::kPacked,
             "sweep stores .dvr runs only (SweepConfig::format must be "
             "kPacked)");
  for (const double s : cfg.scales) {
    DV_REQUIRE(s > 0.0, "sweep scales must be positive");
  }

  metrics::RunStore store(cfg.store_dir);
  SweepResult out;
  for (const std::string& workload : cfg.workloads) {
    for (const std::string& routing : cfg.routings) {
      for (const double scale : cfg.scales) {
        SweepPoint p;
        p.name = sweep_point_name(workload, routing, scale, cfg.base.backend);
        p.workload = workload;
        p.routing = routing;
        p.scale = scale;
        out.points.push_back(std::move(p));
      }
    }
  }
  const auto sweep_t0 = std::chrono::steady_clock::now();

  // Point i is stored on its own thread while point i+1 simulates, in grid
  // order: the store of point i-1 is awaited (and its error rethrown)
  // before point i is handed off, so at most one finished run waits and
  // only one thread touches the store at a time. out.points is complete
  // before the first hand-off, so the SweepPoint a store fills in never
  // moves. When a point throws, `stored`'s destructor waits for the store
  // in flight, so every earlier point is stored and indexed.
  {
    std::future<void> stored;
    for (SweepPoint& p : out.points) {
      ExperimentConfig point = cfg.base;
      point.jobs.clear();
      JobSpec job;
      job.workload = p.workload;
      point.jobs.push_back(job);
      point.routing = routing::algo_from_string(p.routing);
      point.traffic_scale = p.scale;

      ExperimentResult res = run_experiment(point);
      p.events = res.events;
      p.end_time = res.run.end_time;
      p.wall_seconds = res.wall_seconds;
      p.flow = res.flow;
      if (stored.valid()) stored.get();
      stored = std::async(
          std::launch::async,
          [&store, &cfg, &p, run = std::move(res.run)]() mutable {
            // Freed here, not when the future goes: the next point's
            // simulation should not share the heap with this run.
            const metrics::RunMetrics done = std::move(run);
            store_point(store, done, p);
          });
    }
    if (stored.valid()) stored.get();
  }

  if (!cfg.report_path.empty()) {
    // Reload every point from the store (what any later consumer would
    // read) and render them side by side under shared scales.
    std::vector<std::unique_ptr<metrics::RunMetrics>> runs;
    std::vector<std::unique_ptr<core::DataSet>> datasets;
    std::vector<const core::DataSet*> ptrs;
    std::vector<std::string> labels;
    for (const SweepPoint& p : out.points) {
      runs.push_back(
          std::make_unique<metrics::RunMetrics>(store.load(p.name)));
      datasets.push_back(std::make_unique<core::DataSet>(*runs.back()));
      ptrs.push_back(datasets.back().get());
      labels.push_back(p.name);
    }
    const core::ProjectionSpec spec = resolve_spec(cfg.report_spec);
    const core::ComparisonView cmp(ptrs, spec, labels);

    core::ReportBuilder report(cfg.report_title);
    std::string grid_desc =
        std::to_string(out.points.size()) + " points (" +
        std::to_string(cfg.workloads.size()) + " workloads x " +
        std::to_string(cfg.routings.size()) + " routings x " +
        std::to_string(cfg.scales.size()) + " scales), backend=" +
        to_string(cfg.base.backend) + ", store=" + cfg.store_dir;
    report.note("Sweep grid", grid_desc);
    std::string uid_lines;
    for (const SweepPoint& p : out.points) {
      uid_lines += p.name + " uid=" + std::to_string(p.uid) +
                   " end=" + std::to_string(p.end_time) + " ns; ";
    }
    report.note("Stored runs", uid_lines);
    report.comparison(cmp, "All sweep points under shared scales");
    report.save(cfg.report_path);
    out.report_path = cfg.report_path;
  }

  const auto sweep_t1 = std::chrono::steady_clock::now();
  out.wall_seconds =
      std::chrono::duration<double>(sweep_t1 - sweep_t0).count();
  return out;
}

}  // namespace dv::app
