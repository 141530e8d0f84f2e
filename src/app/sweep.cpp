#include "app/sweep.hpp"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

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

/// Stores finished grid points on one background thread, in grid order,
/// while the calling thread simulates the next point. At most one finished
/// run waits: hand_off() blocks until the previous point is stored. The
/// writer is the only thread that touches the store until it is joined.
class PointWriter {
 public:
  PointWriter(metrics::RunStore& store, metrics::StoreFormat format)
      : store_(store), format_(format), thread_([this] { loop(); }) {}

  /// Stores whatever was handed off, then joins. Runs on unwinding too, so
  /// a failed simulation leaves every earlier point stored and indexed.
  ~PointWriter() { close(); }

  PointWriter(const PointWriter&) = delete;
  PointWriter& operator=(const PointWriter&) = delete;

  /// Queues `run` to be stored as `point` (whose uid the writer fills
  /// in). Rethrows the error of a failed earlier store.
  void hand_off(metrics::RunMetrics run, SweepPoint& point) {
    std::unique_lock<std::mutex> lock(mu_);
    idle_.wait(lock, [this] { return !job_; });
    if (error_) std::rethrow_exception(error_);
    job_.emplace(Job{std::move(run), &point});
    lock.unlock();
    ready_.notify_one();
  }

  /// Stores the last point and joins; rethrows a store error.
  void finish() {
    close();
    if (error_) std::rethrow_exception(error_);
  }

 private:
  struct Job {
    metrics::RunMetrics run;
    SweepPoint* point;
  };

  void loop() {
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        ready_.wait(lock, [this] { return job_ || closing_; });
        if (!job_) return;
      }
      std::exception_ptr error;
      try {
        store(job_->run, *job_->point);
      } catch (...) {
        error = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(mu_);
      job_.reset();
      error_ = error;
      idle_.notify_one();
      if (error) return;
    }
  }

  void store(const metrics::RunMetrics& run, SweepPoint& p) {
    // Replace (not suffix) so re-sweeping the same grid is idempotent.
    if (store_.contains(p.name)) store_.remove(p.name);
    const std::string stored = store_.add(run, p.name, format_);
    DV_CHECK(stored == p.name, "sweep point name collided in the store");
    p.uid = store_.info(p.name).uid;
  }

  void close() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      closing_ = true;
    }
    ready_.notify_one();
    thread_.join();
  }

  metrics::RunStore& store_;
  const metrics::StoreFormat format_;
  std::mutex mu_;
  std::condition_variable ready_;  ///< a job was handed off, or closing
  std::condition_variable idle_;   ///< the job slot emptied
  std::optional<Job> job_;         ///< handed off, not yet stored
  std::exception_ptr error_;
  bool closing_ = false;
  std::thread thread_;  ///< last: starts once the state above exists
};

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

  // Point i is stored while point i+1 simulates. out.points is complete
  // before the writer starts, so the SweepPoint it fills in never moves.
  {
    PointWriter writer(store, cfg.format);
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
      writer.hand_off(std::move(res.run), p);
    }
    writer.finish();
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
