#include "core/comparison.hpp"

#include <algorithm>
#include <fstream>
#include <functional>
#include <optional>

namespace dv::core {

std::vector<JobSummary> summarize_jobs(const DataSet& data) {
  const metrics::RunMetrics& run = data.run();
  std::int32_t max_job = -1;
  for (const auto& t : run.terminals) max_job = std::max(max_job, t.job);
  std::vector<JobSummary> out;
  for (std::int32_t j = 0; j <= max_job; ++j) {
    JobSummary s;
    s.job = j;
    s.name = static_cast<std::size_t>(j) < run.job_names.size()
                 ? run.job_names[static_cast<std::size_t>(j)]
                 : "job" + std::to_string(j);
    double lat_sum = 0.0, hop_sum = 0.0;
    std::uint64_t pkts = 0;
    for (const auto& t : run.terminals) {
      if (t.job != j) continue;
      ++s.terminals;
      s.data_size += t.data_size;
      s.sat_time += t.sat_time;
      lat_sum += t.sum_latency;
      hop_sum += t.sum_hops;
      pkts += t.packets_finished;
    }
    if (pkts > 0) {
      s.avg_latency = lat_sum / static_cast<double>(pkts);
      s.avg_hops = hop_sum / static_cast<double>(pkts);
    }
    out.push_back(s);
  }
  return out;
}

ComparisonView::ComparisonView(std::vector<const DataSet*> runs,
                               ProjectionSpec spec,
                               std::vector<std::string> labels)
    : runs_(std::move(runs)), spec_(std::move(spec)),
      labels_(std::move(labels)) {
  DV_REQUIRE(!runs_.empty(), "comparison needs at least one run");
  while (labels_.size() < runs_.size()) {
    const auto& r = runs_[labels_.size()]->run();
    labels_.push_back(r.workload + "/" + r.routing + "/" + r.placement);
  }
  // Each run's panel is an independent pipeline — both passes fan out on
  // the VA pool, with deterministic merge/collection in run order.
  // Pass 1: union of every channel domain across runs.
  {
    std::vector<ScaleSet> per_run(runs_.size());
    std::vector<std::function<void()>> tasks;
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      tasks.push_back([this, &per_run, i] {
        per_run[i] = ProjectionView::compute_scales(*runs_[i], spec_);
      });
    }
    run_parallel(std::move(tasks));
    for (const auto& s : per_run) shared_.merge(s);
  }
  // Pass 2: rebuild every view against the shared scales.
  {
    std::vector<std::optional<ProjectionView>> staged(runs_.size());
    std::vector<std::function<void()>> tasks;
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      tasks.push_back(
          [this, &staged, i] { staged[i].emplace(*runs_[i], spec_, &shared_); });
    }
    run_parallel(std::move(tasks));
    views_.reserve(runs_.size());
    for (auto& v : staged) views_.push_back(std::move(*v));
  }
}

const ProjectionView& ComparisonView::view(std::size_t i) const {
  DV_REQUIRE(i < views_.size(), "run index out of range");
  return views_[i];
}

std::string ComparisonView::to_svg(double panel_px) const {
  const double w = panel_px * static_cast<double>(views_.size());
  const double h = panel_px + 30;
  SvgDocument doc(w, h);
  doc.rect(0, 0, w, h, Style::filled(Rgb{255, 255, 255}));
  for (std::size_t i = 0; i < views_.size(); ++i) {
    const double x0 = panel_px * static_cast<double>(i);
    doc.text(x0 + panel_px / 2, 18, labels_[i], 12, Rgb{40, 40, 40},
             "middle");
    views_[i].render(doc, x0 + panel_px / 2, 30 + panel_px / 2,
                     panel_px * 0.46);
  }
  return std::move(doc).str();
}

void ComparisonView::save_svg(const std::string& path,
                              double panel_px) const {
  std::ofstream os(path, std::ios::binary);
  DV_REQUIRE(os.good(), "cannot open svg for writing: " + path);
  os << to_svg(panel_px);
  DV_REQUIRE(os.good(), "svg write failed: " + path);
}

std::vector<std::vector<JobSummary>> ComparisonView::job_summaries() const {
  std::vector<std::vector<JobSummary>> out;
  out.reserve(runs_.size());
  for (const DataSet* d : runs_) out.push_back(summarize_jobs(*d));
  return out;
}

}  // namespace dv::core
