#include "core/report.hpp"

#include <fstream>
#include <sstream>

#include "util/str.hpp"

namespace dv::core {

namespace {

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '&': out += "&amp;"; break;
      case '"': out += "&quot;"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

}  // namespace

ReportBuilder::ReportBuilder(std::string title) : title_(std::move(title)) {}

void ReportBuilder::heading(const std::string& text) {
  body_ += "<h2>" + escape(text) + "</h2>\n";
}

ReportBuilder& ReportBuilder::note(const std::string& heading_text,
                                   const std::string& text) {
  heading(heading_text);
  body_ += "<p>" + escape(text) + "</p>\n";
  return *this;
}

ReportBuilder& ReportBuilder::run_summary(const DataSet& data) {
  const metrics::RunMetrics& run = data.run();
  heading("Run: " + run.workload);
  std::ostringstream os;
  os << "<table class=\"meta\">\n";
  auto row = [&os](const std::string& k, const std::string& v) {
    os << "<tr><th>" << escape(k) << "</th><td>" << escape(v) << "</td></tr>\n";
  };
  row("routing", run.routing);
  row("placement", run.placement);
  row("network", "dragonfly g=" + std::to_string(run.groups) + " a=" +
                     std::to_string(run.routers_per_group) + " p=" +
                     std::to_string(run.terminals_per_router));
  row("terminals", std::to_string(run.groups * run.routers_per_group *
                                  run.terminals_per_router));
  row("simulated time", fmt_double(run.end_time / 1e3, 1) + " us");
  row("injected", human_bytes(run.total_injected()));
  row("packets", std::to_string(run.total_packets_finished()));
  if (run.has_time_series()) {
    row("sampling", fmt_double(run.sample_dt, 0) + " ns, " +
                        std::to_string(run.local_traffic_ts.frames()) +
                        " frames");
  }
  os << "</table>\n";
  body_ += os.str();
  return *this;
}

ReportBuilder& ReportBuilder::projection(const ProjectionView& view,
                                         const std::string& caption,
                                         double size_px) {
  svg(view.to_svg(size_px), caption);
  body_ += "<details><summary>projection spec</summary><pre>";
  body_ += escape(view.spec().to_script());
  body_ += "</pre></details>\n";
  return *this;
}

ReportBuilder& ReportBuilder::comparison(const ComparisonView& cmp,
                                         const std::string& caption,
                                         double panel_px) {
  svg(cmp.to_svg(panel_px), caption);
  const auto summaries = cmp.job_summaries();
  std::ostringstream os;
  os << "<table class=\"jobs\">\n<tr><th>run</th><th>job</th>"
        "<th>avg latency (ns)</th><th>avg hops</th><th>data</th></tr>\n";
  for (std::size_t r = 0; r < summaries.size(); ++r) {
    for (const auto& s : summaries[r]) {
      os << "<tr><td>" << escape(cmp.label(r)) << "</td><td>"
         << escape(s.name) << "</td><td>" << fmt_double(s.avg_latency, 1)
         << "</td><td>" << fmt_double(s.avg_hops, 2) << "</td><td>"
         << escape(human_bytes(s.data_size)) << "</td></tr>\n";
    }
  }
  os << "</table>\n";
  body_ += os.str();
  return *this;
}

ReportBuilder& ReportBuilder::detail(const DetailView& view,
                                     const std::string& caption, double w,
                                     double h) {
  return svg(view.to_svg(w, h), caption);
}

ReportBuilder& ReportBuilder::timeline(const TimelineView& view,
                                       const std::string& caption, double w,
                                       double h) {
  return svg(view.to_svg(w, h), caption);
}

ReportBuilder& ReportBuilder::svg(const std::string& svg_markup,
                                  const std::string& caption) {
  // Appended piece by piece: the markup is often a megabyte, and a
  // concatenated temporary would copy it once more.
  body_ += "<figure>\n";
  body_ += svg_markup;
  body_ += "<figcaption>";
  body_ += escape(caption);
  body_ += "</figcaption>\n</figure>\n";
  return *this;
}

ReportBuilder& ReportBuilder::query_stats(const QueryStats& stats) {
  heading("Query engine");
  std::ostringstream os;
  os << "<table class=\"meta\">\n";
  auto row = [&os](const std::string& k, std::uint64_t v) {
    os << "<tr><th>" << escape(k) << "</th><td>" << v << "</td></tr>\n";
  };
  row("cache hits", stats.hits);
  row("cache misses", stats.misses);
  row("evictions", stats.evictions);
  row("group-slab builds", stats.slab_builds);
  row("group-slab reductions", stats.slab_reduces);
  row("live entries", stats.entries);
  os << "</table>\n";
  body_ += os.str();
  return *this;
}

std::string ReportBuilder::html() const {
  std::string out =
      "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n<title>";
  out += escape(title_);
  out +=
      "</title>\n<style>\n"
      "body{font-family:sans-serif;max-width:1100px;margin:2em auto;"
      "color:#222}\n"
      "figure{margin:1.5em 0;text-align:center}\n"
      "figcaption{font-size:0.9em;color:#555;margin-top:0.4em}\n"
      "table{border-collapse:collapse;margin:1em 0}\n"
      "th,td{border:1px solid #ccc;padding:4px 10px;font-size:0.9em;"
      "text-align:left}\n"
      "pre{background:#f6f6f6;padding:0.8em;overflow-x:auto;"
      "font-size:0.85em}\n"
      "details{margin:0.5em 0}\n</style></head>\n<body>\n<h1>";
  out += escape(title_);
  out += "</h1>\n";
  out += body_;
  out += "</body></html>\n";
  return out;
}

void ReportBuilder::save(const std::string& path) const {
  std::ofstream os(path, std::ios::binary);
  DV_REQUIRE(os.good(), "cannot open report for writing: " + path);
  os << html();
  DV_REQUIRE(os.good(), "report write failed: " + path);
}

}  // namespace dv::core
