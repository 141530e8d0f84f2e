#include "core/views.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <unordered_set>

#include "core/scales.hpp"
#include "obs/obs.hpp"
#include "util/str.hpp"

namespace dv::core {

namespace {

const Rgb kAxisColor{120, 120, 120};
const Rgb kHighlight{255, 215, 0};

/// A non-owning pointer to a table the caller keeps alive.
std::shared_ptr<const DataTable> borrow(const DataTable& t) {
  return std::shared_ptr<const DataTable>(std::shared_ptr<const void>(), &t);
}

/// Simple framed scatter plot of two table columns.
void render_scatter(SvgDocument& doc, const DataTable& t,
                    const std::string& xattr, const std::string& yattr,
                    const std::unordered_set<std::uint32_t>& highlight,
                    double x, double y, double w, double h,
                    const std::string& title) {
  doc.rect(x, y, w, h, Style::stroked(kAxisColor, 0.8));
  doc.text(x + 4, y + 12, title, 10, Rgb{60, 60, 60});
  const auto [xlo, xhi] = t.extent(xattr);
  const auto [ylo, yhi] = t.extent(yattr);
  const LinearScale xs(xlo, std::max(xhi, xlo + 1e-12));
  const LinearScale ys(ylo, std::max(yhi, ylo + 1e-12));
  const auto& xcol = t.column(xattr);
  const auto& ycol = t.column(yattr);
  const double pad = 8.0;
  for (std::uint32_t r = 0; r < t.rows(); ++r) {
    const double px = x + pad + xs.norm(xcol[r]) * (w - 2 * pad);
    const double py = y + h - pad - ys.norm(ycol[r]) * (h - 2 * pad - 14);
    const bool hit = highlight.count(r) > 0;
    Style s = Style::filled(hit ? kHighlight : Rgb{70, 130, 180, 160});
    doc.circle(px, py, hit ? 2.4 : 1.4, s);
  }
  doc.text(x + w - 4, y + h - 3, xattr, 8, kAxisColor, "end");
  doc.text(x + 4, y + h - 3, yattr + " ^", 8, kAxisColor);
}

}  // namespace

// ----------------------------------------------------------------- Detail

DetailView::DetailView(const DataSet& data, std::vector<std::string> pc_axes)
    : terminals_(borrow(data.table(Entity::kTerminal))),
      local_links_(borrow(data.table(Entity::kLocalLink))),
      global_links_(borrow(data.table(Entity::kGlobalLink))),
      pc_axes_(std::move(pc_axes)) {
  if (pc_axes_.empty()) {
    pc_axes_ = {"data_size", "sat_time",   "packets_finished",
                "avg_latency", "avg_hops", "workload"};
  }
  for (const auto& a : pc_axes_) {
    DV_REQUIRE(terminals_->has_column(a),
               "parallel-coordinates axis not found: " + a);
  }
}

DetailView::DetailView(QueryEngine& engine, TimeWindow window,
                       std::vector<std::string> pc_axes)
    : DetailView(engine.data(), std::move(pc_axes)) {
  terminals_ = engine.table(Entity::kTerminal, window);
  local_links_ = engine.table(Entity::kLocalLink, window);
  global_links_ = engine.table(Entity::kGlobalLink, window);
}

const DataTable& DetailView::table(Entity e) const {
  switch (e) {
    case Entity::kTerminal: return *terminals_;
    case Entity::kLocalLink: return *local_links_;
    case Entity::kGlobalLink: return *global_links_;
    case Entity::kRouter: break;
  }
  throw Error("the detail view has no " + to_string(e) + " table");
}

void DetailView::brush(const std::string& axis, double lo, double hi) {
  DV_REQUIRE(lo <= hi, "brush range inverted");
  DV_REQUIRE(std::find(pc_axes_.begin(), pc_axes_.end(), axis) !=
                 pc_axes_.end(),
             "brush on unknown axis: " + axis);
  for (auto& b : brushes_) {
    if (b.attr == axis) {
      b.lo = lo;
      b.hi = hi;
      return;
    }
  }
  brushes_.push_back(AttrFilter{axis, lo, hi});
}

void DetailView::clear_brushes() { brushes_.clear(); }

std::vector<std::uint32_t> DetailView::selected_terminals() const {
  if (explicit_selection_) return *explicit_selection_;
  AggregationSpec spec;
  spec.filters = brushes_;
  return Aggregation(*terminals_, spec).filtered_rows();
}

void DetailView::select_terminals(std::vector<std::uint32_t> rows) {
  explicit_selection_ = std::move(rows);
}

std::vector<std::uint32_t> DetailView::associated_links(
    Entity link_entity) const {
  DV_REQUIRE(link_entity == Entity::kLocalLink ||
                 link_entity == Entity::kGlobalLink,
             "associated_links needs a link entity");
  const auto& term_router = terminals_->column("router");
  std::unordered_set<double> routers;
  for (std::uint32_t r : selected_terminals()) routers.insert(term_router[r]);

  const DataTable& links = table(link_entity);
  const auto& src = links.column("src_router");
  const auto& dst = links.column("dst_router");
  std::vector<std::uint32_t> out;
  for (std::uint32_t r = 0; r < links.rows(); ++r) {
    if (routers.count(src[r]) || routers.count(dst[r])) out.push_back(r);
  }
  return out;
}

void DetailView::render(SvgDocument& doc, double x, double y, double w,
                        double h) const {
  const bool has_selection =
      explicit_selection_.has_value() || !brushes_.empty();
  std::unordered_set<std::uint32_t> hi_global, hi_local, hi_terms;
  if (has_selection) {
    for (std::uint32_t r : associated_links(Entity::kGlobalLink)) {
      hi_global.insert(r);
    }
    for (std::uint32_t r : associated_links(Entity::kLocalLink)) {
      hi_local.insert(r);
    }
    for (std::uint32_t r : selected_terminals()) hi_terms.insert(r);
  }

  const double scatter_w = w * 0.27;
  const double gap = w * 0.02;
  render_scatter(doc, *global_links_, "traffic", "sat_time", hi_global, x, y,
                 scatter_w, h, "Global links");
  render_scatter(doc, *local_links_, "traffic", "sat_time", hi_local,
                 x + scatter_w + gap, y, scatter_w, h, "Local links");

  // Parallel coordinates of all terminals.
  const double pc_x = x + 2 * (scatter_w + gap);
  const double pc_w = w - 2 * (scatter_w + gap);
  doc.rect(pc_x, y, pc_w, h, Style::stroked(kAxisColor, 0.8));
  doc.text(pc_x + 4, y + 12, "Terminals", 10, Rgb{60, 60, 60});
  const DataTable& t = *terminals_;
  const std::size_t n_axes = pc_axes_.size();
  const double pad = 14.0;
  std::vector<LinearScale> scales;
  std::vector<const std::vector<double>*> cols;
  for (const auto& a : pc_axes_) {
    const auto [lo, hi] = t.extent(a);
    scales.emplace_back(lo, std::max(hi, lo + 1e-12));
    cols.push_back(&t.column(a));
  }
  auto axis_x = [&](std::size_t i) {
    return pc_x + pad +
           (pc_w - 2 * pad) * static_cast<double>(i) /
               static_cast<double>(std::max<std::size_t>(1, n_axes - 1));
  };
  const double top = y + 22, bottom = y + h - 16;
  for (std::size_t i = 0; i < n_axes; ++i) {
    doc.line({axis_x(i), top}, {axis_x(i), bottom},
             Style::stroked(kAxisColor, 0.8));
    doc.text(axis_x(i), y + h - 4, pc_axes_[i], 7, kAxisColor, "middle");
  }
  // Brush bands.
  for (const auto& b : brushes_) {
    const auto it = std::find(pc_axes_.begin(), pc_axes_.end(), b.attr);
    const std::size_t i = static_cast<std::size_t>(it - pc_axes_.begin());
    const double y_lo = bottom - scales[i].norm(b.lo) * (bottom - top);
    const double y_hi = bottom - scales[i].norm(b.hi) * (bottom - top);
    Style s = Style::filled(Rgb{255, 215, 0, 60});
    s.stroke = kHighlight;
    s.stroke_width = 0.8;
    doc.rect(axis_x(i) - 4, y_hi, 8, y_lo - y_hi, s);
  }
  // Polylines (selected terminals drawn in job color, the rest faint).
  const auto& jobs = t.column("workload");
  for (std::uint32_t r = 0; r < t.rows(); ++r) {
    std::vector<Pt> pts;
    pts.reserve(n_axes);
    for (std::size_t i = 0; i < n_axes; ++i) {
      pts.push_back(
          {axis_x(i), bottom - scales[i].norm((*cols[i])[r]) * (bottom - top)});
    }
    const bool selected = !has_selection || hi_terms.count(r) > 0;
    Rgb c = selected ? categorical_color(static_cast<std::int64_t>(jobs[r]))
                     : Rgb{200, 200, 200};
    c.a = selected ? 120 : 40;
    doc.polyline(pts, Style::stroked(c, selected ? 0.7 : 0.4));
  }
}

std::string DetailView::to_svg(double w, double h) const {
  SvgDocument doc(w, h);
  doc.rect(0, 0, w, h, Style::filled(Rgb{255, 255, 255}));
  render(doc, 6, 6, w - 12, h - 12);
  return std::move(doc).str();
}

// ----------------------------------------------------------------- Timeline

TimelineView::TimelineView(const DataSet& data) : data_(&data) {
  DV_REQUIRE(data_->run().has_time_series(),
             "timeline view requires a sampled run (enable_sampling)");
}

double TimelineView::dt() const { return data_->run().sample_dt; }

std::vector<double> TimelineView::series(const std::string& which) const {
  const metrics::RunMetrics& run = data_->run();
  const metrics::SampledSeries* s = nullptr;
  if (which == "local_traffic") s = &run.local_traffic_ts;
  else if (which == "local_sat") s = &run.local_sat_ts;
  else if (which == "global_traffic") s = &run.global_traffic_ts;
  else if (which == "global_sat") s = &run.global_sat_ts;
  else if (which == "terminal_traffic") s = &run.term_traffic_ts;
  else if (which == "terminal_sat") s = &run.term_sat_ts;
  else throw Error("unknown timeline series: " + which);
  std::vector<double> out(s->frames());
  for (std::size_t f = 0; f < s->frames(); ++f) out[f] = s->frame_total(f);
  return out;
}

void TimelineView::select_range(double t0, double t1) {
  DV_REQUIRE(t0 < t1, "empty time range");
  t0_ = t0;
  t1_ = t1;
}

void TimelineView::clear_range() { t0_ = t1_ = 0.0; }

void TimelineView::render(SvgDocument& doc, double x, double y, double w,
                          double h) const {
  struct Panel {
    const char* title;
    std::vector<std::pair<std::string, Rgb>> lines;
  };
  const std::vector<Panel> panels = {
      {"Network link traffic (bytes)",
       {{"local_traffic", Rgb{70, 130, 180}},
        {"global_traffic", Rgb{128, 0, 128}},
        {"terminal_traffic", Rgb{46, 139, 34}}}},
      {"Link saturation (ns)",
       {{"local_sat", Rgb{70, 130, 180}},
        {"global_sat", Rgb{128, 0, 128}},
        {"terminal_sat", Rgb{46, 139, 34}}}},
  };
  const double ph = h / static_cast<double>(panels.size());
  const double end_time = data_->run().end_time;
  for (std::size_t p = 0; p < panels.size(); ++p) {
    const double py = y + ph * static_cast<double>(p);
    doc.rect(x, py, w, ph - 4, Style::stroked(kAxisColor, 0.8));
    doc.text(x + 4, py + 11, panels[p].title, 9, Rgb{60, 60, 60});
    double legend_x = x + w - 4;
    for (auto it = panels[p].lines.rbegin(); it != panels[p].lines.rend();
         ++it) {
      doc.text(legend_x, py + 11, it->first, 8, it->second, "end");
      legend_x -= 90;
    }
    for (const auto& [name, color] : panels[p].lines) {
      const auto s = series(name);
      if (s.empty()) continue;
      double peak = 0.0;
      for (double v : s) peak = std::max(peak, v);
      if (peak <= 0) peak = 1.0;
      std::vector<Pt> pts;
      pts.reserve(s.size());
      for (std::size_t f = 0; f < s.size(); ++f) {
        const double fx =
            x + w * (static_cast<double>(f) + 0.5) * dt() / std::max(end_time, dt());
        const double fy = py + (ph - 8) - (ph - 24) * (s[f] / peak);
        pts.push_back({fx, fy});
      }
      doc.polyline(pts, Style::stroked(color, 1.0));
    }
    if (has_selection()) {
      const double sx0 = x + w * t0_ / std::max(end_time, dt());
      const double sx1 = x + w * t1_ / std::max(end_time, dt());
      doc.rect(sx0, py + 2, sx1 - sx0, ph - 8,
               Style::filled(Rgb{255, 215, 0, 50}));
    }
  }
}

std::string TimelineView::to_svg(double w, double h) const {
  SvgDocument doc(w, h);
  doc.rect(0, 0, w, h, Style::filled(Rgb{255, 255, 255}));
  render(doc, 6, 6, w - 12, h - 12);
  return std::move(doc).str();
}

// ----------------------------------------------------------------- Session

AnalysisSession::AnalysisSession(DataSet data, ProjectionSpec spec)
    : data_(std::move(data)), spec_(std::move(spec)) {
  engine_.emplace(data_);
  rebuild();
}

void AnalysisSession::rebuild() {
  DV_OBS_PHASE("session/rebuild");
  // The selected time range becomes the projection spec's window and the
  // detail view's table window, so both re-aggregate through the engine
  // (prefix slabs, cached windowed tables) instead of a dataset rebuild.
  const TimeWindow window{sel_t0_, sel_t1_};

  // Apply detail brushes as terminal-entity filters on the projection
  // (paper: brushing updates the projection to the selected data).
  ProjectionSpec spec = spec_;
  if (window.active()) spec.window = window;
  if (detail_) {
    for (auto& lvl : spec.levels) {
      if (lvl.entity != Entity::kTerminal) continue;
      for (const auto& b : detail_->brushes()) lvl.filters.push_back(b);
    }
  }
  std::vector<AttrFilter> saved_brushes;
  if (detail_) saved_brushes = detail_->brushes();

  projection_.emplace(data_, spec, nullptr, &*engine_);
  detail_.emplace(*engine_, window);
  for (const auto& b : saved_brushes) detail_->brush(b.attr, b.lo, b.hi);
  if (data_.run().has_time_series()) {
    timeline_.emplace(data_);
    if (window.active()) timeline_->select_range(sel_t0_, sel_t1_);
  }
}

void AnalysisSession::select_time_range(double t0, double t1) {
  DV_REQUIRE(data_.run().has_time_series(),
             "time-range selection requires a sampled run");
  sel_t0_ = t0;
  sel_t1_ = t1;
  rebuild();
}

void AnalysisSession::clear_time_range() {
  sel_t0_ = sel_t1_ = 0.0;
  rebuild();
}

void AnalysisSession::brush(const std::string& axis, double lo, double hi) {
  if (!detail_) rebuild();
  detail_->brush(axis, lo, hi);
  rebuild();
}

void AnalysisSession::clear_brushes() {
  if (detail_) detail_->clear_brushes();
  rebuild();
}

void AnalysisSession::select_aggregate(std::size_t ring, std::size_t item) {
  const auto rows = projection_->select(ring, item);
  const Entity entity = projection_->rings()[ring].spec.entity;
  if (entity == Entity::kTerminal) {
    detail_->select_terminals(rows);
    // Highlight the links that carry this selection's traffic.
    projection_->clear_highlight();
    projection_->highlight(Entity::kTerminal, rows);
    projection_->highlight(Entity::kLocalLink,
                           detail_->associated_links(Entity::kLocalLink));
    projection_->highlight(Entity::kGlobalLink,
                           detail_->associated_links(Entity::kGlobalLink));
  } else {
    projection_->clear_highlight();
    projection_->highlight(entity, rows);
  }
}

std::string AnalysisSession::to_svg(double width, double height) const {
  SvgDocument doc(width, height);
  doc.rect(0, 0, width, height, Style::filled(Rgb{255, 255, 255}));
  const double timeline_h = timeline_ ? height * 0.24 : 0.0;
  const double top_h = height - timeline_h;
  const double proj_size = std::min(top_h, width * 0.45);
  doc.text(10, 16, "dragonviz — " + data_.run().workload + " / " +
                       data_.run().routing + " / " + data_.run().placement,
           12, Rgb{40, 40, 40});
  projection_->render(doc, proj_size / 2 + 8, top_h / 2 + 8,
                      proj_size * 0.46);
  detail_->render(doc, proj_size + 24, 28, width - proj_size - 36,
                  top_h - 40);
  if (timeline_) {
    timeline_->render(doc, 10, top_h + 4, width - 20, timeline_h - 10);
  }
  return std::move(doc).str();
}

void AnalysisSession::save_svg(const std::string& path, double width,
                               double height) const {
  std::ofstream os(path, std::ios::binary);
  DV_REQUIRE(os.good(), "cannot open svg for writing: " + path);
  os << to_svg(width, height);
  DV_REQUIRE(os.good(), "svg write failed: " + path);
}

}  // namespace dv::core
