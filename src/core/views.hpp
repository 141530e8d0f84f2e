// Detail and timeline views plus the linked-view session (Fig. 6).
//
// The paper's primary UI couples a customizable projection view with
//  (b) a detail view — two scatter plots (traffic vs. saturation of all
//      global and local links) and a parallel-coordinates plot of all
//      terminal metrics, with axis brushing, and
//  (c) a timeline view — temporal statistics per link class, from which a
//      time range can be selected to re-aggregate the other views.
// AnalysisSession wires the three interactions together exactly as the
// paper describes: brushing filters the projection, selecting a visual
// aggregate highlights entities in the detail view, selecting terminals
// highlights their associated links, and a time range re-aggregates every
// view through the session's QueryEngine.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/datatable.hpp"
#include "core/projection.hpp"
#include "core/svg.hpp"

namespace dv::core {

/// Detail view: link scatter plots + terminal parallel coordinates.
class DetailView {
 public:
  /// Default parallel-coordinate axes follow Fig. 6: data_size, sat_time,
  /// packets_finished, avg_latency, avg_hops, workload.
  explicit DetailView(const DataSet& data,
                      std::vector<std::string> pc_axes = {});
  /// Reads the terminal and link tables through `engine`, restricted to
  /// `window` (the dataset's own tables, uncopied, when it is inactive).
  DetailView(QueryEngine& engine, TimeWindow window,
             std::vector<std::string> pc_axes = {});

  const std::vector<std::string>& axes() const { return pc_axes_; }
  /// The table plotted for the terminal or a link entity (throws for
  /// routers).
  const DataTable& table(Entity e) const;

  /// Brushes one parallel-coordinate axis to [lo, hi] (inclusive);
  /// brushing the same axis again replaces the range.
  void brush(const std::string& axis, double lo, double hi);
  void clear_brushes();
  const std::vector<AttrFilter>& brushes() const { return brushes_; }

  /// Terminal rows passing all brushes (all terminals when un-brushed).
  std::vector<std::uint32_t> selected_terminals() const;

  /// Explicit selection (e.g. handed over from a projection aggregate);
  /// overrides brush-derived selection.
  void select_terminals(std::vector<std::uint32_t> rows);

  /// Links touching the routers of the currently selected terminals — the
  /// paper's "selecting a set of terminals ... highlights associated
  /// network links in the detail view".
  std::vector<std::uint32_t> associated_links(Entity link_entity) const;

  /// Renders the panel (two scatters + parallel coordinates) into a box.
  void render(SvgDocument& doc, double x, double y, double w, double h) const;
  std::string to_svg(double w = 900, double h = 360) const;

 private:
  std::shared_ptr<const DataTable> terminals_, local_links_, global_links_;
  std::vector<std::string> pc_axes_;
  std::vector<AttrFilter> brushes_;
  std::optional<std::vector<std::uint32_t>> explicit_selection_;
};

/// Timeline view over the run's sampled series (requires sampling).
class TimelineView {
 public:
  explicit TimelineView(const DataSet& data);

  double dt() const;

  /// Per-frame totals; `which` is one of: local_traffic, local_sat,
  /// global_traffic, global_sat, terminal_traffic, terminal_sat.
  std::vector<double> series(const std::string& which) const;

  /// Selects [t0, t1) for downstream re-aggregation.
  void select_range(double t0, double t1);
  void clear_range();
  bool has_selection() const { return t0_ < t1_; }
  double t0() const { return t0_; }
  double t1() const { return t1_; }

  /// Renders stacked traffic/saturation timelines with the selection band.
  void render(SvgDocument& doc, double x, double y, double w, double h) const;
  std::string to_svg(double w = 900, double h = 220) const;

 private:
  const DataSet* data_;
  double t0_ = 0.0, t1_ = 0.0;
};

/// The full linked-view analysis session of Fig. 6.
///
/// The session owns a QueryEngine over its dataset: a time-range selection
/// becomes the projection spec's window and the detail view's table
/// window, so re-brushing the timeline re-aggregates through cached prefix
/// slabs and windowed tables instead of rebuilding the dataset.
class AnalysisSession {
 public:
  AnalysisSession(DataSet data, ProjectionSpec spec);

  AnalysisSession(const AnalysisSession&) = delete;
  AnalysisSession& operator=(const AnalysisSession&) = delete;

  /// Current projection (rebuilt on time-range/brush changes).
  const ProjectionView& projection() const { return *projection_; }
  DetailView& detail() { return *detail_; }
  TimelineView& timeline() { return *timeline_; }

  /// The session's query engine (shared across rebuilds) and its cache
  /// counters (the CLI's --cache-stats report).
  QueryEngine& engine() { return *engine_; }
  QueryStats query_stats() const { return engine_->stats(); }

  /// Timeline interaction: re-aggregates projection + detail on [t0, t1).
  void select_time_range(double t0, double t1);
  void clear_time_range();

  /// Detail interaction: brush an axis, then filter the projection to the
  /// brushed terminals (paper: "the projection views will be updated
  /// accordingly to represent the selected data").
  void brush(const std::string& axis, double lo, double hi);
  void clear_brushes();

  /// Projection interaction: select an aggregate item; its source entities
  /// are handed to the detail view (and, for terminal selections, their
  /// associated links are highlighted in the projection too).
  void select_aggregate(std::size_t ring, std::size_t item);

  /// Renders the whole UI (projection left, detail right, timeline below).
  std::string to_svg(double width = 1400, double height = 900) const;
  void save_svg(const std::string& path, double width = 1400,
                double height = 900) const;

 private:
  void rebuild();

  DataSet data_;
  ProjectionSpec spec_;
  std::optional<QueryEngine> engine_;  // over data_; outlives every rebuild
  std::optional<ProjectionView> projection_;
  std::optional<DetailView> detail_;
  std::optional<TimelineView> timeline_;
  double sel_t0_ = 0.0, sel_t1_ = 0.0;
};

}  // namespace dv::core
