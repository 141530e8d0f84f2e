// Projection-view specifications (Sec. IV-B2/B3 of the paper).
//
// A projection view is specified as an ordered list of levels; each level
// selects an entity (`project`), a grouping (`aggregate`, one or more
// attributes, optionally `maxBins`-rebinned), a visual mapping (`vmap`:
// color / size / x / y), a color ramp (`colors`) and optional `filter`
// ranges — exactly the key-value script syntax of Fig. 5. A builder API
// mirrors the visual interface of Fig. 4(a).
//
// The plot type of a ring follows the paper's rule — it is chosen from the
// number of visual encodings the user defined: 1 → 1-D heatmap,
// 2 → bar chart, 3 → 2-D heatmap, 4 → scatter plot.
#pragma once

#include <string>
#include <vector>

#include "core/aggregation.hpp"
#include "core/datatable.hpp"
#include "json/json.hpp"

namespace dv::core {

/// Attribute → visual channel assignment (empty string = channel unused).
struct VisualMapping {
  std::string color;
  std::string size;
  std::string x;
  std::string y;

  std::size_t channel_count() const;
};

enum class PlotType { kHeatmap1D, kBarChart, kHeatmap2D, kScatter };
std::string to_string(PlotType t);

/// One ring of the hierarchical radial visualization.
struct LevelSpec {
  Entity entity = Entity::kRouter;         // project
  std::vector<std::string> aggregate;      // group-by attrs; empty = per-entity
  std::size_t max_bins = 0;                // maxBins
  std::vector<AttrFilter> filters;         // filter
  VisualMapping vmap;                      // vmap
  std::vector<std::string> colors;         // color ramp stop names
  bool border = true;

  PlotType plot_type() const;
  AggregationSpec aggregation_spec() const;
};

/// Ribbons in the centre of the radial layout (Fig. 3): network links
/// bundled between aggregate groups identified by `key` — "router_rank"
/// (Fig. 4), "group_id" (Fig. 9), or "job" (Fig. 13).
struct RibbonSpec {
  bool enabled = true;
  Entity entity = Entity::kLocalLink;      // kLocalLink or kGlobalLink
  std::string key = "router_rank";
  std::string size_attr = "traffic";
  std::string color_attr = "sat_time";
  std::vector<std::string> colors = {"white", "steelblue"};
};

struct ProjectionSpec {
  std::vector<LevelSpec> levels;
  RibbonSpec ribbons;
  /// Restricts sampled metrics to [t0, t1) in every level and the ribbons
  /// (script entry: { window: [t0, t1] }). Inactive by default.
  TimeWindow window;

  /// Parses a Fig. 5-style script (relaxed JSON; a comma-separated list of
  /// level objects, optionally with one "ribbons" object).
  static ProjectionSpec parse(const std::string& script);
  static ProjectionSpec from_json(const json::Value& v);
  json::Value to_json() const;
  /// Round-trippable script (the paper's "save the specification ... for
  /// analyzing another dataset or comparing between datasets").
  std::string to_script() const;
};

/// Fluent builder mirroring the paper's visual interface (Fig. 4a).
class SpecBuilder {
 public:
  /// Starts a new level projecting `entity`.
  SpecBuilder& level(Entity entity);
  SpecBuilder& aggregate(std::vector<std::string> keys);
  SpecBuilder& max_bins(std::size_t n);
  SpecBuilder& filter(const std::string& attr, double lo, double hi);
  SpecBuilder& color(const std::string& attr);
  SpecBuilder& size(const std::string& attr);
  SpecBuilder& x(const std::string& attr);
  SpecBuilder& y(const std::string& attr);
  SpecBuilder& colors(std::vector<std::string> ramp);
  SpecBuilder& no_border();

  SpecBuilder& ribbons(Entity entity, const std::string& key,
                       const std::string& size_attr = "traffic",
                       const std::string& color_attr = "sat_time");
  SpecBuilder& ribbon_colors(std::vector<std::string> ramp);
  SpecBuilder& no_ribbons();

  /// Restricts the whole projection to the time range [t0, t1).
  SpecBuilder& window(double t0, double t1);

  ProjectionSpec build() const;

 private:
  LevelSpec& current();

  ProjectionSpec spec_;
  bool has_level_ = false;
};

}  // namespace dv::core
