// Matrix-view baseline.
//
// The paper positions its aggregated radial encoding *against* the matrix
// views that are "common visualizations used for performance and
// communication data" (Sec. IV-B1): a matrix needs one cell per entity
// pair, so it cannot scale to large networks, and it can show only one
// metric per cell. This class implements that baseline faithfully — an
// N x N heatmap of a link metric between routers or groups — so the
// scalability comparison can be measured (see bench_ablation_encoding).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/datatable.hpp"
#include "core/svg.hpp"
#include "util/color.hpp"

namespace dv::core {

class MatrixView {
 public:
  /// Aggregates `value_attr` of the link entity into a matrix between
  /// src/dst keys. `key` is "router" (src_router x dst_router) or "group"
  /// (group_id x dst_group).
  MatrixView(const DataSet& data, Entity link_entity, const std::string& key,
             const std::string& value_attr = "traffic");

  std::size_t dim() const { return dim_; }
  /// Row-major dim() x dim() sums of the value attribute, the cells the
  /// heat map draws.
  const std::vector<double>& cells() const { return cells_; }

  /// Cells the encoding must draw — the scalability cost the paper calls
  /// out (always dim^2; a radial aggregated view draws O(aggregates)).
  std::size_t visual_items() const { return dim_ * dim_; }

  /// Renders the heatmap; refuses dimensions that would be unreadable
  /// (> max_render_dim), which is exactly the baseline's limitation.
  void render(SvgDocument& doc, double x, double y, double size,
              std::size_t max_render_dim = 512) const;
  std::string to_svg(double size_px = 700, const std::string& title = "",
                     std::size_t max_render_dim = 512) const;

 private:
  std::size_t dim_ = 0;
  std::vector<double> cells_;  // row-major
  double max_ = 0.0;
  std::string value_attr_;
};

}  // namespace dv::core
