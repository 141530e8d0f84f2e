#include "core/matrix_view.hpp"

#include <algorithm>
#include <cmath>

namespace dv::core {

MatrixView::MatrixView(const DataSet& data, Entity link_entity,
                       const std::string& key,
                       const std::string& value_attr)
    : value_attr_(value_attr) {
  DV_REQUIRE(link_entity == Entity::kLocalLink ||
                 link_entity == Entity::kGlobalLink,
             "matrix view needs a link entity");
  const DataTable& links = data.table(link_entity);
  const std::string src_col = key == "router"  ? "src_router"
                              : key == "group" ? "group_id"
                                               : "";
  const std::string dst_col = key == "router"  ? "dst_router"
                              : key == "group" ? "dst_group"
                                               : "";
  DV_REQUIRE(!src_col.empty(), "matrix key must be 'router' or 'group'");

  const auto& src = links.column(src_col);
  const auto& dst = links.column(dst_col);
  const auto& val = links.column(value_attr);

  double max_key = 0;
  for (std::uint32_t r = 0; r < links.rows(); ++r) {
    max_key = std::max({max_key, src[r], dst[r]});
  }
  dim_ = static_cast<std::size_t>(max_key) + 1;
  cells_.assign(dim_ * dim_, 0.0);
  for (std::uint32_t r = 0; r < links.rows(); ++r) {
    const auto i = static_cast<std::size_t>(src[r]);
    const auto j = static_cast<std::size_t>(dst[r]);
    cells_[i * dim_ + j] += val[r];
    max_ = std::max(max_, cells_[i * dim_ + j]);
  }
}

void MatrixView::render(SvgDocument& doc, double x, double y, double size,
                        std::size_t max_render_dim) const {
  DV_REQUIRE(dim_ <= max_render_dim,
             "matrix view does not scale to " + std::to_string(dim_) +
                 " entities (limit " + std::to_string(max_render_dim) +
                 ") — use an aggregated projection view");
  const double cell = size / static_cast<double>(dim_);
  const ColorRamp ramp = ColorRamp::from_names({"white", "purple"});
  for (std::size_t i = 0; i < dim_; ++i) {
    for (std::size_t j = 0; j < dim_; ++j) {
      const double v = cells_[i * dim_ + j];
      const Rgb c = ramp.at(max_ > 0 ? v / max_ : 0.0);
      doc.rect(x + cell * static_cast<double>(j),
               y + cell * static_cast<double>(i), cell, cell,
               Style::filled(c));
    }
  }
  doc.rect(x, y, size, size, Style::stroked(Rgb{120, 120, 120}, 0.8));
}

std::string MatrixView::to_svg(double size_px, const std::string& title,
                               std::size_t max_render_dim) const {
  SvgDocument doc(size_px, size_px + 28);
  doc.rect(0, 0, size_px, size_px + 28, Style::filled(Rgb{255, 255, 255}));
  if (!title.empty()) {
    doc.text(size_px / 2, 18, title, 13, Rgb{40, 40, 40}, "middle");
  }
  render(doc, 10, 26, size_px - 20, max_render_dim);
  return std::move(doc).str();
}

}  // namespace dv::core
