// Matrix-view baseline tests.
#include <gtest/gtest.h>

#include "core/matrix_view.hpp"
#include "helpers.hpp"

namespace dv::core {
namespace {

TEST(MatrixView, RouterMatrixSumsTraffic) {
  const auto mini = dv::testing::make_mini_run();
  const DataSet data(mini.run);
  const MatrixView m(data, Entity::kLocalLink, "router");
  EXPECT_EQ(m.dim(), mini.topo.num_routers());
  EXPECT_EQ(m.visual_items(), m.dim() * m.dim());
  double total = 0;
  for (const double cell : m.cells()) total += cell;
  EXPECT_NEAR(total, mini.run.total_local_traffic(), total * 1e-9);
  // Diagonal is empty (no self links).
  for (std::size_t i = 0; i < m.dim(); ++i) {
    EXPECT_DOUBLE_EQ(m.cells()[i * m.dim() + i], 0.0);
  }
}

TEST(MatrixView, GroupMatrixFromGlobalLinks) {
  const auto mini = dv::testing::make_mini_run();
  const DataSet data(mini.run);
  const MatrixView m(data, Entity::kGlobalLink, "group");
  EXPECT_EQ(m.dim(), mini.topo.groups());
  double total = 0;
  for (const double cell : m.cells()) total += cell;
  EXPECT_NEAR(total, mini.run.total_global_traffic(), total * 1e-9);
}

TEST(MatrixView, RendersSmallRefusesLarge) {
  const auto mini = dv::testing::make_mini_run();
  const DataSet data(mini.run);
  const MatrixView m(data, Entity::kLocalLink, "router");
  const auto svg = m.to_svg(400, "matrix");
  EXPECT_NE(svg.find("<rect"), std::string::npos);
  EXPECT_THROW(m.to_svg(400, "", /*max_render_dim=*/8), Error);
}

TEST(MatrixView, Validation) {
  const auto mini = dv::testing::make_mini_run();
  const DataSet data(mini.run);
  EXPECT_THROW(MatrixView(data, Entity::kTerminal, "router"), Error);
  EXPECT_THROW(MatrixView(data, Entity::kLocalLink, "bogus"), Error);
}

}  // namespace
}  // namespace dv::core
