// SVG primitive and scale tests.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/scales.hpp"
#include "core/svg.hpp"
#include "helpers.hpp"

namespace dv::core {
namespace {

TEST(Scales, LinearNormClamps) {
  const LinearScale s(10.0, 20.0);
  EXPECT_DOUBLE_EQ(s.norm(10.0), 0.0);
  EXPECT_DOUBLE_EQ(s.norm(20.0), 1.0);
  EXPECT_DOUBLE_EQ(s.norm(15.0), 0.5);
  EXPECT_DOUBLE_EQ(s.norm(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.norm(100.0), 1.0);
}

TEST(Scales, DegenerateDomainIsZero) {
  LinearScale s;
  EXPECT_DOUBLE_EQ(s.norm(5.0), 0.0);  // invalid
  s.include(3.0);
  EXPECT_DOUBLE_EQ(s.norm(3.0), 0.0);  // single point
}

TEST(Scales, IncludeAndMerge) {
  LinearScale a;
  a.include(5.0);
  a.include(1.0);
  EXPECT_DOUBLE_EQ(a.lo(), 1.0);
  EXPECT_DOUBLE_EQ(a.hi(), 5.0);
  LinearScale b(4.0, 9.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.hi(), 9.0);
  EXPECT_THROW(LinearScale(2.0, 1.0), Error);
}

TEST(Scales, ScaleSetMergeIsUnion) {
  ScaleSet s1, s2;
  s1.get_or_add("x").include(0.0);
  s1.get_or_add("x").include(10.0);
  s2.get_or_add("x").include(50.0);
  s2.get_or_add("y").include(7.0);
  s1.merge(s2);
  EXPECT_DOUBLE_EQ(s1.at("x").hi(), 50.0);
  EXPECT_TRUE(s1.has("y"));
  EXPECT_THROW(s1.at("z"), Error);
}

TEST(Svg, PrimitivesAppearInOutput) {
  SvgDocument doc(100, 100);
  doc.rect(1, 2, 3, 4, Style::filled(Rgb{255, 0, 0}));
  doc.circle(10, 10, 5, Style::stroked(Rgb{0, 0, 255}, 2.0));
  doc.line({0, 0}, {10, 10}, Style::stroked(Rgb{0, 0, 0}));
  doc.polyline({{0, 0}, {1, 1}, {2, 0}}, Style::stroked(Rgb{0, 128, 0}));
  doc.text(5, 5, "a<b&c", 10, Rgb{0, 0, 0});
  doc.ring_sector(50, 50, 10, 20, 0.0, 1.0, Style::filled(Rgb{1, 2, 3}));
  doc.ribbon(50, 50, 30, 0.0, 0.3, 2.0, 2.3, Style::filled(Rgb{9, 9, 9}));
  const std::string out = doc.str();
  EXPECT_EQ(doc.element_count(), 7u);
  EXPECT_NE(out.find("<rect"), std::string::npos);
  EXPECT_NE(out.find("<circle"), std::string::npos);
  EXPECT_NE(out.find("fill=\"#ff0000\""), std::string::npos);
  EXPECT_NE(out.find("stroke=\"#0000ff\""), std::string::npos);
  EXPECT_NE(out.find("a&lt;b&amp;c"), std::string::npos);  // escaped text
  EXPECT_NE(out.find("viewBox=\"0 0 100 100\""), std::string::npos);
}

TEST(Svg, GroupsMustBalance) {
  SvgDocument doc(10, 10);
  doc.begin_group("g1");
  EXPECT_THROW(doc.str(), Error);  // unclosed
  doc.end_group();
  EXPECT_NO_THROW(doc.str());
  EXPECT_THROW(doc.end_group(), Error);
}

TEST(Svg, AlphaChannelsSerialized) {
  SvgDocument doc(10, 10);
  doc.rect(0, 0, 1, 1, Style::filled(Rgb{10, 20, 30, 128}));
  EXPECT_NE(doc.str().find("fill-opacity"), std::string::npos);
}

TEST(Svg, SaveWritesFile) {
  SvgDocument doc(10, 10);
  doc.circle(5, 5, 2, Style::filled(Rgb{0, 0, 0}));
  const auto path =
      (dv::testing::test_temp_dir() / "dv_svg_test.svg").string();
  doc.save(path);
  EXPECT_GT(std::filesystem::file_size(path), 50u);
  std::filesystem::remove(path);
  EXPECT_THROW(doc.save("/nonexistent/dir/x.svg"), Error);
}

TEST(Svg, InvalidGeometryThrows) {
  EXPECT_THROW(SvgDocument(0, 10), Error);
  SvgDocument doc(10, 10);
  EXPECT_THROW(doc.ring_sector(0, 0, 5, 2, 0, 1, Style{}), Error);
}

}  // namespace
}  // namespace dv::core
