// Color types and interpolating color scales for the visualization layer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dv {

/// 8-bit sRGB color with alpha.
struct Rgb {
  std::uint8_t r = 0, g = 0, b = 0, a = 255;

  bool operator==(const Rgb&) const = default;

  /// "#rrggbb" (alpha omitted when fully opaque, else "#rrggbbaa").
  std::string hex() const;
  /// Appends hex() to `out` without building a string.
  void append_hex(std::string& out) const;
};

/// Parses "#rgb", "#rrggbb", "#rrggbbaa" or a known CSS color name
/// (the palette used in the paper's figures: white, purple, steelblue,
/// green, orange, brown, ... ). Throws dv::Error on unknown input.
Rgb parse_color(const std::string& s);

/// Linear interpolation in sRGB (matches the paper's "linearly interpolated
/// from white to blue" encoding).
Rgb lerp(const Rgb& a, const Rgb& b, double t);

/// Piecewise-linear multi-stop color scale over t in [0,1].
class ColorRamp {
 public:
  /// Stops are evenly spaced; at least one required.
  explicit ColorRamp(std::vector<Rgb> stops);
  static ColorRamp from_names(const std::vector<std::string>& names);

  Rgb at(double t) const;
  const Rgb& stop(std::size_t i) const { return stops_[i]; }

 private:
  std::vector<Rgb> stops_;
};

}  // namespace dv
