#include "util/color.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "util/common.hpp"
#include "util/str.hpp"

namespace dv {

std::string Rgb::hex() const {
  std::string out;
  append_hex(out);
  return out;
}

void Rgb::append_hex(std::string& out) const {
  static constexpr char kDigits[] = "0123456789abcdef";
  char buf[9] = {'#'};
  const std::uint8_t channels[4] = {r, g, b, a};
  const int n = a == 255 ? 3 : 4;
  for (int i = 0; i < n; ++i) {
    buf[1 + 2 * i] = kDigits[channels[i] >> 4];
    buf[2 + 2 * i] = kDigits[channels[i] & 0xf];
  }
  out.append(buf, static_cast<std::size_t>(1 + 2 * n));
}

namespace {

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  throw Error(std::string("invalid hex digit in color: ") + c);
}

const std::unordered_map<std::string, Rgb>& named_colors() {
  static const std::unordered_map<std::string, Rgb> table = {
      {"white", {255, 255, 255}},   {"black", {0, 0, 0}},
      {"red", {255, 0, 0}},         {"green", {0, 128, 0}},
      {"blue", {0, 0, 255}},        {"purple", {128, 0, 128}},
      {"steelblue", {70, 130, 180}},{"orange", {255, 165, 0}},
      {"brown", {165, 42, 42}},     {"gray", {128, 128, 128}},
      {"grey", {128, 128, 128}},    {"lightgray", {211, 211, 211}},
      {"yellow", {255, 255, 0}},    {"gold", {255, 215, 0}},
      {"teal", {0, 128, 128}},      {"navy", {0, 0, 128}},
      {"crimson", {220, 20, 60}},   {"darkgreen", {0, 100, 0}},
      {"magenta", {255, 0, 255}},   {"cyan", {0, 255, 255}},
      {"pink", {255, 192, 203}},    {"olive", {128, 128, 0}},
  };
  return table;
}

}  // namespace

Rgb parse_color(const std::string& raw) {
  const std::string s = to_lower(trim(raw));
  DV_REQUIRE(!s.empty(), "empty color string");
  if (s[0] == '#') {
    const std::string h = s.substr(1);
    auto byte = [&](std::size_t i) {
      return static_cast<std::uint8_t>(hex_digit(h[i]) * 16 +
                                       hex_digit(h[i + 1]));
    };
    if (h.size() == 3) {
      auto nib = [&](std::size_t i) {
        return static_cast<std::uint8_t>(hex_digit(h[i]) * 17);
      };
      return {nib(0), nib(1), nib(2), 255};
    }
    if (h.size() == 6) return {byte(0), byte(2), byte(4), 255};
    if (h.size() == 8) return {byte(0), byte(2), byte(4), byte(6)};
    throw Error("invalid hex color length: " + raw);
  }
  const auto& table = named_colors();
  const auto it = table.find(s);
  if (it == table.end()) throw Error("unknown color name: " + raw);
  return it->second;
}

Rgb lerp(const Rgb& a, const Rgb& b, double t) {
  t = std::clamp(t, 0.0, 1.0);
  auto mix = [t](std::uint8_t x, std::uint8_t y) {
    return static_cast<std::uint8_t>(
        std::lround(static_cast<double>(x) +
                    (static_cast<double>(y) - static_cast<double>(x)) * t));
  };
  return {mix(a.r, b.r), mix(a.g, b.g), mix(a.b, b.b), mix(a.a, b.a)};
}

ColorRamp::ColorRamp(std::vector<Rgb> stops) : stops_(std::move(stops)) {
  DV_REQUIRE(!stops_.empty(), "color ramp needs at least one stop");
}

ColorRamp ColorRamp::from_names(const std::vector<std::string>& names) {
  std::vector<Rgb> stops;
  stops.reserve(names.size());
  for (const auto& n : names) stops.push_back(parse_color(n));
  return ColorRamp(std::move(stops));
}

Rgb ColorRamp::at(double t) const {
  if (stops_.size() == 1) return stops_[0];
  t = std::clamp(t, 0.0, 1.0);
  const double pos = t * static_cast<double>(stops_.size() - 1);
  const auto lo = std::min(static_cast<std::size_t>(pos), stops_.size() - 2);
  return lerp(stops_[lo], stops_[lo + 1], pos - static_cast<double>(lo));
}

}  // namespace dv
