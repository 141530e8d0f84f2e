#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/common.hpp"

namespace dv {

void Accumulator::add(double x) {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

double percentile(std::vector<double> values, double q) {
  DV_REQUIRE(!values.empty(), "percentile of empty set");
  DV_REQUIRE(q >= 0.0 && q <= 1.0, "percentile q out of [0,1]");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= values.size()) return values.back();
  return values[lo] * (1.0 - frac) + values[lo + 1] * frac;
}

}  // namespace dv
