// Streaming statistics and exact percentiles.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

namespace dv {

/// Streaming accumulator: count/sum/min/max plus Welford mean & variance.
class Accumulator {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double sum() const { return sum_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  /// Population variance; 0 for fewer than 2 samples.
  double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_) : 0.0; }
  double stddev() const;

 private:
  std::size_t n_ = 0;
  double sum_ = 0.0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Exact percentile (sorts a copy). q in [0,1].
double percentile(std::vector<double> values, double q);

}  // namespace dv
