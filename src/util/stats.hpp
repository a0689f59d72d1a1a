#pragma once
/// \file stats.hpp
/// Small statistics toolkit used by the scenario runner and the benchmarks:
/// Welford online accumulation plus order statistics over stored samples.

#include <cstddef>
#include <vector>

namespace spmap {

/// Numerically stable (Welford) online mean/variance accumulator.
class OnlineStats {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    if (n_ == 1 || x < min_) min_ = x;
    if (n_ == 1 || x > max_) max_ = x;
  }

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  ///< Sample variance (n-1 denominator).
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

  /// Merges another accumulator into this one (parallel reduction).
  void merge(const OnlineStats& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Sample container with order statistics; stores all values.
class Samples {
 public:
  void add(double x) { values_.push_back(x); }
  std::size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double mean() const;
  double stddev() const;
  double min() const;
  double max() const;
  /// Linear-interpolated quantile, q in [0, 1]. Requires non-empty.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
  mutable std::vector<double> sorted_;  // lazily maintained sort cache
  void ensure_sorted() const;
};

/// Average positive relative improvement, the paper's headline metric
/// (Section IV-A): mean over pairs of max(0, (base - value) / base).
/// Pairs where base <= 0 contribute zero.
double average_positive_relative_improvement(
    const std::vector<double>& baselines, const std::vector<double>& values);

}  // namespace spmap
