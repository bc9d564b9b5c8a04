// Summary statistics and empirical distributions used by the benchmark
// harnesses (percentiles for CCT-slowdown CDFs, means for affected-flow
// percentages, etc.).
#pragma once

#include <cstddef>
#include <vector>

namespace sbk {

/// Accumulates scalar samples and answers summary queries. Percentile
/// queries sort a copy lazily; the accumulator itself is append-only.
class Summary {
 public:
  void add(double x);
  void add_all(const std::vector<double>& xs);
  /// Appends another accumulator's samples (in their insertion order)
  /// after this one's — the merge step for per-thread/per-scenario
  /// accumulation in parallel sweeps.
  void merge(const Summary& other);

  [[nodiscard]] std::size_t count() const noexcept { return samples_.size(); }
  [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  /// Sample standard deviation (n-1 denominator); 0 for fewer than 2
  /// samples.
  [[nodiscard]] double stddev() const;
  /// Linear-interpolated percentile, p in [0, 100].
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double median() const { return percentile(50.0); }

  [[nodiscard]] const std::vector<double>& samples() const noexcept {
    return samples_;
  }

 private:
  void ensure_sorted() const;

  std::vector<double> samples_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
  double sum_ = 0.0;
};

/// Empirical CDF point: F(value) = fraction.
struct CdfPoint {
  double value;
  double fraction;
};

/// Builds an empirical CDF from samples, reduced to at most max_points
/// evenly spaced quantiles (enough to plot the paper's Figure 1(c)).
[[nodiscard]] std::vector<CdfPoint> empirical_cdf(std::vector<double> samples,
                                                  std::size_t max_points = 100);

/// Reads a percentile (p in [0, 100]) back off an empirical CDF by
/// linear interpolation between the bracketing points. A single-point
/// CDF returns that sample for every percentile (no two-point
/// interpolation exists to run); an empty CDF is a precondition
/// violation.
[[nodiscard]] double cdf_percentile(const std::vector<CdfPoint>& cdf, double p);

}  // namespace sbk
