#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace sbk {

void Summary::add(double x) {
  samples_.push_back(x);
  sum_ += x;
  sorted_valid_ = false;
}

void Summary::add_all(const std::vector<double>& xs) {
  for (double x : xs) add(x);
}

void Summary::merge(const Summary& other) {
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
  sum_ += other.sum_;
  sorted_valid_ = false;
}

double Summary::mean() const {
  SBK_EXPECTS(!samples_.empty());
  return sum_ / static_cast<double>(samples_.size());
}

double Summary::min() const {
  SBK_EXPECTS(!samples_.empty());
  return *std::min_element(samples_.begin(), samples_.end());
}

double Summary::max() const {
  SBK_EXPECTS(!samples_.empty());
  return *std::max_element(samples_.begin(), samples_.end());
}

double Summary::stddev() const {
  if (samples_.size() < 2) return 0.0;
  double m = mean();
  double acc = 0.0;
  for (double x : samples_) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(samples_.size() - 1));
}

void Summary::ensure_sorted() const {
  if (!sorted_valid_) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
}

double Summary::percentile(double p) const {
  SBK_EXPECTS(!samples_.empty());
  SBK_EXPECTS(p >= 0.0 && p <= 100.0);
  ensure_sorted();
  if (sorted_.size() == 1) return sorted_.front();
  double rank = p / 100.0 * static_cast<double>(sorted_.size() - 1);
  auto lo = static_cast<std::size_t>(rank);
  std::size_t hi = std::min(lo + 1, sorted_.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return sorted_[lo] + frac * (sorted_[hi] - sorted_[lo]);
}

std::vector<CdfPoint> empirical_cdf(std::vector<double> samples,
                                    std::size_t max_points) {
  SBK_EXPECTS(max_points >= 2);
  std::vector<CdfPoint> cdf;
  if (samples.empty()) return cdf;
  std::sort(samples.begin(), samples.end());
  std::size_t n = samples.size();
  if (n == 1) {
    // A one-sample distribution collapses to a single step at F = 1.
    cdf.push_back({samples.front(), 1.0});
    return cdf;
  }
  // With max_points >= 2 and n >= 2, points >= 2 always holds here.
  std::size_t points = std::min(max_points, n);
  cdf.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    // Evenly spaced ranks, always including the min and the max sample.
    std::size_t rank = (i * (n - 1)) / (points - 1);
    cdf.push_back({samples[rank],
                   static_cast<double>(rank + 1) / static_cast<double>(n)});
  }
  return cdf;
}

double cdf_percentile(const std::vector<CdfPoint>& cdf, double p) {
  SBK_EXPECTS(!cdf.empty());
  SBK_EXPECTS(p >= 0.0 && p <= 100.0);
  // A single-point CDF (one underlying sample) has no bracketing pair to
  // interpolate between: every percentile is that sample.
  if (cdf.size() == 1) return cdf.front().value;
  const double f = p / 100.0;
  if (f <= cdf.front().fraction) return cdf.front().value;
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    if (f <= cdf[i].fraction) {
      const CdfPoint& a = cdf[i - 1];
      const CdfPoint& b = cdf[i];
      const double span = b.fraction - a.fraction;
      if (span <= 0.0) return b.value;  // repeated fraction: step function
      const double t = (f - a.fraction) / span;
      return a.value + t * (b.value - a.value);
    }
  }
  return cdf.back().value;
}

}  // namespace sbk
