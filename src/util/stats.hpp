// Streaming statistics and small fitting helpers used to characterise
// Monte-Carlo runs (threshold-voltage distributions, pulse counts,
// per-page error counts) and to validate model fits (Fig. 4 RMSE).
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

namespace xlf {

// Welford running mean/variance; O(1) space, numerically stable.
// merge() is associative with add(): merging per-worker partials in a
// fixed order reproduces the serial accumulation exactly, which is what
// the parallel explore engine's deterministic reduction relies on.
class RunningStats {
 public:
  void add(double x);
  // Fold `other` into this; an empty side never disturbs the other's
  // mean, variance or extrema.
  void merge(const RunningStats& other);

  std::size_t count() const { return n_; }
  double mean() const;
  // Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  // Extrema of the samples seen; NaN while empty (no samples), so a
  // zero-request stream cannot masquerade as a measured 0.0 in
  // reports.
  double min() const;
  double max() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  // +/-infinity identities: the extrema stay correct under any merge
  // order without special-casing an empty side.
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Exact percentile of a sample vector (copies and sorts; test-scale).
double percentile(std::vector<double> samples, double q);

// Root-mean-square error between two equally sized series.
double rmse(const std::vector<double>& a, const std::vector<double>& b);

// Least-squares straight line y = slope*x + intercept.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r2 = 0.0;
};
LinearFit fit_line(const std::vector<double>& x, const std::vector<double>& y);

// Standard normal upper-tail probability Q(x) = P(N(0,1) > x), and its
// inverse. Q underpins the distribution-overlap RBER model; the inverse
// is used to calibrate distribution sigmas from a target RBER.
double q_function(double x);
double q_function_inverse(double p);

// Log-spaced grid [lo, hi] with `points` samples, inclusive; the x-axes
// of every lifetime figure in the paper (P/E cycles 1e0..1e6).
std::vector<double> log_space(double lo, double hi, std::size_t points);

}  // namespace xlf
