#include "src/util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "src/util/expect.hpp"

namespace xlf {

void RunningStats::add(double x) {
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  // Extrema carry +/-infinity identities, so an empty side is inert.
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  if (other.n_ == 0) return;
  if (n_ == 0) {
    n_ = other.n_;
    mean_ = other.mean_;
    m2_ = other.m2_;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
}

double RunningStats::mean() const { return mean_; }

double RunningStats::variance() const {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }
double RunningStats::min() const {
  return n_ == 0 ? std::numeric_limits<double>::quiet_NaN() : min_;
}
double RunningStats::max() const {
  return n_ == 0 ? std::numeric_limits<double>::quiet_NaN() : max_;
}

double percentile(std::vector<double> samples, double q) {
  XLF_EXPECT(!samples.empty());
  XLF_EXPECT(q >= 0.0 && q <= 1.0);
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lower = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lower);
  if (lower + 1 >= samples.size()) return samples.back();
  return samples[lower] * (1.0 - frac) + samples[lower + 1] * frac;
}

double rmse(const std::vector<double>& a, const std::vector<double>& b) {
  XLF_EXPECT(a.size() == b.size());
  XLF_EXPECT(!a.empty());
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return std::sqrt(sum / static_cast<double>(a.size()));
}

LinearFit fit_line(const std::vector<double>& x, const std::vector<double>& y) {
  XLF_EXPECT(x.size() == y.size());
  XLF_EXPECT(x.size() >= 2);
  const double n = static_cast<double>(x.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
    syy += y[i] * y[i];
  }
  LinearFit fit;
  const double denom = n * sxx - sx * sx;
  XLF_EXPECT(denom != 0.0);
  fit.slope = (n * sxy - sx * sy) / denom;
  fit.intercept = (sy - fit.slope * sx) / n;
  const double ss_tot = syy - sy * sy / n;
  double ss_res = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double r = y[i] - (fit.slope * x[i] + fit.intercept);
    ss_res += r * r;
  }
  fit.r2 = ss_tot <= 0.0 ? 1.0 : 1.0 - ss_res / ss_tot;
  return fit;
}

double q_function(double x) {
  return 0.5 * std::erfc(x / std::sqrt(2.0));
}

double q_function_inverse(double p) {
  XLF_EXPECT(p > 0.0 && p < 1.0);
  // Bisection on the monotone Q; the models only need ~1e-12 accuracy
  // in x, reached in ~60 iterations over [-40, 40].
  double lo = -40.0, hi = 40.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (q_function(mid) > p) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

std::vector<double> log_space(double lo, double hi, std::size_t points) {
  XLF_EXPECT(lo > 0.0 && hi > lo);
  XLF_EXPECT(points >= 2);
  std::vector<double> grid(points);
  const double llo = std::log10(lo);
  const double lhi = std::log10(hi);
  for (std::size_t i = 0; i < points; ++i) {
    const double f = static_cast<double>(i) / static_cast<double>(points - 1);
    grid[i] = std::pow(10.0, llo + f * (lhi - llo));
  }
  return grid;
}

}  // namespace xlf
