#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace nidc::e2e {

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  // Interpolating toward a missed sample would invent a finite latency
  // nobody saw; a quantile that touches one is a miss.
  if (frac > 0.0 && samples[hi] >= kMissedMs) return samples[hi];
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

size_t SamplesBeyond(size_t n, double q) {
  const size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return n > rank ? n - rank : 0;
}

double HighestSupportedQuantile(size_t n) {
  static constexpr double kLadder[] = {0.999, 0.99, 0.95, 0.9, 0.5};
  for (double q : kLadder) {
    if (SamplesBeyond(n, q) >= 10) return q;
  }
  return 0.0;
}

std::string QuantileLabel(double q) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "p%g", q * 100.0);
  return buf;
}

double MedianOfPartMedians(const std::vector<std::vector<double>>& parts) {
  std::vector<double> medians;
  for (const std::vector<double>& part : parts) {
    if (!part.empty()) medians.push_back(Quantile(part, 0.5));
  }
  return Quantile(medians, 0.5);
}

Spread SpreadOf(const std::vector<double>& values) {
  Spread spread;
  if (values.empty()) return spread;
  spread.median = Quantile(values, 0.5);
  spread.q1 = Quantile(values, 0.25);
  spread.q3 = Quantile(values, 0.75);
  spread.min = *std::min_element(values.begin(), values.end());
  spread.max = *std::max_element(values.begin(), values.end());
  return spread;
}

}  // namespace nidc::e2e
