// Sample statistics shared by the end-to-end benchmark (nidc_bench) and
// its tests: order statistics, the percentile-support rule, and the
// repetition spread every reported metric carries.

#ifndef NIDC_BENCH_E2E_STATS_H_
#define NIDC_BENCH_E2E_STATS_H_

#include <cstddef>
#include <string>
#include <vector>

namespace nidc::e2e {

/// The latency recorded for a request that was refused or failed: it
/// misses every latency limit, so it sorts above every real sample.
inline constexpr double kMissedMs = 1e6;

/// Quantile `q` in [0, 1] of `samples` by linear interpolation between
/// order statistics (the default of numpy and of Python's
/// statistics.quantiles(method="inclusive")). 0 for an empty sample.
double Quantile(std::vector<double> samples, double q);

/// Samples strictly beyond the `q` quantile's rank: n - ceil(q * n).
size_t SamplesBeyond(size_t n, double q);

/// The percentile-support rule: the highest of p50, p90, p95, p99, p99.9
/// that has at least ten samples beyond it, as a fraction (0.99); 0 when
/// even p50 is unsupported (fewer than 20 samples).
double HighestSupportedQuantile(size_t n);

/// "p50", "p95", "p99.9" for 0.5, 0.95, 0.999.
std::string QuantileLabel(double q);

/// The median of the non-empty parts' medians. With the parts taken at
/// different times of a run, a host slowdown that spans less than half of
/// them moves it far less than it moves the plain median — the end-to-end
/// medians use it for that reason. 0 when every part is empty.
double MedianOfPartMedians(const std::vector<std::vector<double>>& parts);

/// Spread of one metric over repetitions.
struct Spread {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Median, quartiles (inclusive method), min and max of `values`.
Spread SpreadOf(const std::vector<double>& values);

}  // namespace nidc::e2e

#endif  // NIDC_BENCH_E2E_STATS_H_
