// Fixed-memory, multi-resolution time series over MetricsRegistry
// snapshots: the in-process answer to "when did sweep latency regress"
// that /metrics (a point-in-time scrape) cannot give without external
// scrape infrastructure.
//
// The store is fed once per pipeline step (ObserveStep). Each tracked
// series keeps three ring-buffered resolutions — per-step raw windows,
// 16-step windows and 256-step windows — where every window carries
// min/max/mean/p50/p99 of the raw per-step samples it covers (percentiles
// by the nearest-rank rule: sorted[ceil(q*n) - 1]). Memory is bounded by
// construction: capacities are fixed, windows are summarized in place,
// and the per-series pending buffers never exceed the coarsest bucket.
//
// What becomes a series:
//   * counters    — the per-step delta (rates, not lifetime totals);
//   * gauges      — the raw per-step value;
//   * histograms  — the per-step mean of new observations, as "<name>.mean"
//     (steps contributing no observations are skipped);
//   * derived     — timeseries.docs_per_sec, timeseries.moves_per_step and
//     timeseries.durability_lag, computed from the underlying counter
//     deltas.
//
// Every sample also feeds an online EWMA z-score anomaly detector
// (per-series exponentially weighted mean + variance). After a warm-up of
// kAnomalyMinSamples samples, a sample more than kAnomalyThreshold
// standard deviations from the tracked mean fires a `metric_anomaly`
// EventLog entry carrying the series name, offending value and z-score.
//
// Thread-safety: one mutex; ObserveStep runs on the driver thread once per
// step and the render/query methods are called from the introspection
// server thread.

#ifndef NIDC_OBS_TIMESERIES_H_
#define NIDC_OBS_TIMESERIES_H_

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "nidc/obs/event_log.h"
#include "nidc/obs/metrics.h"

namespace nidc::obs {

/// One downsampled window of a series: summary statistics of the `count`
/// raw per-step samples starting at step `start_step`.
struct SeriesWindow {
  uint64_t start_step = 0;
  uint32_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
};

class TimeSeriesStore {
 public:
  /// Steps folded into one window at each resolution, ascending.
  static constexpr std::array<size_t, 3> kResolutions = {1, 16, 256};
  /// Windows retained per resolution, parallel to kResolutions.
  static constexpr std::array<size_t, 3> kCapacities = {512, 256, 64};
  /// Hard cap on distinct tracked series; names past the cap are rejected
  /// (counted in timeseries.series_rejected) so memory stays bounded no
  /// matter what the registry grows.
  static constexpr size_t kMaxSeries = 256;
  /// EWMA smoothing factor of the anomaly detector's mean/variance.
  static constexpr double kAnomalyAlpha = 0.25;
  /// |z| above which a sample fires a metric_anomaly event.
  static constexpr double kAnomalyThreshold = 4.0;
  /// Samples a series must accumulate before the detector may fire.
  static constexpr size_t kAnomalyMinSamples = 8;

  struct Options {
    /// Registry the store snapshots each step *and* publishes its own
    /// timeseries.* instruments into. Null disables ObserveStep-driven
    /// ingestion (ObserveSample still works, for tests).
    MetricsRegistry* metrics = nullptr;
    /// Sink for metric_anomaly events (null: anomalies only count).
    EventLog* events = nullptr;
  };

  TimeSeriesStore() : TimeSeriesStore(Options{}) {}
  explicit TimeSeriesStore(Options options);

  TimeSeriesStore(const TimeSeriesStore&) = delete;
  TimeSeriesStore& operator=(const TimeSeriesStore&) = delete;

  /// Folds one post-step registry snapshot into every tracked series and
  /// computes the derived rates. Call once per pipeline step, after the
  /// step's metrics are recorded. No-op when no registry was supplied.
  void ObserveStep(uint64_t step);

  /// ObserveStep with an injected wall-clock reading (seconds, any
  /// monotone origin) — the seam the docs_per_sec tests use.
  void ObserveStepAt(uint64_t step, double now_seconds);

  /// Feeds one raw sample into `name` directly (bypassing the registry):
  /// the ingestion primitive ObserveStep is built on, exposed for tests
  /// and for drivers with signals outside the registry.
  void ObserveSample(const std::string& name, uint64_t step, double value);

  /// Sorted names of every tracked series.
  std::vector<std::string> Names() const;

  /// The retained windows of `name` at `resolution` (one of
  /// kResolutions), oldest first. Unknown names or resolutions yield an
  /// empty vector (distinguish via Has()).
  std::vector<SeriesWindow> Series(const std::string& name,
                                   size_t resolution) const;

  bool Has(const std::string& name) const;

  uint64_t anomalies_fired() const;
  uint64_t observations() const;
  size_t num_series() const;

 private:
  struct ResolutionRing {
    std::vector<double> pending;
    uint64_t pending_start_step = 0;
    std::deque<SeriesWindow> windows;

    /// Folds one sample into a ring of `bucket`-step windows that keeps
    /// the newest `capacity` of them.
    void Add(uint64_t step, double value, size_t bucket, size_t capacity);
  };

  struct AnomalyState {
    uint64_t samples = 0;
    double mean = 0.0;
    double variance = 0.0;
  };

  struct SeriesState {
    ResolutionRing rings[kResolutions.size()];
    AnomalyState anomaly;
  };

  // Last-snapshot state for delta-based ingestion.
  struct DeltaState {
    double last = 0.0;
    bool seen = false;
  };

  SeriesState* FindOrCreateLocked(const std::string& name);
  void IngestLocked(const std::string& name, uint64_t step, double value);
  // Per-step counter delta against counter_last_; first sight yields the
  // full value (counters start at 0 when the run starts).
  double CounterDeltaLocked(const std::string& name, double value);

  const Options options_;
  Counter* observations_counter_ = nullptr;
  Counter* anomalies_counter_ = nullptr;
  Counter* rejected_counter_ = nullptr;
  Gauge* tracked_gauge_ = nullptr;

  mutable std::mutex mu_;
  std::map<std::string, SeriesState> series_;
  std::map<std::string, DeltaState> counter_last_;
  uint64_t observations_ = 0;
  uint64_t anomalies_ = 0;
  uint64_t rejected_ = 0;
  double last_now_seconds_ = 0.0;
  bool has_last_now_ = false;
  // Durability-lag bookkeeping: WAL records at the last snapshot commit.
  double wal_records_at_snapshot_ = 0.0;
  double last_snapshots_ = 0.0;
};

/// `{"series":[...names],"resolutions":[1,16,256],"anomalies":N,...}` —
/// the /timeseriesz index document served without a metric= parameter.
std::string RenderTimeSeriesListJson(const TimeSeriesStore& store);

/// `{"metric":...,"res":...,"windows":[{"step":..,"count":..,...},...]}`.
std::string RenderTimeSeriesJson(const TimeSeriesStore& store,
                                 const std::string& metric,
                                 size_t resolution);

}  // namespace nidc::obs

#endif  // NIDC_OBS_TIMESERIES_H_
