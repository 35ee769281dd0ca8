// Per-tenant service-level objectives with multi-window burn-rate
// alerting.
//
// Two objectives per tenant, both declarative:
//   * latency — the fraction of documents whose enqueue-to-applied
//     latency stays under a threshold (fed by the request tracer's
//     completion callback);
//   * availability — the fraction of `/ingest` responses that are not
//     429/503 (fed by the HTTP front door per response).
//
// Each signal is counted good/bad into two wall-clock bucket rings — a
// fine ring covering the fast windows (5m / 1h) and a coarse ring
// covering the slow windows (6h / 3d) — and evaluated Google-SRE style:
// burn rate = (bad fraction) / (error budget), alerting when BOTH
// windows of a pair exceed the pair's threshold (fast ~14.4x: 2% of a
// 30-day budget in an hour; slow ~6x: 10% in 6 hours). Requiring both
// windows keeps a burst from paging (the long window vetoes) while a
// sustained burn still pages fast.
//
// On the not-burning -> burning edge the engine emits an `slo_burn`
// event into the event log (label = "tenant/objective/speed", value =
// the burn rate); `/healthz` surfaces the burning set as detail fields
// and `/slosz` serves the full per-tenant evaluation. Time always enters
// through an explicit `now`, so clocks are the caller's business and a
// test walks days of synthetic time in microseconds.

#ifndef NIDC_OBS_SLO_H_
#define NIDC_OBS_SLO_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "nidc/obs/event_log.h"
#include "nidc/obs/metrics.h"

namespace nidc::obs {

/// The objective every tenant is held to. An ingest response is "good"
/// when it is not a 429/503; a document is "good" when its
/// enqueue-to-applied latency stays under the threshold.
struct SloObjective {
  double latency_threshold_seconds = 1.0;
};

/// One evaluated objective window pair.
struct SloBurn {
  std::string tenant;
  std::string objective;  ///< "latency" | "availability"
  double fast_short_burn = 0.0;  ///< e.g. 5m window
  double fast_long_burn = 0.0;   ///< e.g. 1h window
  double slow_short_burn = 0.0;  ///< e.g. 6h window
  double slow_long_burn = 0.0;   ///< e.g. 3d window
  bool burning = false;
  uint64_t good = 0;  ///< slow-long window totals, for context
  uint64_t bad = 0;
};

class SloEngine {
 public:
  /// Window lengths, seconds: 5m/1h fast pair, 6h/3d slow pair.
  static constexpr double kFastShortSeconds = 300.0;
  static constexpr double kFastLongSeconds = 3600.0;
  static constexpr double kSlowShortSeconds = 6.0 * 3600.0;
  static constexpr double kSlowLongSeconds = 3.0 * 24.0 * 3600.0;
  /// Burn-rate thresholds; a pair alerts when BOTH its windows exceed.
  static constexpr double kFastBurnThreshold = 14.4;
  static constexpr double kSlowBurnThreshold = 6.0;
  /// Target fraction of good events, both objectives; the error budget
  /// is 1 - target.
  static constexpr double kTarget = 0.999;

  struct Options {
    SloObjective default_objective;
    /// When supplied, the engine eagerly registers the `slo.*` family.
    MetricsRegistry* metrics = nullptr;
    /// When supplied, burning edges emit `slo_burn` events.
    EventLog* events = nullptr;
  };

  SloEngine();
  explicit SloEngine(Options options);

  SloEngine(const SloEngine&) = delete;
  SloEngine& operator=(const SloEngine&) = delete;

  /// Latency feed: one completed document pipeline (the request
  /// tracer's on_complete callback calls this).
  void ObserveLatency(const std::string& tenant, double e2e_seconds,
                      double now_seconds);

  /// Availability feed: one ingest response; `ok` = not 429/503.
  void ObserveRequest(const std::string& tenant, bool ok,
                      double now_seconds);

  /// Evaluates every (tenant, objective) pair, emits `slo_burn` events
  /// on not-burning -> burning edges, and updates the `slo.*` gauges.
  std::vector<SloBurn> Evaluate(double now_seconds);

  /// Tenants with at least one burning objective, sorted (evaluates).
  std::vector<std::string> BurningTenants(double now_seconds);

  /// `/slosz` JSON (evaluates).
  std::string RenderJson(double now_seconds);

  uint64_t burn_events() const;

 private:
  /// good/bad counts bucketed by wall-clock time: ring[i] covers
  /// [epoch * width, (epoch + 1) * width) for epoch % size == i.
  struct BucketRing {
    /// `buckets` buckets that together span `span_seconds`.
    BucketRing(double span_seconds, size_t buckets);

    double width;
    std::vector<uint64_t> epochs;
    std::vector<uint64_t> good;
    std::vector<uint64_t> bad;

    void Observe(double now, bool is_good);
    /// Sums over the trailing `window` seconds ending at `now`.
    void WindowCounts(double now, double window, uint64_t* good_out,
                      uint64_t* bad_out) const;
  };

  // The fine ring slices the fast-long window into 1-minute buckets, so
  // the 5m window still spans five of them; the coarse ring slices the
  // slow-long window likewise for 6h/3d.
  struct Signal {
    BucketRing fine{kFastLongSeconds, 64};
    BucketRing coarse{kSlowLongSeconds, 96};
    bool burning = false;
  };

  struct TenantState {
    Signal latency;
    Signal availability;
  };

  TenantState& TenantLocked(const std::string& tenant);
  SloBurn EvaluateSignalLocked(const std::string& tenant,
                               const char* objective, Signal* signal,
                               double now);

  const Options options_;
  mutable std::mutex mu_;
  std::map<std::string, TenantState> tenants_;
  uint64_t burn_events_ = 0;

  Counter* evaluations_counter_ = nullptr;
  Counter* burn_counter_ = nullptr;
  Counter* latency_counter_ = nullptr;
  Counter* requests_counter_ = nullptr;
  Counter* bad_counter_ = nullptr;
  Gauge* burning_gauge_ = nullptr;
  Gauge* objectives_gauge_ = nullptr;
};

}  // namespace nidc::obs

#endif  // NIDC_OBS_SLO_H_
