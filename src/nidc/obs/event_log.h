// Structured lifecycle events: a bounded, thread-safe ring buffer the
// pipeline appends to and the introspection server (or a JSONL export)
// reads back.
//
// The log answers the question metrics aggregates cannot: *which* cluster
// id a step published for the first time, and which one it stopped
// publishing. Cluster events name only ids some step's result published —
// nothing inside a K-means run is recorded, so a step emits at most 2K of
// them; a step's per-document decisions are re-run from the store instead
// (ExplainStep, store/durable_clusterer.h). Events are fixed-size records
// (no allocation per emit beyond the ring slot, except the label of
// metric_anomaly and slo_burn), tagged with a monotone sequence number and
// the pipeline step that was active when they were emitted. When the ring
// wraps, the oldest events are overwritten and counted as dropped.
//
// Like every obs hook, the emitters take an `EventLog*` that defaults to
// null, and a null log means no work at all.

#ifndef NIDC_OBS_EVENT_LOG_H_
#define NIDC_OBS_EVENT_LOG_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "nidc/obs/metrics.h"
#include "nidc/obs/ring.h"
#include "nidc/util/status.h"

namespace nidc::obs {

/// Cluster and durability lifecycle event kinds.
enum class EventType {
  /// A step published a non-empty cluster whose stable id its predecessor
  /// did not publish.
  kClusterCreated,
  /// A step no longer published a stable id its predecessor published
  /// for a non-empty cluster (the cluster emptied, expired or was
  /// reseeded under a fresh id).
  kClusterVanished,
  /// A durable snapshot generation was committed (manifest flipped).
  kCheckpointCommitted,
  /// The write-ahead log rotated to a fresh generation file.
  kWalRotated,
  /// The time-series anomaly detector flagged a metric sample (see
  /// obs/timeseries.h); `label` names the series, `value` the offending
  /// sample, `zscore` its deviation.
  kMetricAnomaly,
  /// An SLO burn-rate pair crossed its alerting threshold (see
  /// obs/slo.h); `label` is "tenant/objective/speed", `value` the burn
  /// rate, `zscore` the threshold it crossed.
  kSloBurn,
};

/// Stable lower_snake_case name of an event type (the JSON `type` field).
const char* EventTypeName(EventType type);

/// One lifecycle event. Fields that do not apply to a type hold kNoId.
struct Event {
  /// Sentinel for "not applicable" id fields.
  static constexpr uint64_t kNoId = ~0ull;

  EventType type = EventType::kClusterCreated;
  /// Monotone per-log sequence number, assigned by Emit.
  uint64_t sequence = 0;
  /// Pipeline step active when the event was emitted (see SetStep).
  uint64_t step = 0;
  /// Seconds since the log was constructed, assigned by Emit.
  double seconds = 0.0;
  /// Stable cluster id the event is about (kClusterCreated /
  /// kClusterVanished).
  uint64_t cluster_id = kNoId;
  /// Type-specific detail: snapshot generation for kCheckpointCommitted /
  /// kWalRotated, unused otherwise.
  uint64_t detail = 0;
  /// kMetricAnomaly: the anomalous series' name (the one non-fixed-size
  /// field; anomaly emission happens at most once per series per step,
  /// far off the scoring hot loops).
  std::string label;
  /// kMetricAnomaly: the offending sample value and its z-score against
  /// the series' EWMA mean/variance.
  double value = 0.0;
  double zscore = 0.0;
};

/// Renders one event as a JSON object (omitting kNoId fields).
std::string RenderEventJson(const Event& event);

/// Bounded ring buffer of events. Emit and the readers are thread-safe
/// (one mutex; emission is off the scoring hot loops, so contention is
/// not a concern). When `metrics` is supplied, the log publishes
/// `events.emitted` and `events.dropped` counters.
class EventLog {
 public:
  explicit EventLog(size_t capacity = 1024,
                    MetricsRegistry* metrics = nullptr);

  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// Appends `event`, assigning its sequence number, step tag and
  /// timestamp. The oldest event is overwritten when the ring is full.
  void Emit(Event event);

  /// Tags subsequent emissions with `step` (the drivers call this at the
  /// start of each pipeline step).
  void SetStep(uint64_t step);

  /// The newest `max_events` events, oldest first.
  std::vector<Event> Recent(size_t max_events = ~size_t{0}) const;

  /// Events emitted over the log's lifetime (including overwritten ones).
  uint64_t total_emitted() const;

  /// Events lost to ring wrap-around.
  uint64_t dropped() const;

  size_t capacity() const { return ring_.capacity(); }
  size_t size() const;

  /// Writes the retained events as JSONL (one RenderEventJson object per
  /// line) via the atomic-rename JsonlWriter protocol.
  Status ExportJsonl(const std::string& path) const;

 private:
  Counter* emitted_counter_ = nullptr;
  Counter* dropped_counter_ = nullptr;

  mutable std::mutex mu_;
  BoundedRing<Event> ring_;  // Event::sequence is the ring sequence
  uint64_t current_step_ = 0;
  double epoch_seconds_ = 0.0;  // steady-clock origin
};

}  // namespace nidc::obs

#endif  // NIDC_OBS_EVENT_LOG_H_
