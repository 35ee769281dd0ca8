#include "nidc/obs/event_log.h"

#include <chrono>

#include "nidc/obs/exporters.h"
#include "nidc/obs/json_util.h"

namespace nidc::obs {

namespace {

double SteadySeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* EventTypeName(EventType type) {
  switch (type) {
    case EventType::kClusterCreated:
      return "cluster_created";
    case EventType::kClusterEmptied:
      return "cluster_emptied";
    case EventType::kClusterReseeded:
      return "cluster_reseeded";
    case EventType::kDocMoved:
      return "doc_moved";
    case EventType::kDocExpired:
      return "doc_expired";
    case EventType::kCheckpointCommitted:
      return "checkpoint_committed";
    case EventType::kWalRotated:
      return "wal_rotated";
    case EventType::kMetricAnomaly:
      return "metric_anomaly";
    case EventType::kSloBurn:
      return "slo_burn";
  }
  return "unknown";
}

std::string RenderEventJson(const Event& event) {
  JsonObjectBuilder record;
  record.Add("seq", event.sequence)
      .Add("type", EventTypeName(event.type))
      .Add("step", event.step)
      .Add("seconds", event.seconds);
  if (event.cluster_id != Event::kNoId) {
    record.Add("cluster", event.cluster_id);
  }
  if (event.from_cluster != Event::kNoId) {
    record.Add("from_cluster", event.from_cluster);
  }
  if (event.doc != Event::kNoId) record.Add("doc", event.doc);
  if (event.type == EventType::kCheckpointCommitted ||
      event.type == EventType::kWalRotated) {
    record.Add("generation", event.detail);
  }
  if (event.type == EventType::kMetricAnomaly) {
    record.Add("metric", event.label)
        .Add("value", event.value)
        .Add("zscore", event.zscore);
  }
  if (event.type == EventType::kSloBurn) {
    record.Add("slo", event.label)
        .Add("burn_rate", event.value)
        .Add("threshold", event.zscore);
  }
  return record.Render();
}

EventLog::EventLog(size_t capacity, MetricsRegistry* metrics)
    : ring_(capacity), epoch_seconds_(SteadySeconds()) {
  if (metrics != nullptr) {
    emitted_counter_ = metrics->GetCounter("events.emitted");
    dropped_counter_ = metrics->GetCounter("events.dropped");
  }
}

bool EventLog::PushLocked(Event&& event, double seconds) {
  event.sequence = ring_.pushed();
  event.step = current_step_;
  event.seconds = seconds;
  return ring_.Push(std::move(event));
}

void EventLog::Emit(Event event) {
  bool dropped = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    dropped = PushLocked(std::move(event), SteadySeconds() - epoch_seconds_);
  }
  if (emitted_counter_ != nullptr) emitted_counter_->Increment();
  if (dropped && dropped_counter_ != nullptr) dropped_counter_->Increment();
}

void EventLog::EmitBatch(std::vector<Event>* events) {
  if (events->empty()) return;
  const uint64_t count = events->size();
  uint64_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const double seconds = SteadySeconds() - epoch_seconds_;
    for (Event& event : *events) {
      if (PushLocked(std::move(event), seconds)) ++dropped;
    }
  }
  if (emitted_counter_ != nullptr) emitted_counter_->Increment(count);
  if (dropped > 0 && dropped_counter_ != nullptr) {
    dropped_counter_->Increment(dropped);
  }
  events->clear();
}

void EventLog::SetStep(uint64_t step) {
  std::lock_guard<std::mutex> lock(mu_);
  current_step_ = step;
}

std::vector<Event> EventLog::Recent(size_t max_events) const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.Recent(max_events);
}

uint64_t EventLog::total_emitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.pushed();
}

uint64_t EventLog::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.dropped();
}

size_t EventLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

Status EventLog::ExportJsonl(const std::string& path) const {
  JsonlWriter writer(path);
  for (const Event& event : Recent()) {
    NIDC_RETURN_NOT_OK(writer.Append(RenderEventJson(event)));
  }
  return writer.Close();
}

}  // namespace nidc::obs
