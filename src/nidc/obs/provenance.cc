#include "nidc/obs/provenance.h"

#include "nidc/obs/exporters.h"
#include "nidc/obs/json_util.h"

namespace nidc::obs {

const char* ProvenanceVerdictName(ProvenanceVerdict verdict) {
  switch (verdict) {
    case ProvenanceVerdict::kAssigned:
      return "assigned";
    case ProvenanceVerdict::kOutlier:
      return "outlier";
    case ProvenanceVerdict::kReseeded:
      return "reseeded";
  }
  return "unknown";
}

const char* ProvenancePathName(ProvenancePath path) {
  switch (path) {
    case ProvenancePath::kMerge:
      return "merge";
    case ProvenancePath::kSlotted:
      return "slotted";
  }
  return "unknown";
}

std::string RenderDecisionJson(const DecisionRecord& record) {
  JsonObjectBuilder json;
  json.Add("doc", record.doc)
      .Add("seq", record.sequence)
      .Add("step", record.step)
      .Add("iteration", static_cast<uint64_t>(record.iteration))
      .Add("verdict", ProvenanceVerdictName(record.verdict))
      .Add("path", ProvenancePathName(record.path));
  if (record.kernel != nullptr && record.kernel[0] != '\0') {
    json.Add("kernel", record.kernel);
  }
  if (record.cluster_id != DecisionRecord::kNoId) {
    json.Add("cluster", record.cluster_id);
  }
  if (record.runner_up_id != DecisionRecord::kNoId) {
    json.Add("runner_up", record.runner_up_id);
  }
  json.Add("best_gain", record.best_gain)
      .Add("runner_up_gain", record.runner_up_gain)
      .Add("margin", record.margin);
  return json.Render();
}

ProvenanceLog::ProvenanceLog(size_t capacity, MetricsRegistry* metrics)
    : capacity_(capacity == 0 ? 1 : capacity) {
  if (metrics != nullptr) {
    records_counter_ = metrics->GetCounter("provenance.records");
    dropped_counter_ = metrics->GetCounter("provenance.dropped");
    retained_gauge_ = metrics->GetGauge("provenance.retained");
  }
  // Reserving the full ring at construction keeps push_back growth out
  // of Record/RecordBatch, and the index's buckets exist before the first
  // rebuild touches them.
  ring_.reserve(capacity_);
  latest_.reserve(capacity_);
}

void ProvenanceLog::SetStep(uint64_t step) {
  std::lock_guard<std::mutex> lock(mu_);
  current_step_ = step;
}

void ProvenanceLog::RecordLocked(DecisionRecord record) {
  record.sequence = next_sequence_++;
  record.step = current_step_;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(record));
  } else {
    ring_[record.sequence % capacity_] = std::move(record);
  }
  index_stale_ = true;
}

void ProvenanceLog::PublishCountersLocked(uint64_t recorded,
                                          uint64_t dropped) {
  if (records_counter_ != nullptr) records_counter_->Increment(recorded);
  if (dropped > 0 && dropped_counter_ != nullptr) {
    dropped_counter_->Increment(dropped);
  }
  if (retained_gauge_ != nullptr) {
    retained_gauge_->Set(static_cast<double>(ring_.size()));
  }
}

// Replays the retained window oldest-to-newest so the newest record of
// each doc wins — the same answer eager maintenance would have kept, paid
// on the introspection path instead of the sweep flush.
void ProvenanceLog::RebuildIndexLocked() const {
  latest_.clear();
  const uint64_t available = ring_.size();
  for (uint64_t seq = next_sequence_ - available; seq < next_sequence_;
       ++seq) {
    latest_[ring_[seq % capacity_].doc] = seq;
  }
  index_stale_ = false;
}

void ProvenanceLog::Record(DecisionRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  const bool wrapped = ring_.size() >= capacity_;
  RecordLocked(std::move(record));
  PublishCountersLocked(1, wrapped ? 1 : 0);
}

void ProvenanceLog::RecordBatch(const std::vector<DecisionRecord>& records) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t before = next_sequence_;
  const uint64_t retained_before = ring_.size();
  for (const DecisionRecord& record : records) RecordLocked(record);
  const uint64_t recorded = next_sequence_ - before;
  const uint64_t grown = ring_.size() - retained_before;
  PublishCountersLocked(recorded, recorded - grown);
}

std::optional<DecisionRecord> ProvenanceLog::Lookup(uint64_t doc) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (index_stale_) RebuildIndexLocked();
  auto it = latest_.find(doc);
  if (it == latest_.end()) return std::nullopt;
  return ring_[it->second % capacity_];
}

std::vector<DecisionRecord> ProvenanceLog::Recent(size_t max_records) const {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t count = std::min(max_records, ring_.size());
  std::vector<DecisionRecord> records;
  records.reserve(count);
  for (uint64_t seq = next_sequence_ - count; seq < next_sequence_; ++seq) {
    records.push_back(ring_[seq % capacity_]);
  }
  return records;
}

uint64_t ProvenanceLog::total_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_sequence_;
}

uint64_t ProvenanceLog::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_sequence_ > ring_.size() ? next_sequence_ - ring_.size() : 0;
}

size_t ProvenanceLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

Status ProvenanceLog::ExportJsonl(const std::string& path) const {
  JsonlWriter writer(path);
  for (const DecisionRecord& record : Recent()) {
    NIDC_RETURN_NOT_OK(writer.Append(RenderDecisionJson(record)));
  }
  return writer.Close();
}

}  // namespace nidc::obs
