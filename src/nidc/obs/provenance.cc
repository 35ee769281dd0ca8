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
    : ring_(capacity) {
  if (metrics != nullptr) {
    records_counter_ = metrics->GetCounter("provenance.records");
    dropped_counter_ = metrics->GetCounter("provenance.dropped");
    retained_gauge_ = metrics->GetGauge("provenance.retained");
  }
  // The index's buckets exist before the first rebuild touches them.
  latest_.reserve(ring_.capacity());
}

void ProvenanceLog::SetStep(uint64_t step) {
  std::lock_guard<std::mutex> lock(mu_);
  current_step_ = step;
}

bool ProvenanceLog::RecordLocked(DecisionRecord record) {
  record.sequence = ring_.pushed();
  record.step = current_step_;
  index_stale_ = true;
  return ring_.Push(std::move(record));
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
  for (uint64_t seq = ring_.dropped(); seq < ring_.pushed(); ++seq) {
    latest_[ring_.at(seq).doc] = seq;
  }
  index_stale_ = false;
}

void ProvenanceLog::Record(DecisionRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  const bool dropped = RecordLocked(std::move(record));
  PublishCountersLocked(1, dropped ? 1 : 0);
}

void ProvenanceLog::RecordBatch(const std::vector<DecisionRecord>& records) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t dropped = 0;
  for (const DecisionRecord& record : records) {
    if (RecordLocked(record)) ++dropped;
  }
  PublishCountersLocked(records.size(), dropped);
}

std::optional<DecisionRecord> ProvenanceLog::Lookup(uint64_t doc) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (index_stale_) RebuildIndexLocked();
  auto it = latest_.find(doc);
  if (it == latest_.end()) return std::nullopt;
  return ring_.at(it->second);
}

std::vector<DecisionRecord> ProvenanceLog::Recent(size_t max_records) const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.Recent(max_records);
}

uint64_t ProvenanceLog::total_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.pushed();
}

uint64_t ProvenanceLog::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.dropped();
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
