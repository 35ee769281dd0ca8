#include "nidc/obs/reqtrace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "nidc/obs/json_util.h"

namespace nidc::obs {

namespace {

// splitmix64: one multiply-xor-shift chain per draw — enough entropy for
// ids whose only requirements are uniqueness and non-zeroness.
uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::string U64Hex(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return std::string(buf, 16);
}

// Parses exactly `hex.size()` lowercase-or-uppercase hex chars; false on
// any non-hex char.
bool ParseHexU64(std::string_view hex, uint64_t* out) {
  uint64_t value = 0;
  for (char c : hex) {
    value <<= 4;
    if (c >= '0' && c <= '9') {
      value |= static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      value |= static_cast<uint64_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      value |= static_cast<uint64_t>(c - 'A' + 10);
    } else {
      return false;
    }
  }
  *out = value;
  return true;
}

bool AllHex(std::string_view s) {
  uint64_t ignored = 0;
  return s.size() <= 16 ? ParseHexU64(s, &ignored)
                        : ParseHexU64(s.substr(0, 16), &ignored) &&
                              AllHex(s.substr(16));
}

// The traces the calling thread's StepScope put in flight (see header).
thread_local RequestTracer* tls_scope_tracer = nullptr;
thread_local std::vector<TraceContext> tls_scope_traces;

}  // namespace

std::string TraceContext::ToHex() const { return U64Hex(hi) + U64Hex(lo); }

std::string TraceContext::ToTraceparent() const {
  return "00-" + ToHex() + "-" + U64Hex(lo) + "-01";
}

TraceContext TraceContext::FromHex(std::string_view hex) {
  TraceContext id;
  if (hex.size() != 32 || !ParseHexU64(hex.substr(0, 16), &id.hi) ||
      !ParseHexU64(hex.substr(16, 16), &id.lo)) {
    return TraceContext{};
  }
  return id;
}

TraceContext TraceContext::FromTraceparent(std::string_view header) {
  // version(2) "-" traceid(32) "-" parentid(16) "-" flags(2)
  if (header.size() < 55 || header[2] != '-' || header[35] != '-' ||
      header[52] != '-') {
    return TraceContext{};
  }
  const std::string_view version = header.substr(0, 2);
  const std::string_view trace_id = header.substr(3, 32);
  const std::string_view parent_id = header.substr(36, 16);
  const std::string_view flags = header.substr(53, 2);
  if (header.size() > 55 && version == "00") return TraceContext{};
  if (!AllHex(version) || version == "ff" || !AllHex(parent_id) ||
      !AllHex(flags)) {
    return TraceContext{};
  }
  return FromHex(trace_id);
}

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kIngest:
      return "ingest";
    case Stage::kEnqueue:
      return "enqueue";
    case Stage::kDequeue:
      return "dequeue";
    case Stage::kWindowClose:
      return "window_close";
    case Stage::kWalCommit:
      return "wal_commit";
    case Stage::kShip:
      return "ship";
    case Stage::kStep:
      return "step";
    case Stage::kCheckpoint:
      return "checkpoint";
    case Stage::kApply:
      return "apply";
  }
  return "unknown";
}

double TraceRecord::StageSeconds(Stage stage) const {
  for (const StageStamp& stamp : stages) {
    if (stamp.stage == stage) return stamp.seconds;
  }
  return -1.0;
}

double TraceRecord::EndToEndSeconds() const {
  if (stages.empty()) return -1.0;
  const double step = StageSeconds(Stage::kStep);
  if (step < 0.0) return -1.0;
  return step - stages.front().seconds;
}

double StageAggregate::Quantile(double q) const {
  if (total == 0) return 0.0;
  const double target = q * static_cast<double>(total);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    const uint64_t next = cumulative + counts[i];
    if (static_cast<double>(next) >= target && counts[i] > 0) {
      if (i >= kStageBuckets.size()) return kStageBuckets.back();
      const double lo = i == 0 ? 0.0 : kStageBuckets[i - 1];
      const double hi = kStageBuckets[i];
      const double within =
          (target - static_cast<double>(cumulative)) /
          static_cast<double>(counts[i]);
      return lo + (hi - lo) * std::min(1.0, std::max(0.0, within));
    }
    cumulative = next;
  }
  return kStageBuckets.back();
}

TraceContext StageAggregate::ExemplarAt(double q) const {
  if (total == 0) return TraceContext{};
  const double target = q * static_cast<double>(total);
  uint64_t cumulative = 0;
  size_t bucket = counts.size() - 1;
  for (size_t i = 0; i < counts.size(); ++i) {
    cumulative += counts[i];
    if (static_cast<double>(cumulative) >= target && counts[i] > 0) {
      bucket = i;
      break;
    }
  }
  // Prefer the slowest occupied bucket at or above the quantile bucket —
  // that is the exemplar an operator chasing the p99 tail wants.
  for (size_t i = counts.size(); i-- > bucket;) {
    if (counts[i] > 0 && exemplars[i].valid()) return exemplars[i];
  }
  for (size_t i = bucket; i-- > 0;) {
    if (counts[i] > 0 && exemplars[i].valid()) return exemplars[i];
  }
  return TraceContext{};
}

RequestTracer::RequestTracer() : RequestTracer(Options{}) {}

RequestTracer::RequestTracer(Options options) : options_(std::move(options)) {
  if (options_.max_records == 0) options_.max_records = 1;
  const uint64_t nanos = static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  mint_state_.store(nanos ^ reinterpret_cast<uint64_t>(this),
                    std::memory_order_relaxed);
  if (MetricsRegistry* metrics = options_.metrics; metrics != nullptr) {
    // Register the whole family up front so the metrics surface carries
    // "pipeline.*" keys (and nidc_metrics_check can require them) before
    // the first trace arrives.
    const std::vector<double> buckets(kStageBuckets.begin(),
                                      kStageBuckets.end());
    started_counter_ = metrics->GetCounter("pipeline.traces_started");
    completed_counter_ = metrics->GetCounter("pipeline.traces_completed");
    dropped_counter_ = metrics->GetCounter("pipeline.traces_dropped");
    events_counter_ = metrics->GetCounter("pipeline.stage_events");
    open_gauge_ = metrics->GetGauge("pipeline.open_traces");
    bindings_gauge_ = metrics->GetGauge("pipeline.doc_bindings");
    for (size_t i = 0; i < kNumStages; ++i) {
      stage_histograms_[i] = metrics->GetHistogram(
          std::string("pipeline.stage_seconds.") +
              StageName(static_cast<Stage>(i)),
          buckets);
    }
    e2e_histogram_ = metrics->GetHistogram("pipeline.e2e_seconds", buckets);
  }
}

TraceContext RequestTracer::Mint() {
  uint64_t state = mint_state_.fetch_add(2, std::memory_order_relaxed);
  TraceContext id;
  uint64_t scratch = state;
  id.hi = SplitMix64(&scratch);
  id.lo = SplitMix64(&scratch);
  if (!id.valid()) id.lo = 1;
  return id;
}

void RequestTracer::Begin(const TraceContext& id, const std::string& tenant) {
  if (!id.valid()) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (TraceRecord* existing = FindLocked(id); existing != nullptr) {
    if (existing->tenant.empty()) existing->tenant = tenant;
    return;
  }
  InsertLocked(id, tenant);
}

void RequestTracer::RecordStage(const TraceContext& id, Stage stage,
                                double seconds) {
  if (!id.valid()) return;
  if (seconds < 0.0) seconds = NowSeconds();
  std::string tenant;
  double e2e = -1.0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (events_counter_ != nullptr) events_counter_->Increment();
    TraceRecord* record = FindLocked(id);
    if (record == nullptr) record = InsertLocked(id, "");
    if (!record->stages.empty()) {
      const double duration =
          std::max(0.0, seconds - record->stages.back().seconds);
      ObserveStageLocked(record->tenant, stage, duration, id);
    }
    record->stages.push_back({stage, seconds});
    if (stage == Stage::kStep && !record->completed) {
      record->completed = true;
      ++traces_completed_;
      if (completed_counter_ != nullptr) completed_counter_->Increment();
      e2e = std::max(0.0, seconds - record->stages.front().seconds);
      if (e2e_histogram_ != nullptr) e2e_histogram_->Observe(e2e);
      tenant = record->tenant;
    }
  }
  // The completion callback (the SLO engine) runs outside the tracer
  // lock: it takes its own.
  if (e2e >= 0.0 && options_.on_complete) {
    options_.on_complete(tenant, e2e, NowSeconds());
  }
}

void RequestTracer::BindDoc(const std::string& tenant, uint64_t doc,
                            const TraceContext& id) {
  if (!id.valid()) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = doc_bindings_.try_emplace(DocKey{tenant, doc});
  it->second.trace = id;
  if (inserted) {
    it->second.seq = next_binding_seq_++;
    doc_binding_order_.emplace(it->second.seq, it);
    while (doc_binding_order_.size() > kMaxDocBindings) {
      doc_bindings_.erase(doc_binding_order_.begin()->second);
      doc_binding_order_.erase(doc_binding_order_.begin());
    }
  }
  if (bindings_gauge_ != nullptr) {
    bindings_gauge_->Set(static_cast<double>(doc_bindings_.size()));
  }
}

void RequestTracer::UnbindDocs(const std::string& tenant,
                               const std::vector<uint64_t>& docs) {
  std::lock_guard<std::mutex> lock(mu_);
  DocKey key{tenant, 0};
  for (uint64_t doc : docs) {
    key.doc = doc;
    auto it = doc_bindings_.find(key);
    if (it == doc_bindings_.end()) continue;
    doc_binding_order_.erase(it->second.seq);
    doc_bindings_.erase(it);
  }
  if (bindings_gauge_ != nullptr) {
    bindings_gauge_->Set(static_cast<double>(doc_bindings_.size()));
  }
}

size_t RequestTracer::doc_bindings() const {
  std::lock_guard<std::mutex> lock(mu_);
  return doc_bindings_.size();
}

std::vector<TraceContext> RequestTracer::TracesForDocs(
    const std::string& tenant, const std::vector<uint64_t>& docs) const {
  std::vector<TraceContext> traces;
  std::lock_guard<std::mutex> lock(mu_);
  for (uint64_t doc : docs) {
    auto it = doc_bindings_.find(DocKey{tenant, doc});
    if (it == doc_bindings_.end()) continue;
    const TraceContext& trace = it->second.trace;
    if (std::find(traces.begin(), traces.end(), trace) == traces.end()) {
      traces.push_back(trace);
    }
  }
  return traces;
}

void RequestTracer::MarkResumed(const TraceContext& id) {
  if (!id.valid()) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (TraceRecord* record = FindLocked(id); record != nullptr) {
    record->resumed = true;
  }
}

RequestTracer::StepScope::StepScope(RequestTracer* tracer,
                                    std::vector<TraceContext> traces)
    : tracer_(tracer) {
  tls_scope_tracer = tracer;
  tls_scope_traces = std::move(traces);
}

RequestTracer::StepScope::~StepScope() {
  if (tls_scope_tracer == tracer_) {
    tls_scope_tracer = nullptr;
    tls_scope_traces.clear();
  }
}

void RequestTracer::RecordActive(Stage stage) {
  if (tls_scope_tracer != this || tls_scope_traces.empty()) return;
  const double now = NowSeconds();
  for (const TraceContext& id : tls_scope_traces) {
    RecordStage(id, stage, now);
  }
}

void RequestTracer::RegisterShipment(uint64_t generation, uint64_t sequence) {
  if (tls_scope_tracer != this || tls_scope_traces.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  const std::pair<uint64_t, uint64_t> key{generation, sequence};
  auto [it, inserted] = shipments_.insert_or_assign(key, tls_scope_traces);
  (void)it;
  if (inserted) {
    shipment_order_.push_back(key);
    while (shipment_order_.size() > kMaxShipments) {
      shipments_.erase(shipment_order_.front());
      shipment_order_.pop_front();
    }
  }
}

void RequestTracer::RecordApplied(uint64_t generation, uint64_t sequence) {
  std::vector<TraceContext> traces;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = shipments_.find({generation, sequence});
    if (it == shipments_.end()) return;
    traces = std::move(it->second);
    shipments_.erase(it);
  }
  const double now = NowSeconds();
  for (const TraceContext& id : traces) {
    RecordStage(id, Stage::kApply, now);
  }
}

const TraceRecord* RequestTracer::FindLocked(const TraceContext& id) const {
  auto it = index_.find({id.hi, id.lo});
  if (it == index_.end()) return nullptr;
  if (it->second < records_evicted_) return nullptr;
  return &records_[it->second - records_evicted_];
}

TraceRecord* RequestTracer::InsertLocked(const TraceContext& id,
                                         const std::string& tenant) {
  index_[{id.hi, id.lo}] = records_evicted_ + records_.size();
  TraceRecord& record = records_.emplace_back();
  record.id = id;
  record.tenant = tenant;
  ++traces_started_;
  if (started_counter_ != nullptr) started_counter_->Increment();
  EvictLocked();
  if (open_gauge_ != nullptr) {
    open_gauge_->Set(static_cast<double>(records_.size()));
  }
  return &record;
}

void RequestTracer::EvictLocked() {
  while (records_.size() > options_.max_records) {
    const TraceContext& id = records_.front().id;
    auto it = index_.find({id.hi, id.lo});
    if (it != index_.end() && it->second == records_evicted_) {
      index_.erase(it);
    }
    records_.pop_front();
    ++records_evicted_;
    if (dropped_counter_ != nullptr) dropped_counter_->Increment();
  }
}

void RequestTracer::ObserveStageLocked(const std::string& tenant,
                                       Stage stage, double duration,
                                       const TraceContext& id) {
  const size_t stage_index = static_cast<size_t>(stage);
  if (stage_index >= kNumStages) return;
  auto observe = [&](std::vector<StageAggregate>& aggregates) {
    StageAggregate& agg = aggregates[stage_index];
    size_t bucket = kStageBuckets.size();
    for (size_t i = 0; i < kStageBuckets.size(); ++i) {
      if (duration <= kStageBuckets[i]) {
        bucket = i;
        break;
      }
    }
    ++agg.counts[bucket];
    agg.exemplars[bucket] = id;
    ++agg.total;
    agg.sum += duration;
  };
  observe(TenantAggregatesLocked(""));
  if (!tenant.empty()) observe(TenantAggregatesLocked(tenant));
  if (stage_histograms_[stage_index] != nullptr) {
    stage_histograms_[stage_index]->Observe(duration);
  }
}

std::vector<StageAggregate>& RequestTracer::TenantAggregatesLocked(
    const std::string& tenant) {
  return aggregates_.try_emplace(tenant, kNumStages).first->second;
}

bool RequestTracer::Lookup(const TraceContext& id, TraceRecord* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  const TraceRecord* record = FindLocked(id);
  if (record == nullptr) return false;
  *out = *record;
  return true;
}

std::vector<TraceRecord> RequestTracer::Completed(
    size_t max_traces, const std::string& tenant) const {
  std::vector<TraceRecord> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = records_.rbegin();
       it != records_.rend() && out.size() < max_traces; ++it) {
    if (!it->completed) continue;
    if (!tenant.empty() && it->tenant != tenant) continue;
    out.push_back(*it);
  }
  std::reverse(out.begin(), out.end());
  return out;
}

std::map<std::string, std::vector<StageAggregate>>
RequestTracer::Aggregates() const {
  std::lock_guard<std::mutex> lock(mu_);
  return aggregates_;
}

namespace {

std::string RenderStampArray(const TraceRecord& record) {
  const double origin =
      record.stages.empty() ? 0.0 : record.stages.front().seconds;
  std::string out = "[";
  for (size_t i = 0; i < record.stages.size(); ++i) {
    if (i > 0) out += ",";
    JsonObjectBuilder stamp;
    stamp.Add("stage", StageName(record.stages[i].stage));
    stamp.Add("offset_ms",
              (record.stages[i].seconds - origin) * 1000.0);
    out += stamp.Render();
  }
  return out + "]";
}

std::string RenderTraceJson(const TraceRecord& record) {
  JsonObjectBuilder obj;
  obj.Add("trace", record.id.ToHex());
  obj.Add("tenant", record.tenant);
  obj.Add("completed", record.completed);
  obj.Add("resumed", record.resumed);
  obj.Add("num_stages", static_cast<uint64_t>(record.stages.size()));
  const double e2e = record.EndToEndSeconds();
  if (e2e >= 0.0) obj.Add("e2e_seconds", e2e);
  obj.AddRaw("stages", RenderStampArray(record));
  return obj.Render();
}

}  // namespace

std::string RequestTracer::RenderWaterfallJson() const {
  const auto aggregates = Aggregates();
  std::string tenants = "[";
  bool first_tenant = true;
  for (const auto& [tenant, stages] : aggregates) {
    std::string stage_rows = "[";
    bool first_stage = true;
    for (size_t i = 0; i < stages.size(); ++i) {
      const StageAggregate& agg = stages[i];
      if (agg.total == 0) continue;
      if (!first_stage) stage_rows += ",";
      first_stage = false;
      JsonObjectBuilder row;
      row.Add("stage", StageName(static_cast<Stage>(i)));
      row.Add("count", agg.total);
      row.Add("mean_ms",
              agg.total == 0 ? 0.0
                             : agg.sum / static_cast<double>(agg.total) *
                                   1000.0);
      row.Add("p50_ms", agg.Quantile(0.5) * 1000.0);
      row.Add("p99_ms", agg.Quantile(0.99) * 1000.0);
      const TraceContext exemplar = agg.ExemplarAt(0.99);
      if (exemplar.valid()) row.Add("p99_exemplar", exemplar.ToHex());
      stage_rows += row.Render();
    }
    stage_rows += "]";
    if (!first_tenant) tenants += ",";
    first_tenant = false;
    JsonObjectBuilder entry;
    entry.Add("tenant", tenant.empty() ? std::string("*") : tenant);
    entry.AddRaw("stages", stage_rows);
    tenants += entry.Render();
  }
  tenants += "]";
  JsonObjectBuilder obj;
  obj.AddRaw("waterfall", tenants);
  {
    std::lock_guard<std::mutex> lock(mu_);
    obj.Add("traces_started", traces_started_);
    obj.Add("traces_completed", traces_completed_);
  }
  return obj.Render();
}

std::string RequestTracer::RenderTracezJson(const std::string& trace_hex,
                                            const std::string& tenant,
                                            size_t n) const {
  if (!trace_hex.empty()) {
    const TraceContext id = TraceContext::FromHex(trace_hex);
    TraceRecord record;
    if (!id.valid() || !Lookup(id, &record)) {
      JsonObjectBuilder obj;
      obj.Add("error", "unknown trace " + trace_hex);
      return obj.Render();
    }
    return RenderTraceJson(record);
  }
  if (!tenant.empty()) {
    std::string rows = "[";
    bool first = true;
    for (const TraceRecord& record : Completed(n, tenant)) {
      if (!first) rows += ",";
      first = false;
      rows += RenderTraceJson(record);
    }
    rows += "]";
    JsonObjectBuilder obj;
    obj.Add("tenant", tenant);
    obj.AddRaw("traces", rows);
    return obj.Render();
  }
  std::string recent = "[";
  bool first = true;
  for (const TraceRecord& record : Completed(n)) {
    if (!first) recent += ",";
    first = false;
    recent += RenderTraceJson(record);
  }
  recent += "]";
  JsonObjectBuilder obj;
  obj.AddRaw("summary", RenderWaterfallJson());
  obj.AddRaw("recent", recent);
  return obj.Render();
}

uint64_t RequestTracer::traces_started() const {
  std::lock_guard<std::mutex> lock(mu_);
  return traces_started_;
}

uint64_t RequestTracer::traces_completed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return traces_completed_;
}

double RequestTracer::NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace nidc::obs
