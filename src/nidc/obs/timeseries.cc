#include "nidc/obs/timeseries.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "nidc/obs/json_util.h"

namespace nidc::obs {

namespace {

double SteadySeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Nearest-rank percentile of an already-sorted sample vector:
// sorted[ceil(q * n) - 1], clamped into range.
double NearestRank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  size_t index = rank <= 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  if (index >= sorted.size()) index = sorted.size() - 1;
  return sorted[index];
}

SeriesWindow Summarize(uint64_t start_step, const std::vector<double>& raw) {
  SeriesWindow window;
  window.start_step = start_step;
  window.count = static_cast<uint32_t>(raw.size());
  if (raw.empty()) return window;
  std::vector<double> sorted = raw;
  std::sort(sorted.begin(), sorted.end());
  window.min = sorted.front();
  window.max = sorted.back();
  double sum = 0.0;
  for (double v : sorted) sum += v;
  window.mean = sum / static_cast<double>(sorted.size());
  window.p50 = NearestRank(sorted, 0.50);
  window.p99 = NearestRank(sorted, 0.99);
  return window;
}

}  // namespace

void TimeSeriesStore::ResolutionRing::Add(uint64_t step, double value) {
  if (pending.empty()) pending_start_step = step;
  pending.push_back(value);
  if (pending.size() < bucket) return;
  windows.push_back(Summarize(pending_start_step, pending));
  pending.clear();
  while (windows.size() > capacity) windows.pop_front();
}

TimeSeriesStore::TimeSeriesStore(Options options)
    : options_(std::move(options)) {
  if (options_.metrics != nullptr) {
    observations_counter_ =
        options_.metrics->GetCounter("timeseries.observations");
    anomalies_counter_ = options_.metrics->GetCounter("timeseries.anomalies");
    rejected_counter_ =
        options_.metrics->GetCounter("timeseries.series_rejected");
    tracked_gauge_ = options_.metrics->GetGauge("timeseries.tracked");
  }
}

TimeSeriesStore::SeriesState* TimeSeriesStore::FindOrCreateLocked(
    const std::string& name) {
  auto it = series_.find(name);
  if (it != series_.end()) return &it->second;
  if (series_.size() >= options_.max_series) {
    ++rejected_;
    if (rejected_counter_ != nullptr) rejected_counter_->Increment();
    return nullptr;
  }
  SeriesState& state = series_[name];
  state.rings[0].bucket = 1;
  state.rings[0].capacity = options_.raw_capacity;
  state.rings[1].bucket = options_.mid_bucket;
  state.rings[1].capacity = options_.mid_capacity;
  state.rings[2].bucket = options_.coarse_bucket;
  state.rings[2].capacity = options_.coarse_capacity;
  if (tracked_gauge_ != nullptr) {
    tracked_gauge_->Set(static_cast<double>(series_.size()));
  }
  return &state;
}

void TimeSeriesStore::IngestLocked(const std::string& name, uint64_t step,
                                   double value) {
  SeriesState* state = FindOrCreateLocked(name);
  if (state == nullptr) return;
  for (ResolutionRing& ring : state->rings) ring.Add(step, value);

  // EWMA z-score anomaly detection against the *previous* mean/variance,
  // then fold the sample in (so the firing sample does not dilute its own
  // deviation). Mean/variance follow the standard exponentially weighted
  // recurrences: m += α·d, v = (1−α)·(v + α·d²) with d = x − m_old.
  AnomalyState& a = state->anomaly;
  if (a.samples >= options_.anomaly_min_samples && a.variance > 0.0) {
    const double z = (value - a.mean) / std::sqrt(a.variance);
    if (std::fabs(z) > options_.anomaly_threshold) {
      ++anomalies_;
      if (anomalies_counter_ != nullptr) anomalies_counter_->Increment();
      if (options_.events != nullptr) {
        Event event;
        event.type = EventType::kMetricAnomaly;
        event.label = name;
        event.value = value;
        event.zscore = z;
        options_.events->Emit(event);
      }
    }
  }
  const double diff = value - a.mean;
  const double incr = options_.anomaly_alpha * diff;
  a.mean += incr;
  a.variance = (1.0 - options_.anomaly_alpha) * (a.variance + diff * incr);
  ++a.samples;
}

double TimeSeriesStore::CounterDeltaLocked(const std::string& name,
                                           double value) {
  DeltaState& state = counter_last_[name];
  const double delta = state.seen ? value - state.last : value;
  state.last = value;
  state.seen = true;
  return delta;
}

void TimeSeriesStore::ObserveStep(uint64_t step) {
  ObserveStepAt(step, SteadySeconds());
}

void TimeSeriesStore::ObserveStepAt(uint64_t step, double now_seconds) {
  if (options_.metrics == nullptr) return;
  const std::vector<MetricSample> samples = options_.metrics->Snapshot();
  std::lock_guard<std::mutex> lock(mu_);
  ++observations_;
  if (observations_counter_ != nullptr) observations_counter_->Increment();

  // Raw deltas the derived series are computed from, picked up in the
  // single pass over the (name-sorted) snapshot below.
  double d_docs_new = 0.0;
  double d_moves = 0.0;
  double d_snapshots = 0.0;
  double wal_records = 0.0;
  bool saw_docs_new = false;
  bool saw_moves = false;
  bool saw_wal = false;

  for (const MetricSample& sample : samples) {
    // The store's own instruments would feed back into themselves; the
    // derived series below are the timeseries.* family's series face.
    if (sample.name.rfind("timeseries.", 0) == 0) continue;
    switch (sample.kind) {
      case MetricSample::Kind::kCounter: {
        const double delta = CounterDeltaLocked(sample.name, sample.value);
        IngestLocked(sample.name, step, delta);
        if (sample.name == "step.docs_new") {
          d_docs_new = delta;
          saw_docs_new = true;
        } else if (sample.name == "kmeans.moves") {
          d_moves = delta;
          saw_moves = true;
        } else if (sample.name == "store.snapshots") {
          d_snapshots = delta;
        } else if (sample.name == "store.wal_records") {
          wal_records = sample.value;
          saw_wal = true;
        }
        break;
      }
      case MetricSample::Kind::kGauge:
        IngestLocked(sample.name, step, sample.value);
        break;
      case MetricSample::Kind::kHistogram: {
        // Per-step mean of the *new* observations; steps that observed
        // nothing contribute no sample (a silent histogram has no mean).
        const double d_count =
            CounterDeltaLocked(sample.name + ".count",
                               static_cast<double>(sample.count));
        const double d_sum =
            CounterDeltaLocked(sample.name + ".sum", sample.sum);
        if (d_count > 0.0) {
          IngestLocked(sample.name + ".mean", step, d_sum / d_count);
        }
        break;
      }
    }
  }

  if (saw_docs_new && has_last_now_ && now_seconds > last_now_seconds_) {
    IngestLocked("timeseries.docs_per_sec", step,
                 d_docs_new / (now_seconds - last_now_seconds_));
  }
  if (saw_moves) {
    IngestLocked("timeseries.moves_per_step", step, d_moves);
  }
  if (saw_wal) {
    if (d_snapshots > 0.0) wal_records_at_snapshot_ = wal_records;
    IngestLocked("timeseries.durability_lag", step,
                 wal_records - wal_records_at_snapshot_);
  }
  last_now_seconds_ = now_seconds;
  has_last_now_ = true;
}

void TimeSeriesStore::ObserveSample(const std::string& name, uint64_t step,
                                    double value) {
  std::lock_guard<std::mutex> lock(mu_);
  IngestLocked(name, step, value);
}

std::vector<std::string> TimeSeriesStore::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(series_.size());
  for (const auto& [name, state] : series_) names.push_back(name);
  return names;
}

std::vector<SeriesWindow> TimeSeriesStore::Series(const std::string& name,
                                                  size_t resolution) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = series_.find(name);
  if (it == series_.end()) return {};
  for (const ResolutionRing& ring : it->second.rings) {
    if (ring.bucket != resolution) continue;
    std::vector<SeriesWindow> windows(ring.windows.begin(),
                                      ring.windows.end());
    // Expose the partially filled window too — a 256-step ring would
    // otherwise look empty for the first 255 steps of a run.
    if (!ring.pending.empty()) {
      windows.push_back(Summarize(ring.pending_start_step, ring.pending));
    }
    return windows;
  }
  return {};
}

bool TimeSeriesStore::Has(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return series_.count(name) > 0;
}

std::vector<size_t> TimeSeriesStore::Resolutions() const {
  return {1, options_.mid_bucket, options_.coarse_bucket};
}

uint64_t TimeSeriesStore::anomalies_fired() const {
  std::lock_guard<std::mutex> lock(mu_);
  return anomalies_;
}

uint64_t TimeSeriesStore::observations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return observations_;
}

size_t TimeSeriesStore::num_series() const {
  std::lock_guard<std::mutex> lock(mu_);
  return series_.size();
}

std::string RenderTimeSeriesListJson(const TimeSeriesStore& store) {
  std::string names = "[";
  bool first = true;
  for (const std::string& name : store.Names()) {
    if (!first) names += ",";
    first = false;
    names += JsonQuote(name);
  }
  names += "]";
  std::string resolutions = "[";
  first = true;
  for (size_t res : store.Resolutions()) {
    if (!first) resolutions += ",";
    first = false;
    resolutions += std::to_string(res);
  }
  resolutions += "]";
  return JsonObjectBuilder()
      .AddRaw("series", names)
      .AddRaw("resolutions", resolutions)
      .Add("observations", store.observations())
      .Add("anomalies", store.anomalies_fired())
      .Render();
}

std::string RenderTimeSeriesJson(const TimeSeriesStore& store,
                                 const std::string& metric,
                                 size_t resolution) {
  std::string windows = "[";
  bool first = true;
  for (const SeriesWindow& w : store.Series(metric, resolution)) {
    if (!first) windows += ",";
    first = false;
    windows += JsonObjectBuilder()
                   .Add("step", w.start_step)
                   .Add("count", static_cast<uint64_t>(w.count))
                   .Add("min", w.min)
                   .Add("max", w.max)
                   .Add("mean", w.mean)
                   .Add("p50", w.p50)
                   .Add("p99", w.p99)
                   .Render();
  }
  windows += "]";
  return JsonObjectBuilder()
      .Add("metric", metric)
      .Add("res", static_cast<uint64_t>(resolution))
      .AddRaw("windows", windows)
      .Render();
}

}  // namespace nidc::obs
