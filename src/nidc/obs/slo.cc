#include "nidc/obs/slo.h"

#include <algorithm>
#include <cmath>

#include "nidc/obs/json_util.h"

namespace nidc::obs {

namespace {

constexpr double kErrorBudget = 1.0 - SloEngine::kTarget;

}  // namespace

SloEngine::BucketRing::BucketRing(double span_seconds, size_t buckets)
    : width(span_seconds / static_cast<double>(buckets)),
      epochs(buckets, ~0ull),
      good(buckets, 0),
      bad(buckets, 0) {}

void SloEngine::BucketRing::Observe(double now, bool is_good) {
  const uint64_t epoch = static_cast<uint64_t>(std::max(0.0, now) / width);
  const size_t slot = static_cast<size_t>(epoch % epochs.size());
  if (epochs[slot] != epoch) {
    epochs[slot] = epoch;
    good[slot] = 0;
    bad[slot] = 0;
  }
  if (is_good) {
    ++good[slot];
  } else {
    ++bad[slot];
  }
}

void SloEngine::BucketRing::WindowCounts(double now, double window,
                                         uint64_t* good_out,
                                         uint64_t* bad_out) const {
  *good_out = 0;
  *bad_out = 0;
  const uint64_t now_epoch =
      static_cast<uint64_t>(std::max(0.0, now) / width);
  // Trailing window: the current (partial) bucket plus enough whole
  // buckets to cover `window` seconds, capped at the ring size.
  uint64_t span = static_cast<uint64_t>(std::ceil(window / width));
  span = std::min<uint64_t>(span + 1, epochs.size());
  for (uint64_t back = 0; back < span; ++back) {
    if (back > now_epoch) break;
    const uint64_t epoch = now_epoch - back;
    const size_t slot = static_cast<size_t>(epoch % epochs.size());
    if (epochs[slot] != epoch) continue;  // stale or never written
    *good_out += good[slot];
    *bad_out += bad[slot];
  }
}

SloEngine::SloEngine() : SloEngine(Options{}) {}

SloEngine::SloEngine(Options options) : options_(std::move(options)) {
  if (MetricsRegistry* metrics = options_.metrics; metrics != nullptr) {
    // Register the whole family up front so the metrics surface carries
    // "slo.*" keys (and nidc_metrics_check can require them) before the
    // first observation or evaluation.
    evaluations_counter_ = metrics->GetCounter("slo.evaluations");
    burn_counter_ = metrics->GetCounter("slo.burn_events");
    latency_counter_ = metrics->GetCounter("slo.latency_observations");
    requests_counter_ = metrics->GetCounter("slo.requests_observed");
    bad_counter_ = metrics->GetCounter("slo.bad_events");
    burning_gauge_ = metrics->GetGauge("slo.tenants_burning");
    objectives_gauge_ = metrics->GetGauge("slo.objectives");
  }
}

SloEngine::TenantState& SloEngine::TenantLocked(const std::string& tenant) {
  auto [it, inserted] = tenants_.try_emplace(tenant);
  if (inserted && objectives_gauge_ != nullptr) {
    // Two objectives (latency + availability) per tenant.
    objectives_gauge_->Set(static_cast<double>(2 * tenants_.size()));
  }
  return it->second;
}

void SloEngine::ObserveLatency(const std::string& tenant,
                               double e2e_seconds, double now_seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  TenantState& state = TenantLocked(tenant);
  const bool good =
      e2e_seconds <= options_.default_objective.latency_threshold_seconds;
  state.latency.fine.Observe(now_seconds, good);
  state.latency.coarse.Observe(now_seconds, good);
  if (latency_counter_ != nullptr) latency_counter_->Increment();
  if (!good && bad_counter_ != nullptr) bad_counter_->Increment();
}

void SloEngine::ObserveRequest(const std::string& tenant, bool ok,
                               double now_seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  TenantState& state = TenantLocked(tenant);
  state.availability.fine.Observe(now_seconds, ok);
  state.availability.coarse.Observe(now_seconds, ok);
  if (requests_counter_ != nullptr) requests_counter_->Increment();
  if (!ok && bad_counter_ != nullptr) bad_counter_->Increment();
}

SloBurn SloEngine::EvaluateSignalLocked(const std::string& tenant,
                                        const char* objective,
                                        Signal* signal, double now) {
  SloBurn burn;
  burn.tenant = tenant;
  burn.objective = objective;
  auto rate = [&](const BucketRing& ring, double window) {
    uint64_t good = 0;
    uint64_t bad = 0;
    ring.WindowCounts(now, window, &good, &bad);
    const uint64_t total = good + bad;
    if (total == 0) return 0.0;
    const double bad_fraction =
        static_cast<double>(bad) / static_cast<double>(total);
    return bad_fraction / kErrorBudget;
  };
  burn.fast_short_burn = rate(signal->fine, kFastShortSeconds);
  burn.fast_long_burn = rate(signal->fine, kFastLongSeconds);
  burn.slow_short_burn = rate(signal->coarse, kSlowShortSeconds);
  burn.slow_long_burn = rate(signal->coarse, kSlowLongSeconds);
  signal->coarse.WindowCounts(now, kSlowLongSeconds, &burn.good, &burn.bad);

  const bool fast_page = burn.fast_short_burn > kFastBurnThreshold &&
                         burn.fast_long_burn > kFastBurnThreshold;
  const bool slow_page = burn.slow_short_burn > kSlowBurnThreshold &&
                         burn.slow_long_burn > kSlowBurnThreshold;
  burn.burning = fast_page || slow_page;

  if (burn.burning && !signal->burning) {
    ++burn_events_;
    if (burn_counter_ != nullptr) burn_counter_->Increment();
    if (options_.events != nullptr) {
      Event event;
      event.type = EventType::kSloBurn;
      event.label = tenant + "/" + objective + "/" +
                    (fast_page ? "fast" : "slow");
      event.value =
          fast_page ? burn.fast_short_burn : burn.slow_short_burn;
      event.zscore = fast_page ? kFastBurnThreshold : kSlowBurnThreshold;
      options_.events->Emit(std::move(event));
    }
  }
  signal->burning = burn.burning;
  return burn;
}

std::vector<SloBurn> SloEngine::Evaluate(double now_seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SloBurn> burns;
  size_t burning_tenants = 0;
  for (auto& [tenant, state] : tenants_) {
    const SloBurn latency =
        EvaluateSignalLocked(tenant, "latency", &state.latency, now_seconds);
    const SloBurn availability = EvaluateSignalLocked(
        tenant, "availability", &state.availability, now_seconds);
    if (latency.burning || availability.burning) ++burning_tenants;
    burns.push_back(latency);
    burns.push_back(availability);
  }
  if (evaluations_counter_ != nullptr) evaluations_counter_->Increment();
  if (burning_gauge_ != nullptr) {
    burning_gauge_->Set(static_cast<double>(burning_tenants));
  }
  return burns;
}

std::vector<std::string> SloEngine::BurningTenants(double now_seconds) {
  std::vector<std::string> tenants;
  for (const SloBurn& burn : Evaluate(now_seconds)) {
    if (burn.burning &&
        std::find(tenants.begin(), tenants.end(), burn.tenant) ==
            tenants.end()) {
      tenants.push_back(burn.tenant);
    }
  }
  std::sort(tenants.begin(), tenants.end());
  return tenants;
}

std::string SloEngine::RenderJson(double now_seconds) {
  const std::vector<SloBurn> burns = Evaluate(now_seconds);
  std::lock_guard<std::mutex> lock(mu_);
  std::string rows = "[";
  bool first = true;
  for (const SloBurn& burn : burns) {
    if (!first) rows += ",";
    first = false;
    JsonObjectBuilder row;
    row.Add("tenant", burn.tenant);
    row.Add("objective", burn.objective);
    if (burn.objective == "latency") {
      row.Add("threshold_seconds",
              options_.default_objective.latency_threshold_seconds);
    }
    row.Add("target", kTarget);
    row.Add("good", burn.good);
    row.Add("bad", burn.bad);
    row.Add("burn_5m", burn.fast_short_burn);
    row.Add("burn_1h", burn.fast_long_burn);
    row.Add("burn_6h", burn.slow_short_burn);
    row.Add("burn_3d", burn.slow_long_burn);
    row.Add("burning", burn.burning);
    rows += row.Render();
  }
  rows += "]";
  JsonObjectBuilder obj;
  obj.Add("num_tenants", static_cast<uint64_t>(tenants_.size()));
  obj.Add("burn_events", burn_events_);
  JsonObjectBuilder thresholds;
  thresholds.Add("fast", kFastBurnThreshold);
  thresholds.Add("slow", kSlowBurnThreshold);
  obj.AddRaw("burn_thresholds", thresholds.Render());
  JsonObjectBuilder windows;
  windows.Add("fast_short_seconds", kFastShortSeconds);
  windows.Add("fast_long_seconds", kFastLongSeconds);
  windows.Add("slow_short_seconds", kSlowShortSeconds);
  windows.Add("slow_long_seconds", kSlowLongSeconds);
  obj.AddRaw("windows", windows.Render());
  obj.AddRaw("objectives", rows);
  return obj.Render();
}

uint64_t SloEngine::burn_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return burn_events_;
}

}  // namespace nidc::obs
