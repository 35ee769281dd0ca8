#include "schedule.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "nidc/shard/ingest.h"
#include "nidc/synth/tdt2_like_generator.h"
#include "stats.h"

namespace nidc::e2e {

const std::vector<Workload>& Workloads() {
  // day_ms is frozen: calibrated once so that paper8 is offered a little
  // over a third of its closed-loop drain capacity, and trickle64's
  // busiest shard is busy under a fifth of the time, which leaves room for
  // the host's slow stretches (README.md, "Calibration of D"). Never
  // calibrated at run time, so a faster or slower build sees the same
  // offered load.
  static const std::vector<Workload> kWorkloads = [] {
    Workload paper8;
    paper8.name = "paper8";
    paper8.tenants = 8;
    paper8.scale = 1.0;
    paper8.k = 24;
    paper8.day_ms = 220.0;
    paper8.drain_days_per_10s = 48;
    paper8.setups = 48;

    Workload trickle64;
    trickle64.name = "trickle64";
    trickle64.tenants = 64;
    trickle64.scale = 0.05;
    trickle64.k = 8;
    trickle64.day_ms = 180.0;
    trickle64.drain_days_per_10s = 75;
    trickle64.setups = 16;

    Workload mixed = paper8;
    mixed.name = "mixed";
    mixed.reads = true;

    Workload restart = paper8;
    restart.name = "restart";
    restart.restart = true;
    restart.setups = 6;
    return std::vector<Workload>{paper8, trickle64, mixed, restart};
  }();
  return kWorkloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& workload : Workloads()) {
    if (name == workload.name) return &workload;
  }
  return nullptr;
}

Plan MakePlan(const Workload& workload, double seconds, bool smoke) {
  // The corpus covers days [0, 180); past that a feed has nothing to send.
  constexpr int kLastDay = 178;
  Plan plan;
  plan.open_begin = smoke ? 3 : workload.warm_days;
  plan.rounds = smoke ? 2 : 4;
  const double rounds = plan.rounds;
  const int open_days = static_cast<int>(
      std::lround(0.8 * seconds * 1000.0 / workload.day_ms / rounds));
  const int drain_days = static_cast<int>(
      std::lround(workload.drain_days_per_10s * seconds / 10.0 / rounds));
  const int room = (kLastDay - plan.open_begin) / plan.rounds;
  plan.open_days = std::clamp(open_days, 2, room - 2);
  plan.drain_days = std::clamp(drain_days, 2, room - plan.open_days);
  plan.end_day = plan.OpenBegin(plan.rounds);
  return plan;
}

shard::TenantConfig MakeTenantConfig(const Workload& workload) {
  shard::TenantConfig config;
  config.params.half_life_days = 7.0;
  config.params.life_span_days = 30.0;
  config.k = workload.k;
  config.step_days = 1.0;
  config.start_time = 0.0;
  config.seed = 42;
  return config;
}

std::string TenantName(size_t tenant) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "feed%02zu", tenant);
  return buf;
}

std::vector<std::string> SplitBodies(const std::vector<RawDocument>& docs,
                                     size_t max_bytes) {
  std::vector<std::string> bodies;
  std::string body;
  for (const RawDocument& doc : docs) {
    const std::string line = shard::FormatIngestJson(doc) + "\n";
    if (!body.empty() && body.size() + line.size() > max_bytes) {
      bodies.push_back(std::move(body));
      body.clear();
    }
    body += line;
  }
  if (!body.empty()) bodies.push_back(std::move(body));
  return bodies;
}

std::vector<DayBatch> MakeFeed(const Workload& workload, uint64_t seed,
                               size_t tenant, int end_day) {
  GeneratorOptions options;
  options.scale = workload.scale;
  options.seed = seed + tenant;
  Result<std::vector<RawDocument>> raw =
      Tdt2LikeGenerator(options).GenerateRaw();
  Result<std::vector<RawDocument>> docs =
      raw.ok() ? shard::ParseIngestJsonl(shard::FormatIngestJsonl(*raw))
               : raw;
  if (!docs.ok()) {
    std::fprintf(stderr, "feed %zu: %s\n", tenant,
                 docs.status().ToString().c_str());
    std::exit(2);
  }
  std::vector<DayBatch> feed;
  size_t i = 0;
  while (i < docs->size()) {
    const int day = static_cast<int>(std::floor((*docs)[i].time));
    size_t j = i;
    while (j < docs->size() &&
           static_cast<int>(std::floor((*docs)[j].time)) == day) {
      ++j;
    }
    if (day >= end_day) break;
    if (day >= 0) {
      DayBatch batch;
      batch.day = day;
      batch.docs = j - i;
      batch.bodies = SplitBodies(
          std::vector<RawDocument>(docs->begin() + i, docs->begin() + j),
          kMaxBatchBytes);
      feed.push_back(std::move(batch));
    }
    i = j;
  }
  return feed;
}

double IntendedOffset(int day, int first_day, size_t tenant, size_t tenants,
                      double day_seconds) {
  return (day - first_day) * day_seconds +
         static_cast<double>(tenant) * day_seconds /
             static_cast<double>(tenants);
}

std::vector<double> FreshSamplesMs(const std::vector<BatchTiming>& batches) {
  std::vector<double> samples;
  for (size_t i = 0; i + 1 < batches.size(); ++i) {
    const BatchTiming& window = batches[i];
    const BatchTiming& closer = batches[i + 1];
    if (window.step < 0.0 || closer.refused) {
      samples.push_back(kMissedMs);
    } else {
      samples.push_back((window.step - closer.intended) * 1e3);
    }
  }
  return samples;
}

}  // namespace nidc::e2e
