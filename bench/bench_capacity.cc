// Capacity benchmark for the multi-tenant sharded ingest service: the
// same 8-feed workload pushed through two shard layouts —
//
//   1shard-serial    1 shard worker (the floor)
//   multishard       4+ shard workers (per-tenant parallelism)
//
// Each shard worker steps its tenants on its own thread, so the shard is
// the only unit of parallelism.
//
// Every row ingests identical per-tenant batch sequences (rendered and
// re-parsed through the shared JSONL wire codec, so the workload is
// byte-for-byte what a client sends), flushes every tenant to the same
// horizon, and must finish with bit-identical per-tenant state digests —
// both across rows and against a reference run that drives each tenant
// standalone through the Tenant class with no service, queues or threads
// at all. The bench exits non-zero on any digest mismatch: shard-level
// parallelism must never change what any single feed computes.
//
// Reported per row: wall seconds, aggregate docs/sec, enqueue-to-applied
// batch latency p50/p99 (TakeLatencySamples), and backpressure retries
// (OutOfRange answers the driver slept on). WAL fsync is off for every
// row so the ratio measures compute scaling, not one disk's fsync queue.
// Every batch also carries a request trace through the pipeline, so each
// row breaks the end-to-end latency into stages: enqueue-wait (enqueue →
// worker dequeue), apply (dequeue → clusterer step) and checkpoint (step
// → snapshot rotation, when one happened) — the split that says whether a
// layout is queue-bound or compute-bound.
//
// Env knobs:
//   NIDC_CAPACITY_SCALE    corpus scale (default 0.3)
//   NIDC_CAPACITY_TENANTS  tenant count (default 8)
//   NIDC_CAPACITY_BATCH    documents per ingest batch (default 32)
//   NIDC_REQUIRE_SHARD_SPEEDUP  if positive, exit non-zero unless the
//                          multishard row beats the 1shard-serial row by
//                          that factor — skipped with a note when the
//                          host has fewer than 4 hardware threads (the
//                          ratio is meaningless without cores to spread
//                          shards over; the 4-vcpu guard CI enforces it)
//   NIDC_BENCH_JSON_DIR    output directory for BENCH_capacity.json
//                          (default ".")

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "nidc/obs/reqtrace.h"
#include "nidc/shard/ingest.h"
#include "nidc/shard/service.h"
#include "nidc/shard/tenant.h"

namespace nidc::bench {
namespace {

struct RowConfig {
  const char* name;
  size_t shards;
};

// One stage interval's percentile pair, milliseconds. count is how many
// completed traces actually crossed the interval (checkpoints only happen
// on snapshot rotation, so their count is a fraction of the others).
struct StageSplit {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  size_t count = 0;
};

struct RowResult {
  double seconds = 0.0;
  double docs_per_sec = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  uint64_t retries = 0;
  bool identical = true;
  std::vector<std::string> digests;
  StageSplit enqueue_wait;  // enqueue -> worker dequeue
  StageSplit apply;         // dequeue -> clusterer step
  StageSplit checkpoint;    // step -> snapshot rotation
  size_t traces_completed = 0;
};

std::string TenantName(size_t i) { return "feed" + std::to_string(i); }

std::string Fmt(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t idx = static_cast<size_t>(
      std::min(samples.size() - 1.0, q * (samples.size() - 1) + 0.5));
  return samples[idx];
}

// The per-tenant batch sequences, already round-tripped through the wire
// codec so times sit on the TSV %.6f grid exactly like a real client's.
std::vector<std::vector<std::vector<RawDocument>>> BuildWorkload(
    std::vector<RawDocument> docs, size_t tenants, size_t batch_docs) {
  std::stable_sort(docs.begin(), docs.end(),
                   [](const RawDocument& a, const RawDocument& b) {
                     return a.time < b.time;
                   });
  std::vector<std::vector<RawDocument>> feeds(tenants);
  for (size_t i = 0; i < docs.size(); ++i) {
    feeds[i % tenants].push_back(std::move(docs[i]));
  }
  std::vector<std::vector<std::vector<RawDocument>>> batches(tenants);
  for (size_t t = 0; t < tenants; ++t) {
    for (size_t off = 0; off < feeds[t].size(); off += batch_docs) {
      const size_t n = std::min(batch_docs, feeds[t].size() - off);
      const std::vector<RawDocument> slice(feeds[t].begin() + off,
                                           feeds[t].begin() + off + n);
      auto parsed =
          shard::ParseIngestJsonl(shard::FormatIngestJsonl(slice));
      if (!parsed.ok()) {
        std::fprintf(stderr, "workload codec round trip failed: %s\n",
                     parsed.status().ToString().c_str());
        std::exit(1);
      }
      batches[t].push_back(std::move(parsed).value());
    }
  }
  return batches;
}

// Each tenant standalone through the Tenant class — no service, no
// queues, no worker threads. What these digests say is what every shard
// layout must reproduce.
std::vector<std::string> ReferenceDigests(
    const std::string& root, const shard::TenantConfig& config,
    const std::vector<std::vector<std::vector<RawDocument>>>& batches,
    DayTime flush_until) {
  std::vector<std::string> digests;
  for (size_t t = 0; t < batches.size(); ++t) {
    const std::string dir = root + "/" + TenantName(t);
    Env::Default()->CreateDir(dir);
    shard::TenantRuntime runtime;
    runtime.wal_sync = WalSyncMode::kNone;
    auto tenant =
        shard::Tenant::Create(TenantName(t), dir, config, runtime);
    if (!tenant.ok()) {
      std::fprintf(stderr, "reference tenant %zu: %s\n", t,
                   tenant.status().ToString().c_str());
      std::exit(1);
    }
    for (const auto& batch : batches[t]) {
      if (Status s = (*tenant)->Ingest(batch); !s.ok()) {
        std::fprintf(stderr, "reference ingest: %s\n",
                     s.ToString().c_str());
        std::exit(1);
      }
    }
    if (Status s = (*tenant)->FlushUntil(flush_until); !s.ok()) {
      std::fprintf(stderr, "reference flush: %s\n", s.ToString().c_str());
      std::exit(1);
    }
    digests.push_back((*tenant)->StateDigest());
  }
  return digests;
}

RowResult RunRow(const RowConfig& row, const std::string& root,
                 const shard::TenantConfig& config,
                 const std::vector<std::vector<std::vector<RawDocument>>>&
                     batches,
                 DayTime flush_until,
                 const std::vector<std::string>& reference) {
  // Every batch rides a request trace, so the row can split its latency
  // into pipeline stages afterwards. Declared before the service so the
  // workers' stage stamps never outlive it.
  obs::RequestTracer::Options trace_options;
  trace_options.max_records = 1 << 14;
  obs::RequestTracer tracer(trace_options);

  shard::ShardServiceOptions options;
  options.root = root;
  options.num_shards = row.shards;
  options.wal_sync = WalSyncMode::kNone;
  options.tracer = &tracer;
  auto service = shard::ShardService::Start(std::move(options));
  if (!service.ok()) {
    std::fprintf(stderr, "[%s] start: %s\n", row.name,
                 service.status().ToString().c_str());
    std::exit(1);
  }
  const size_t tenants = batches.size();
  size_t total_docs = 0;
  for (size_t t = 0; t < tenants; ++t) {
    if (Status s = (*service)->CreateTenant(TenantName(t), config);
        !s.ok()) {
      std::fprintf(stderr, "[%s] create %s: %s\n", row.name,
                   TenantName(t).c_str(), s.ToString().c_str());
      std::exit(1);
    }
    for (const auto& batch : batches[t]) total_docs += batch.size();
  }
  size_t rounds = 0;
  for (const auto& feed : batches) rounds = std::max(rounds, feed.size());

  RowResult result;
  Stopwatch timer;
  // Chronologically interleaved across tenants, like a multiplexed wire:
  // round r enqueues every tenant's r-th batch. A full owning queue is
  // the backpressure contract in action — sleep and retry, as a client
  // honoring Retry-After would.
  for (size_t r = 0; r < rounds; ++r) {
    for (size_t t = 0; t < tenants; ++t) {
      if (r >= batches[t].size()) continue;
      obs::TraceContext trace = tracer.Mint();
      tracer.Begin(trace, TenantName(t));
      tracer.RecordStage(trace, obs::Stage::kIngest);
      for (;;) {
        Status s = (*service)->EnqueueIngest(TenantName(t), batches[t][r],
                                             trace);
        if (s.ok()) break;
        if (s.code() != StatusCode::kOutOfRange) {
          std::fprintf(stderr, "[%s] enqueue: %s\n", row.name,
                       s.ToString().c_str());
          std::exit(1);
        }
        ++result.retries;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }
  for (size_t t = 0; t < tenants; ++t) {
    if (Status s = (*service)->Flush(TenantName(t), flush_until); !s.ok()) {
      std::fprintf(stderr, "[%s] flush: %s\n", row.name,
                   s.ToString().c_str());
      std::exit(1);
    }
  }
  (*service)->Drain();
  result.seconds = timer.ElapsedSeconds();
  result.docs_per_sec =
      static_cast<double>(total_docs) / std::max(result.seconds, 1e-9);

  const std::vector<double> samples = (*service)->TakeLatencySamples();
  result.p50_ms = Percentile(samples, 0.50) * 1e3;
  result.p99_ms = Percentile(samples, 0.99) * 1e3;

  // Split the end-to-end latency into stages from the completed trace
  // records: enqueue-wait is time spent in the shard queue, apply is the
  // worker's ingest + window step, checkpoint is the snapshot rotation
  // (stamped only on the steps where one ran).
  const auto interval = [](const obs::TraceRecord& rec, obs::Stage from,
                           obs::Stage to) {
    const double a = rec.StageSeconds(from);
    const double b = rec.StageSeconds(to);
    return (a >= 0.0 && b >= a) ? b - a : -1.0;
  };
  std::vector<double> enqueue_wait_s;
  std::vector<double> apply_s;
  std::vector<double> checkpoint_s;
  for (const obs::TraceRecord& rec :
       tracer.Completed(trace_options.max_records)) {
    ++result.traces_completed;
    const double wait =
        interval(rec, obs::Stage::kEnqueue, obs::Stage::kDequeue);
    if (wait >= 0.0) enqueue_wait_s.push_back(wait);
    const double apply =
        interval(rec, obs::Stage::kDequeue, obs::Stage::kStep);
    if (apply >= 0.0) apply_s.push_back(apply);
    const double checkpoint =
        interval(rec, obs::Stage::kStep, obs::Stage::kCheckpoint);
    if (checkpoint >= 0.0) checkpoint_s.push_back(checkpoint);
  }
  const auto split = [](const std::vector<double>& s) {
    StageSplit out;
    out.count = s.size();
    out.p50_ms = Percentile(s, 0.50) * 1e3;
    out.p99_ms = Percentile(s, 0.99) * 1e3;
    return out;
  };
  result.enqueue_wait = split(enqueue_wait_s);
  result.apply = split(apply_s);
  result.checkpoint = split(checkpoint_s);

  for (size_t t = 0; t < tenants; ++t) {
    auto digest = (*service)->StateDigest(TenantName(t));
    if (!digest.ok()) {
      std::fprintf(stderr, "[%s] digest %s: %s\n", row.name,
                   TenantName(t).c_str(),
                   digest.status().ToString().c_str());
      std::exit(1);
    }
    result.digests.push_back(std::move(digest).value());
    if (result.digests.back() != reference[t]) {
      std::fprintf(stderr,
                   "MISMATCH [%s]: tenant %s diverged from the "
                   "single-stream reference\n",
                   row.name, TenantName(t).c_str());
      result.identical = false;
    }
  }
  (*service)->Stop();
  return result;
}

void WriteJson(const std::string& path, double scale, size_t tenants,
               size_t batch_docs, size_t total_docs, size_t hw,
               const std::vector<RowConfig>& rows,
               const std::vector<RowResult>& results, double speedup,
               bool identical) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"capacity\",\n");
  std::fprintf(f, "  \"scale\": %g,\n", scale);
  std::fprintf(f, "  \"tenants\": %zu,\n", tenants);
  std::fprintf(f, "  \"batch_docs\": %zu,\n", batch_docs);
  std::fprintf(f, "  \"total_docs\": %zu,\n", total_docs);
  std::fprintf(f, "  \"hardware_threads\": %zu,\n", hw);
  std::fprintf(f, "  \"wal_sync\": \"none\",\n");
  std::fprintf(f, "  \"identical\": %s,\n", identical ? "true" : "false");
  std::fprintf(f, "  \"speedup_multishard_vs_single\": %.4f,\n",
               speedup);
  std::fprintf(f, "  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const RowResult& r = results[i];
    std::fprintf(f,
                 "    {\"config\": \"%s\", \"shards\": %zu, "
                 "\"seconds\": %.4f, "
                 "\"docs_per_sec\": %.1f, \"latency_p50_ms\": %.3f, "
                 "\"latency_p99_ms\": %.3f, \"backpressure_retries\": "
                 "%llu, \"traces_completed\": %zu,\n"
                 "     \"stages\": {"
                 "\"enqueue_wait\": {\"p50_ms\": %.3f, \"p99_ms\": %.3f, "
                 "\"count\": %zu}, "
                 "\"apply\": {\"p50_ms\": %.3f, \"p99_ms\": %.3f, "
                 "\"count\": %zu}, "
                 "\"checkpoint\": {\"p50_ms\": %.3f, \"p99_ms\": %.3f, "
                 "\"count\": %zu}}}%s\n",
                 rows[i].name, rows[i].shards, r.seconds,
                 r.docs_per_sec, r.p50_ms, r.p99_ms,
                 static_cast<unsigned long long>(r.retries),
                 r.traces_completed, r.enqueue_wait.p50_ms,
                 r.enqueue_wait.p99_ms, r.enqueue_wait.count, r.apply.p50_ms,
                 r.apply.p99_ms, r.apply.count, r.checkpoint.p50_ms,
                 r.checkpoint.p99_ms, r.checkpoint.count,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("(capacity report written to %s)\n", path.c_str());
}

int Main() {
  PrintHeader("Multi-tenant shard capacity: layouts over the same feeds",
              "serving-layer scaling (docs/serving.md) — not a paper table");

  const double scale = EnvScale("NIDC_CAPACITY_SCALE", 0.3);
  const size_t tenants =
      static_cast<size_t>(EnvScale("NIDC_CAPACITY_TENANTS", 8.0));
  const size_t batch_docs =
      static_cast<size_t>(EnvScale("NIDC_CAPACITY_BATCH", 32.0));
  const size_t hw =
      std::max<size_t>(1, std::thread::hardware_concurrency());

  GeneratorOptions gen_options;
  gen_options.scale = scale;
  gen_options.seed = 19980104;
  Tdt2LikeGenerator generator(gen_options);
  auto raw = generator.GenerateRaw();
  if (!raw.ok()) {
    std::fprintf(stderr, "corpus generation failed: %s\n",
                 raw.status().ToString().c_str());
    return 1;
  }
  const size_t total_docs = raw->size();
  const auto batches = BuildWorkload(std::move(raw).value(), tenants,
                                     batch_docs);

  shard::TenantConfig config;
  config.params.half_life_days = 7.0;
  config.params.life_span_days = 30.0;
  config.k = 8;
  config.step_days = 1.0;
  DayTime min_time = 0.0;
  DayTime max_time = 0.0;
  bool first = true;
  for (const auto& feed : batches) {
    for (const auto& batch : feed) {
      for (const RawDocument& doc : batch) {
        if (first || doc.time < min_time) min_time = doc.time;
        if (first || doc.time > max_time) max_time = doc.time;
        first = false;
      }
    }
  }
  config.start_time = std::floor(min_time);
  const DayTime flush_until = max_time + config.step_days;

  const std::string base =
      "/tmp/nidc_bench_capacity." + std::to_string(::getpid());
  std::filesystem::remove_all(base);
  Env::Default()->CreateDir(base);

  std::printf("workload: %zu docs over %zu tenants, %zu-doc batches, "
              "days [%.1f, %.1f], hardware threads = %zu\n\n",
              total_docs, tenants, batch_docs, min_time, max_time, hw);

  std::printf("reference: each tenant standalone, no service...\n");
  Env::Default()->CreateDir(base + "/reference");
  const std::vector<std::string> reference =
      ReferenceDigests(base + "/reference", config, batches, flush_until);

  const std::vector<RowConfig> rows = {
      {"1shard-serial", 1},
      {"multishard", std::max<size_t>(4, std::min(tenants, hw))},
  };
  std::vector<RowResult> results;
  TablePrinter table({"config", "shards", "seconds", "docs/s", "p50 ms",
                      "p99 ms", "retries", "identical"});
  for (const RowConfig& row : rows) {
    std::printf("running %s...\n", row.name);
    results.push_back(RunRow(row, base + "/" + row.name, config, batches,
                             flush_until, reference));
    const RowResult& r = results.back();
    table.AddRow(
        {row.name, std::to_string(row.shards), Fmt(r.seconds, 3),
         std::to_string(static_cast<uint64_t>(r.docs_per_sec)),
         Fmt(r.p50_ms, 2), Fmt(r.p99_ms, 2), std::to_string(r.retries),
         r.identical ? "YES" : "NO"});
  }
  std::printf("\n");
  table.Print(std::cout);

  // Where each layout spends its latency: queue wait vs worker apply vs
  // checkpoint rotation, from the per-batch request traces.
  std::printf("\nper-stage latency from request traces (ms):\n");
  TablePrinter stages({"config", "traces", "enq-wait p50", "enq-wait p99",
                       "apply p50", "apply p99", "ckpt p50", "ckpt p99",
                       "ckpts"});
  for (size_t i = 0; i < rows.size(); ++i) {
    const RowResult& r = results[i];
    stages.AddRow({rows[i].name, std::to_string(r.traces_completed),
                   Fmt(r.enqueue_wait.p50_ms, 2),
                   Fmt(r.enqueue_wait.p99_ms, 2), Fmt(r.apply.p50_ms, 2),
                   Fmt(r.apply.p99_ms, 2), Fmt(r.checkpoint.p50_ms, 2),
                   Fmt(r.checkpoint.p99_ms, 2),
                   std::to_string(r.checkpoint.count)});
  }
  stages.Print(std::cout);

  bool identical = true;
  for (const RowResult& r : results) identical &= r.identical;
  // Rows must also agree with each other, not just with the reference —
  // redundant given per-row reference checks, but it localizes a failure.
  for (size_t i = 1; i < results.size(); ++i) {
    if (results[i].digests != results[0].digests) {
      std::fprintf(stderr, "MISMATCH: %s and %s disagree\n", rows[0].name,
                   rows[i].name);
      identical = false;
    }
  }

  const double speedup =
      results[1].docs_per_sec / std::max(results[0].docs_per_sec, 1e-9);
  std::printf("\nper-tenant digests identical everywhere: %s\n",
              identical ? "YES" : "NO");
  std::printf("multishard speedup over 1shard-serial: %.2fx\n",
              speedup);

  const char* dir = std::getenv("NIDC_BENCH_JSON_DIR");
  WriteJson(std::string(dir != nullptr && dir[0] != '\0' ? dir : ".") +
                "/BENCH_capacity.json",
            scale, tenants, batch_docs, total_docs, hw, rows, results,
            speedup, identical);

  std::filesystem::remove_all(base);

  if (!identical) {
    std::fprintf(stderr,
                 "FAILED: shard layouts disagree on tenant state\n");
    return 1;
  }
  const double required = EnvScale("NIDC_REQUIRE_SHARD_SPEEDUP", 0.0);
  if (required > 0.0) {
    if (hw < 4) {
      std::printf(
          "note: only %zu hardware threads — shard speedup gate skipped "
          "(needs >= 4 cores to spread shards over)\n",
          hw);
    } else if (speedup < required) {
      std::fprintf(stderr,
                   "FAILED: multishard speedup %.2fx below required "
                   "%.2fx\n",
                   speedup, required);
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace nidc::bench

int main() { return nidc::bench::Main(); }
