// nidc_metrics_check — validates a telemetry JSONL file produced by
// `nidc_cli stream --metrics-out=...`.
//
//   $ nidc_metrics_check run.jsonl [--require-repl]
//   $ nidc_metrics_check --shard-snapshot metricsz.json
//
// The second form validates one `GET /metricsz` body scraped from a
// sharded server (`nidc_cli serve`): a single JSON object whose names
// must all carry known family prefixes and which must contain the whole
// eagerly-registered shard.* family (shard.recovery.* included) plus the
// serve.* request counters.
//
// Every line must parse as a JSON object and carry the step digest keys,
// a non-empty G trajectory, the step's own phase profile ("phases": a
// non-empty array of {path, count, wall_us, cpu_us} entries whose
// top-level clusterer.step span closed exactly once), and the expected
// metric families (K-means, rep-index, scoring-kernel, term-statistics,
// cluster health, event log, time-series store, self-profiler, decision
// provenance, request-trace pipeline, SLO engine). Every metric name must
// also belong to a known family prefix — a typo'd or undocumented family
// fails validation instead of silently shipping — and the
// kernel.dispatch.<name> gauge must be present and name a real scoring
// kernel (scalar / avx512).
// --require-repl additionally requires the repl.* replication family
// (a stream run with a WalShipper attached — see docs/replication.md).
// Exit 0 when every record passes; 1 with a per-line diagnosis otherwise.
// CI runs this after a stream replay so exporter regressions fail the
// build instead of silently producing unparseable telemetry.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "nidc/obs/json_util.h"

namespace nidc {
namespace {

constexpr const char* kStepKeys[] = {
    "step",          "tau",           "num_new",
    "num_expired",   "num_active",    "num_outliers",
    "iterations",    "converged",     "final_g",
    "stats_seconds", "clustering_seconds",
};

constexpr const char* kMetricKeys[] = {
    "kmeans.runs",
    "kmeans.iterations",
    "kmeans.iterations_per_run",
    "kmeans.moves",
    "kmeans.cluster_reseeds",
    "kmeans.moves_per_sweep",
    "kmeans.docs_swept",
    "kmeans.seeded_assigned",
    "kmeans.outliers",
    "kmeans.g_initial",
    "kmeans.g_final",
    "kmeans.sweep_seconds",
    "kmeans.refresh_seconds",
    "kmeans.refresh_entries",
    "kmeans.score_gbps",
    "kernel.bytes_scanned",
    "kernel.entries_scanned",
    "kernel.docs_scored",
    "rep_index.live_entries",
    "rep_index.tombstones",
    "rep_index.builds",
    "rep_index.moves_applied",
    "term_stats.vocab_size",
    "term_stats.tdw",
    "step.count",
    "step.docs_new",
    "step.docs_expired",
    "step.active_docs",
    "step.context_entries",
    "step.context_bytes",
    "step.stats_seconds",
    "step.clustering_seconds",
    "health.steps",
    "health.topic_drift",
    "health.topic_drift_max",
    "health.membership_churn",
    "health.outlier_rate",
    "health.outlier_rate_ewma",
    "health.g_delta_ewma",
    "health.clusters_created",
    "health.clusters_vanished",
    "health.drift_per_cluster",
    "events.emitted",
    "events.dropped",
    "timeseries.observations",
    "timeseries.anomalies",
    "timeseries.tracked",
    "profile.spans",
    "profile.phases",
    "provenance.records",
    "provenance.dropped",
    "provenance.retained",
    "pipeline.traces_started",
    "pipeline.traces_completed",
    "pipeline.traces_dropped",
    "pipeline.stage_events",
    "pipeline.open_traces",
    "pipeline.doc_bindings",
    "pipeline.e2e_seconds",
    "pipeline.stage_seconds.ingest",
    "pipeline.stage_seconds.step",
    "slo.evaluations",
    "slo.burn_events",
    "slo.latency_observations",
    "slo.requests_observed",
    "slo.bad_events",
    "slo.tenants_burning",
    "slo.objectives",
};

// Every exported metric must carry one of these family prefixes; names
// outside them are either typos or new families that docs/observability.md
// (and this list) have not caught up with yet — both should fail CI.
constexpr const char* kKnownPrefixes[] = {
    "kmeans.",  "rep_index.",  "term_stats.", "step.",
    "corpus.",  "store.",      "health.",     "events.",
    "serve.",   "kernel.",     "timeseries.", "profile.",
    "provenance.", "repl.",    "shard.",      "pipeline.",
    "slo.",
};

// The sharded service registers these at Start (see ShardService::Init),
// so any /metricsz scrape must carry them — a missing name means the
// eager registration regressed or the scrape hit the wrong registry.
constexpr const char* kShardKeys[] = {
    "shard.tenants",
    "shard.shards",
    "shard.steps",
    "shard.ingest.docs",
    "shard.ingest.batches",
    "shard.ingest.rejected_batches",
    "shard.ingest.failed",
    "shard.ingest.dropped",
    "shard.ingest.latency_seconds",
    "shard.queue.0.depth",
    "shard.corpus.retained_docs",
    "step.context_entries",
    "step.context_bytes",
    "pipeline.traces_started",
    "pipeline.traces_completed",
    "pipeline.stage_events",
    "pipeline.open_traces",
    "pipeline.doc_bindings",
    "pipeline.e2e_seconds",
    "pipeline.stage_seconds.enqueue",
    "pipeline.stage_seconds.step",
    "slo.evaluations",
    "slo.burn_events",
    "slo.latency_observations",
    "slo.requests_observed",
    "slo.tenants_burning",
    "serve.requests",
    "serve.not_found",
    "serve.bad_requests",
    "serve.keepalive_reuses",
    "serve.connections_shed",
};

// The startup-reopen family ShardService::Init registers eagerly.
// Required in every shard snapshot, and in any JSONL record that carries
// the service-level shard family (marked by its shard.shards gauge).
constexpr const char* kRecoveryKeys[] = {
    "shard.recovery.seconds",
    "shard.recovery.tenants",
};

// The retained-corpus and vocabulary sizes ShardService::Init registers
// eagerly. Required like kRecoveryKeys.
constexpr const char* kCorpusMemoryKeys[] = {
    "shard.corpus.retained_term_entries",
    "shard.corpus.vocabulary_terms",
    "shard.corpus.vocabulary_bytes",
};

// The leader-side WalShipper registers these eagerly, so any stream run
// with replication attached must export the whole family from step 0.
constexpr const char* kReplKeys[] = {
    "repl.records_shipped",      "repl.snapshots_shipped",
    "repl.seals_shipped",        "repl.heartbeats_shipped",
    "repl.ship_errors",          "repl.queue_dropped_records",
    "repl.followers",            "repl.queue_depth",
};

// The kernel.dispatch.<name> gauge family is closed: its suffix must be a
// kernel the dispatch table can actually name. An unknown suffix means a
// renamed or misspelled kernel leaked into telemetry.
constexpr const char* kKernelNames[] = {"scalar", "avx512"};

// The per-entry keys of a "phases" array (obs::RenderPhaseArray).
constexpr const char* kPhaseNumberKeys[] = {"count", "wall_us", "cpu_us"};

// The span every stream step opens once (IncrementalClusterer::Step).
constexpr const char* kStepSpan = "clusterer.step";

// Appends the problems of one record's "phases" profile to `problems`.
void CheckPhases(const obs::JsonValue& record,
                 std::vector<std::string>* problems) {
  const obs::JsonValue* phases = record.Find("phases");
  if (phases == nullptr || !phases->is_array() || phases->array.empty()) {
    problems->push_back("missing, non-array or empty 'phases'");
    return;
  }
  double step_spans = 0.0;
  for (const obs::JsonValue& phase : phases->array) {
    const obs::JsonValue* path = phase.Find("path");
    if (path == nullptr || path->kind != obs::JsonValue::Kind::kString) {
      problems->push_back("'phases' entry without a path");
      continue;
    }
    for (const char* key : kPhaseNumberKeys) {
      const obs::JsonValue* value = phase.Find(key);
      if (value == nullptr || !value->is_number()) {
        problems->push_back("'phases' entry '" + path->string_value +
                            "' lacks numeric '" + key + "'");
      }
    }
    const obs::JsonValue* count = phase.Find("count");
    if (path->string_value == kStepSpan && count != nullptr) {
      step_spans = count->number;
    }
  }
  if (step_spans != 1.0) {
    problems->push_back(std::string("'phases' must close '") + kStepSpan +
                        "' exactly once");
  }
}

// Appends the problems of one record to `problems` (empty = record ok).
void CheckRecord(const obs::JsonValue& record, bool require_repl,
                 std::vector<std::string>* problems) {
  if (!record.is_object()) {
    problems->push_back("record is not a JSON object");
    return;
  }
  for (const char* key : kStepKeys) {
    if (record.Find(key) == nullptr) {
      problems->push_back(std::string("missing step key '") + key + "'");
    }
  }
  const obs::JsonValue* g_history = record.Find("g_history");
  if (g_history == nullptr || !g_history->is_array()) {
    problems->push_back("missing or non-array 'g_history'");
  } else if (g_history->array.empty()) {
    problems->push_back("'g_history' is empty");
  }
  const obs::JsonValue* metrics = record.Find("metrics");
  if (metrics == nullptr || !metrics->is_object()) {
    problems->push_back("missing or non-object 'metrics'");
  } else {
    for (const char* key : kMetricKeys) {
      if (metrics->Find(key) == nullptr) {
        problems->push_back(std::string("missing metric '") + key + "'");
      }
    }
    if (metrics->Find("shard.shards") != nullptr) {
      for (const char* key : kRecoveryKeys) {
        if (metrics->Find(key) == nullptr) {
          problems->push_back(std::string("missing recovery metric '") +
                              key + "'");
        }
      }
      for (const char* key : kCorpusMemoryKeys) {
        if (metrics->Find(key) == nullptr) {
          problems->push_back(std::string("missing corpus memory metric '") +
                              key + "'");
        }
      }
    }
    if (require_repl) {
      for (const char* key : kReplKeys) {
        if (metrics->Find(key) == nullptr) {
          problems->push_back(std::string("missing replication metric '") +
                              key + "'");
        }
      }
    }
    size_t dispatch_gauges = 0;
    for (const auto& [name, value] : metrics->object) {
      bool known = false;
      for (const char* prefix : kKnownPrefixes) {
        if (name.compare(0, std::strlen(prefix), prefix) == 0) {
          known = true;
          break;
        }
      }
      if (!known) {
        problems->push_back("metric '" + name +
                            "' has no known family prefix");
      }
      constexpr const char* kDispatchPrefix = "kernel.dispatch.";
      if (name.compare(0, std::strlen(kDispatchPrefix), kDispatchPrefix) ==
          0) {
        ++dispatch_gauges;
        const std::string suffix = name.substr(std::strlen(kDispatchPrefix));
        bool valid = false;
        for (const char* kernel : kKernelNames) {
          if (suffix == kernel) {
            valid = true;
            break;
          }
        }
        if (!valid) {
          problems->push_back("metric '" + name +
                              "' names an unknown scoring kernel");
        }
      }
    }
    if (dispatch_gauges == 0) {
      problems->push_back("missing kernel.dispatch.<kernel> gauge");
    }
  }
  CheckPhases(record, problems);
}

// Validates one /metricsz body from a sharded server. Exit-code style
// matches the JSONL mode: 0 ok, 1 with diagnostics otherwise.
int CheckShardSnapshot(const char* path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return 1;
  }
  std::string body((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  std::vector<std::string> problems;
  const Result<obs::JsonValue> parsed = obs::ParseJson(body);
  if (!parsed.ok()) {
    problems.push_back(parsed.status().ToString());
  } else if (!parsed->is_object()) {
    problems.push_back("snapshot is not a JSON object");
  } else {
    for (const char* key : kShardKeys) {
      if (parsed->Find(key) == nullptr) {
        problems.push_back(std::string("missing shard metric '") + key +
                           "'");
      }
    }
    for (const char* key : kRecoveryKeys) {
      if (parsed->Find(key) == nullptr) {
        problems.push_back(std::string("missing recovery metric '") + key +
                           "'");
      }
    }
    for (const char* key : kCorpusMemoryKeys) {
      if (parsed->Find(key) == nullptr) {
        problems.push_back(std::string("missing corpus memory metric '") +
                           key + "'");
      }
    }
    for (const auto& [name, value] : parsed->object) {
      bool known = false;
      for (const char* prefix : kKnownPrefixes) {
        if (name.compare(0, std::strlen(prefix), prefix) == 0) {
          known = true;
          break;
        }
      }
      if (!known) {
        problems.push_back("metric '" + name +
                           "' has no known family prefix");
      }
    }
  }
  if (!problems.empty()) {
    for (const std::string& problem : problems) {
      std::fprintf(stderr, "%s: %s\n", path, problem.c_str());
    }
    std::fprintf(stderr, "%s: shard snapshot failed validation\n", path);
    return 1;
  }
  std::printf("%s: shard snapshot ok (%zu metrics)\n", path,
              parsed->object.size());
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: nidc_metrics_check FILE.jsonl [--require-repl]\n"
                 "       nidc_metrics_check --shard-snapshot FILE.json\n");
    return 2;
  }
  if (std::strcmp(argv[1], "--shard-snapshot") == 0) {
    if (argc < 3) {
      std::fprintf(stderr,
                   "usage: nidc_metrics_check --shard-snapshot FILE.json\n");
      return 2;
    }
    return CheckShardSnapshot(argv[2]);
  }
  const char* path = argv[1];
  bool require_repl = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--require-repl") == 0) require_repl = true;
  }

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return 1;
  }
  size_t line_number = 0;
  size_t bad_records = 0;
  std::string line;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    std::vector<std::string> problems;
    const Result<obs::JsonValue> parsed = obs::ParseJson(line);
    if (!parsed.ok()) {
      problems.push_back(parsed.status().ToString());
    } else {
      CheckRecord(*parsed, require_repl, &problems);
    }
    if (!problems.empty()) {
      ++bad_records;
      for (const std::string& problem : problems) {
        std::fprintf(stderr, "%s:%zu: %s\n", path, line_number,
                     problem.c_str());
      }
    }
  }
  if (line_number == 0) {
    std::fprintf(stderr, "%s: no records\n", path);
    return 1;
  }
  if (bad_records > 0) {
    std::fprintf(stderr, "%s: %zu of %zu records failed validation\n", path,
                 bad_records, line_number);
    return 1;
  }
  std::printf("%s: %zu records ok\n", path, line_number);
  return 0;
}

}  // namespace
}  // namespace nidc

int main(int argc, char** argv) { return nidc::Main(argc, argv); }
