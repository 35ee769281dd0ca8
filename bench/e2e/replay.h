// Single-threaded layer replay: the batches a service run ingested, fed
// in the same order through the public functions Tenant::Ingest composes
// (decode, corpus append + fsync, analysis, windowing, durable step), each
// call timed on its own. It is the per-layer half of a traced run and the
// single-threaded baseline; its final digests must equal the service's.

#ifndef NIDC_BENCH_E2E_REPLAY_H_
#define NIDC_BENCH_E2E_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "nidc/shard/tenant.h"

namespace nidc::e2e {

/// One span of the Chrome trace (complete "X" event).
struct Span {
  std::string name;
  int pid = 0;
  int tid = 0;
  double start_s = 0.0;
  double dur_s = 0.0;
};

/// One tenant's feed as the service received it.
struct ReplayTenant {
  std::string name;
  shard::TenantConfig config;
  /// Request bodies in send order.
  std::vector<const std::string*> bodies;
  /// Final flush horizon.
  DayTime flush_until = 0.0;
};

/// Per-call timings (one sample per request or per step) and totals.
struct ReplayResult {
  /// StateDigest per tenant, parallel to the input.
  std::vector<std::string> digests;
  // Per request.
  std::vector<double> decode_us_per_doc;   // ParseIngestJsonl
  std::vector<double> append_us;           // WritableFile::Append
  std::vector<double> sync_us;             // WritableFile::Sync
  std::vector<double> analyze_us_per_doc;  // Corpus::AddText
  std::vector<double> batcher_us;          // TimeBatcher::Add, whole batch
  // Per non-empty step.
  std::vector<double> stats_ms;        // StepResult::stats_update_seconds
  std::vector<double> kmeans_ms;       // StepResult::clustering_seconds
  std::vector<double> seed_ms;         // KMeansProfile phases
  std::vector<double> score_ms;
  std::vector<double> maintenance_ms;
  std::vector<double> refresh_ms;
  std::vector<double> iterations;
  std::vector<double> active_docs;
  // Reopen of each tenant's directory as a crash left it, summed.
  double load_s = 0.0;  // LoadCorpus
  double open_s = 0.0;  // DurableClusterer::Open
  // Quantized scoring outcomes (kernel.* counters).
  uint64_t certified = 0;
  uint64_t fallbacks = 0;
  size_t docs = 0;
  double seconds = 0.0;  // the whole replay, reopen excluded
};

/// Replays `tenants` one after another under `dir` (which must not exist
/// yet) with the service's durability settings and a single K-means
/// thread. Appends one span per call to `spans` when non-null. Any error
/// aborts the replay and is returned.
Result<ReplayResult> ReplayLayers(const std::string& dir,
                                  const std::vector<ReplayTenant>& tenants,
                                  uint64_t checkpoint_every,
                                  WalSyncMode wal_sync,
                                  std::vector<Span>* spans);

}  // namespace nidc::e2e

#endif  // NIDC_BENCH_E2E_REPLAY_H_
