// Workload definitions and the open-loop schedule of the end-to-end
// benchmark: which tenants send which documents, in which requests, at
// which intended times, over which connection — and how a window's
// freshness sample is attributed once the stamps are in. Everything here
// is a pure function of the workload and the seed, so it is unit-tested
// (harness_test.cc) apart from any service.

#ifndef NIDC_BENCH_E2E_SCHEDULE_H_
#define NIDC_BENCH_E2E_SCHEDULE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "nidc/corpus/corpus_io.h"
#include "nidc/shard/tenant.h"

namespace nidc::e2e {

/// Request bodies are split at this size; the server refuses bodies over
/// 64 KiB (serve::kMaxBodyBytes), and a day of a scale-1 feed can exceed
/// that during a hot-topic burst.
inline constexpr size_t kMaxBatchBytes = 48 * 1024;

/// Ingest connections (each keep-alive connection holds one of the four
/// HTTP workers, and the fourth worker serves the read connection of the
/// workloads that read).
inline constexpr size_t kIngestConnections = 3;

/// Reads per second on the fourth connection, in the workloads that read.
inline constexpr double kReadsPerSecond = 50.0;

/// One workload: a tenant population and its frozen open-loop rate. Day
/// ranges are derived from the run length by MakePlan().
struct Workload {
  const char* name = "";
  size_t tenants = 0;
  /// Tdt2LikeGenerator scale of every tenant's corpus.
  double scale = 1.0;
  size_t k = 24;
  /// Wall milliseconds per simulated day in the open loop (frozen; see
  /// README.md for its calibration).
  double day_ms = 0.0;
  /// Days fed closed-loop and untimed before the open loop, so the open
  /// loop starts from a steady active set (life span 30 days). 34 days
  /// close 33 windows: two checkpoint rotations (every 16 steps) and one
  /// WAL record after them, the tail a crash leaves for restart to replay.
  int warm_days = 34;
  /// Closed-loop drain days per 10 s of run length (capacity phase).
  int drain_days_per_10s = 0;
  /// Set-ups per run, spread evenly over its pauses (before and after the
  /// warm-up, after each open loop and each drain, at the end); setup_s is
  /// their median.
  int setups = 0;
  /// During the open loop the fourth connection reads at kReadsPerSecond,
  /// cycling through the operator surfaces; 1 read in 20 renders a digest
  /// on the tenant's shard.
  bool reads = false;
  /// The warm days are written by standalone tenants that are then
  /// crashed, and set-up is the service's recovery of them.
  bool restart = false;
};

/// The four workloads, in `--workload=all` order.
const std::vector<Workload>& Workloads();

/// nullptr when no workload has that name.
const Workload* FindWorkload(const std::string& name);

/// Day ranges of one run: the warm-up [0, open_begin), then `rounds`
/// rounds, each an open loop over `open_days` days followed by a
/// closed-loop drain over `drain_days` days. end_day, where the last round
/// ends, is also the final flush horizon.
struct Plan {
  int open_begin = 0;
  int rounds = 0;
  int open_days = 0;
  int drain_days = 0;
  int end_day = 0;

  int OpenBegin(int round) const {
    return open_begin + round * (open_days + drain_days);
  }
  int DrainBegin(int round) const { return OpenBegin(round) + open_days; }
};

/// Four rounds (two with `smoke`, which also shortens the warm-up to 3
/// days). The open loops take 80% of `seconds` in all at the workload's day
/// length; the drains scale with `seconds`. Both shrink when the corpus
/// would run out of days.
Plan MakePlan(const Workload& workload, double seconds, bool smoke);

/// The tenant configuration every workload uses (β = 7, γ = 30, one-day
/// steps from day 0, K from the workload).
shard::TenantConfig MakeTenantConfig(const Workload& workload);

/// Tenant names; "feedNN" spreads evenly over 4 shards by the service's
/// FNV-1a placement.
std::string TenantName(size_t tenant);

/// One tenant's documents of one day, as the request bodies that carry it.
struct DayBatch {
  int day = 0;
  size_t docs = 0;
  /// JSONL bodies in send order, each at most kMaxBatchBytes (a single
  /// document larger than that still gets a body of its own).
  std::vector<std::string> bodies;
};

/// Splits one chronological run of documents into JSONL bodies of at most
/// `max_bytes` each, never splitting a document.
std::vector<std::string> SplitBodies(const std::vector<RawDocument>& docs,
                                     size_t max_bytes);

/// Generates tenant `tenant`'s corpus (seed `seed + tenant`), round-trips
/// it through the wire codec (so times sit on the %.6f grid), and groups
/// the days in [0, end_day) that have documents into batches.
std::vector<DayBatch> MakeFeed(const Workload& workload, uint64_t seed,
                               size_t tenant, int end_day);

/// The connection a tenant's requests ride: pinned, so its batches stay in
/// order.
inline size_t ConnectionOf(size_t tenant, size_t connections) {
  return tenant % connections;
}

/// Intended send time of `tenant`'s batch for `day`, in seconds after the
/// open loop starts: one day per `day_seconds`, tenants staggered by
/// t·D/T across the day.
double IntendedOffset(int day, int first_day, size_t tenant, size_t tenants,
                      double day_seconds);

/// Generator lateness of one request: how long after its intended time it
/// was actually sent (0 when on time).
inline double Lateness(double intended, double sent) {
  return sent > intended ? sent - intended : 0.0;
}

/// What the freshness attribution needs to know about one open-loop batch
/// of one tenant.
struct BatchTiming {
  /// Intended send time of the batch's first request.
  double intended = 0.0;
  /// First step stamp on any of the batch's traces: when the window the
  /// batch's documents fall in was applied. < 0 when never stamped.
  double step = -1.0;
  /// The batch's first request was refused (429) or failed.
  bool refused = false;
};

/// One freshness sample per closed window of a tenant's chronological
/// open-loop batches: batch i's window closes when batch i+1 arrives, so
/// freshness is step(i) − intended(i+1) — queue wait and all apply work,
/// not the window's own length. The last batch's window is not closed by
/// an open-loop batch and gives no sample. A window whose closing request
/// was refused, or that was never stepped, is a miss (kMissedMs).
/// Milliseconds.
std::vector<double> FreshSamplesMs(const std::vector<BatchTiming>& batches);

}  // namespace nidc::e2e

#endif  // NIDC_BENCH_E2E_SCHEDULE_H_
