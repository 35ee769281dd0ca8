// Crash-torture driver for the durability layer.
//
// The headline guarantee of store/ is: kill the process at *any* I/O
// operation, recover, finish the stream, and the final clustering is
// bit-identical to an uninterrupted run. This driver proves it by brute
// force:
//
//   1. build a deterministic synthetic corpus and batch schedule;
//   2. run an uninterrupted IncrementalClusterer over it and fingerprint
//      the final state (full serialized snapshot, exact section included);
//   3. for kill point n = 1, 2, 3, ...: wipe the checkpoint directory,
//      arm a FaultInjectionEnv to crash at the nth mutating filesystem
//      operation (cycling through the three CrashFlush policies), stream
//      until the injected crash "kills" the process, then recover with a
//      clean Env, resume feeding batches from applied_steps(), and compare
//      the final fingerprint against the reference;
//   4. stop when a run completes without the injection firing — every
//      reachable crash point has then been exercised.
//
// Used by tools/nidc_crash_torture (full matrix, CI) and the
// crash_torture_test unit test (reduced configuration).

#ifndef NIDC_STORE_TORTURE_H_
#define NIDC_STORE_TORTURE_H_

#include <string>
#include <vector>

#include "nidc/store/durable_clusterer.h"

namespace nidc {

struct TortureOptions {
  /// Checkpoint directory to torture (wiped before every kill point).
  std::string dir;

  /// Stream shape. Defaults give a 60-step stream over 30 days with
  /// expirations (life span 6 days) and a small but real clustering
  /// problem per step.
  size_t num_steps = 60;
  size_t docs_per_step = 3;
  double step_days = 0.5;
  size_t k = 4;
  uint64_t seed = 7;

  ForgettingParams params{/*half_life=*/2.0, /*life_span=*/6.0};

  /// Durability knobs under test.
  uint64_t checkpoint_every = 8;
  WalSyncMode wal_sync = WalSyncMode::kEveryRecord;

  /// 0 = exercise every kill point until one run survives un-crashed;
  /// otherwise stop after this many (reduced configurations for unit
  /// tests).
  uint64_t max_kill_points = 0;

  /// Progress lines on stderr every `report_every` kill points (0 = quiet).
  uint64_t report_every = 0;
};

struct TortureReport {
  bool passed = false;
  /// Kill points that actually fired a crash and went through recovery.
  uint64_t kill_points_exercised = 0;
  /// Successful recoveries (== kill_points_exercised when passed).
  uint64_t recoveries = 0;
  /// Kill points whose recovery installed at least one logged outcome.
  uint64_t kill_points_installed = 0;
  /// Kill points whose recovery replayed WAL records and re-ran K-means
  /// for every one of them.
  uint64_t kill_points_rerun = 0;
  /// First divergence/failure, empty when passed.
  std::string failure;
};

/// The deterministic corpus + batch schedule the torture run streams.
struct TortureStream {
  std::unique_ptr<Corpus> corpus;
  std::vector<std::vector<DocId>> batches;
  std::vector<DayTime> taus;
};

TortureStream BuildTortureStream(const TortureOptions& options);

/// Runs the full matrix. Returns a non-OK status only for setup errors
/// (e.g. the reference run itself failing); a recovery divergence is
/// reported via TortureReport::passed/failure.
Result<TortureReport> RunCrashTorture(const TortureOptions& options);

}  // namespace nidc

#endif  // NIDC_STORE_TORTURE_H_
