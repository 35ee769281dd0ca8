// Leader-kill torture for the replication subsystem.
//
// The replicated-durability guarantee extends the store/ crash-torture
// claim across two processes: kill the *leader* at any replication step —
// any mutating filesystem operation while it is streaming to a live
// follower — promote the follower, resume the stream on it, and the final
// clustering is bit-identical to an uninterrupted single-node run.
//
// The harness mirrors store/torture.cc:
//
//   1. build the deterministic torture stream and fingerprint an
//      uninterrupted reference run;
//   2. for kill point n = 1, 2, ...: wipe both directories, connect a
//      fresh follower to a leader whose FaultInjectionEnv is armed to
//      crash at the nth mutating operation (cycling crash-flush
//      policies), and stream until the leader dies. Shipping runs
//      synchronously inside the leader's Step path (a LocalLink applies
//      each frame to the follower inline), so every kill point lands at a
//      deterministic point of the ship/replay interleaving;
//   3. promote the follower (seal + DurableClusterer::Open on its
//      directory), feed it the rest of the stream from its
//      applied_steps() watermark, and compare fingerprints;
//      The promoted leader's recovery() feeds the report's
//      kill_points_installed / kill_points_rerun, as in store/torture.cc;
//   4. stop when a run survives un-crashed — that closing run also
//      promotes and compares, so the clean-path replication is verified
//      by the same predicate.
//
// Used by tools/nidc_crash_torture --leader-kill (full matrix, CI) and
// leader_kill_torture_test (reduced configuration).

#ifndef NIDC_REPL_TORTURE_H_
#define NIDC_REPL_TORTURE_H_

#include <string>

#include "nidc/store/torture.h"

namespace nidc::repl {

struct LeaderKillOptions {
  /// Stream shape, durability knobs and the *leader* checkpoint directory
  /// (TortureOptions::dir). Both directories are wiped per kill point.
  TortureOptions torture;

  /// Follower checkpoint directory. Required; must differ from the
  /// leader's.
  std::string follower_dir;

  /// Shipper reconnect-queue bound under test.
  size_t max_queue_records = 64;
};

Result<TortureReport> RunLeaderKillTorture(const LeaderKillOptions& options);

}  // namespace nidc::repl

#endif  // NIDC_REPL_TORTURE_H_
