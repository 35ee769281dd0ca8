// nidc_crash_torture — brute-force crash-recovery verification (CI gate).
//
// Streams a deterministic synthetic corpus through DurableClusterer and,
// for every reachable filesystem operation, simulates a process kill at
// exactly that operation (cycling drop-unsynced / torn-write /
// keep-unsynced crash semantics), recovers, finishes the stream and
// asserts the final clustering state is bit-identical to an uninterrupted
// run. Each recovery that resumed stored state is also crashed a second
// time, at each of its first 8 mutating filesystem operations, and
// recovered again.
// See src/nidc/store/torture.h for the harness and docs/durability.md for
// the protocol being verified.
//
// With --leader-kill the same matrix runs against a *replicated* pair
// instead: the leader ships its WAL to a live follower while being killed
// at every replication step, the follower is promoted in the leader's
// place, resumes the stream, and must still end bit-identical to the
// uninterrupted run. See src/nidc/repl/torture.h and docs/replication.md.
//
// usage: nidc_crash_torture [--dir DIR] [--steps N] [--docs-per-step N]
//                           [--checkpoint-every N] [--wal-fsync every|none]
//                           [--max-kill-points N] [--quiet]
//                           [--leader-kill] [--follower-dir DIR]
//                           [--queue-records N]
//
// Exit code 0 = every kill point recovered bit-identically.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "nidc/repl/torture.h"
#include "nidc/store/torture.h"

namespace nidc {
namespace {

int Main(int argc, char** argv) {
  TortureOptions options;
  options.dir = "nidc_crash_torture.ckpt";
  options.report_every = 25;
  bool leader_kill = false;
  std::string follower_dir = "nidc_crash_torture.follower";
  size_t queue_records = 64;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--dir") {
      options.dir = value();
    } else if (flag == "--steps") {
      options.num_steps = std::strtoull(value(), nullptr, 10);
    } else if (flag == "--docs-per-step") {
      options.docs_per_step = std::strtoull(value(), nullptr, 10);
    } else if (flag == "--checkpoint-every") {
      options.checkpoint_every = std::strtoull(value(), nullptr, 10);
    } else if (flag == "--wal-fsync") {
      const std::string mode = value();
      if (mode == "every") {
        options.wal_sync = WalSyncMode::kEveryRecord;
      } else if (mode == "none") {
        options.wal_sync = WalSyncMode::kNone;
      } else {
        std::fprintf(stderr, "--wal-fsync must be every or none\n");
        return 2;
      }
    } else if (flag == "--max-kill-points") {
      options.max_kill_points = std::strtoull(value(), nullptr, 10);
    } else if (flag == "--quiet") {
      options.report_every = 0;
    } else if (flag == "--leader-kill") {
      leader_kill = true;
    } else if (flag == "--follower-dir") {
      follower_dir = value();
    } else if (flag == "--queue-records") {
      queue_records = std::strtoull(value(), nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }

  std::printf(
      "%s torture: %zu steps x %zu docs, checkpoint every %llu, "
      "fsync %s\n",
      leader_kill ? "leader-kill" : "crash", options.num_steps,
      options.docs_per_step,
      static_cast<unsigned long long>(options.checkpoint_every),
      options.wal_sync == WalSyncMode::kEveryRecord ? "every" : "none");
  Result<TortureReport> report = [&]() -> Result<TortureReport> {
    if (leader_kill) {
      repl::LeaderKillOptions leader_options;
      leader_options.torture = options;
      leader_options.follower_dir = follower_dir;
      leader_options.max_queue_records = queue_records;
      return repl::RunLeaderKillTorture(leader_options);
    }
    return RunCrashTorture(options);
  }();
  if (!report.ok()) {
    std::fprintf(stderr, "torture setup failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  if (!report->passed) {
    std::fprintf(stderr, "FAIL: %s\n", report->failure.c_str());
    return 1;
  }
  std::printf(
      "PASS: %llu kill points exercised, %llu %s, all "
      "bit-identical to the uninterrupted run\n",
      static_cast<unsigned long long>(report->kill_points_exercised),
      static_cast<unsigned long long>(report->recoveries),
      leader_kill ? "promotions" : "recoveries");
  // CI fails the run when the first count is 0: the install fast path
  // must stay exercised, on a recovered leader and a promoted follower.
  std::printf(
      "%s installed logged outcomes at %llu kill points, re-ran every "
      "replayed record at %llu\n",
      leader_kill ? "promotion" : "recovery",
      static_cast<unsigned long long>(report->kill_points_installed),
      static_cast<unsigned long long>(report->kill_points_rerun));
  if (!leader_kill) {
    // CI requires this line: recoveries crashed again and recovered.
    std::printf("second crash after resume: %llu runs, all bit-identical\n",
                static_cast<unsigned long long>(report->second_crash_runs));
  }
  return 0;
}

}  // namespace
}  // namespace nidc

int main(int argc, char** argv) { return nidc::Main(argc, argv); }
