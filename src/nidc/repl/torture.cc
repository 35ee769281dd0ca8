#include "nidc/repl/torture.h"

#include <cstdio>

#include "nidc/core/state_io.h"
#include "nidc/repl/replica.h"
#include "nidc/repl/shipper.h"
#include "nidc/util/fault_env.h"
#include "nidc/util/string_util.h"

namespace nidc::repl {

namespace {

void WipeDir(Env* env, const std::string& dir) {
  Result<std::vector<std::string>> names = env->ListDir(dir);
  if (!names.ok()) return;
  for (const std::string& name : *names) {
    env->RemoveFile(dir + "/" + name);
  }
}

std::string Fingerprint(const IncrementalClusterer& clusterer) {
  return SerializeState(CaptureState(clusterer));
}

/// Applies shipped frames to the follower inline on the leader's Step
/// thread — replication runs in lockstep with ingest, so an injected
/// leader crash always lands at the same ship/replay boundary.
class LocalLink : public FollowerLink {
 public:
  explicit LocalLink(ReplicaClusterer* replica) : replica_(replica) {}

  Status Send(const ReplFrame& frame) override {
    return replica_->Apply(frame);
  }

 private:
  ReplicaClusterer* const replica_;
};

Status FeedRemaining(DurableClusterer* durable, const TortureStream& stream) {
  for (size_t i = durable->applied_steps(); i < stream.batches.size(); ++i) {
    Result<StepResult> result =
        durable->Step(stream.batches[i], stream.taus[i]);
    if (result.ok()) continue;
    const StatusCode code = result.status().code();
    if (code == StatusCode::kFailedPrecondition) continue;
    if (code == StatusCode::kIOError) return result.status();
    return Status::Internal("torture step " + std::to_string(i) +
                            " rejected: " + result.status().ToString());
  }
  return Status::OK();
}

}  // namespace

Result<TortureReport> RunLeaderKillTorture(const LeaderKillOptions& options) {
  if (options.torture.dir.empty() || options.follower_dir.empty()) {
    return Status::InvalidArgument(
        "leader and follower directories are required");
  }
  if (options.torture.dir == options.follower_dir) {
    return Status::InvalidArgument(
        "leader and follower directories must differ");
  }
  TortureReport report;
  const TortureStream stream = BuildTortureStream(options.torture);
  IncrementalOptions incremental;
  incremental.kmeans.k = options.torture.k;

  // Reference: the uninterrupted single-node run.
  IncrementalClusterer reference(stream.corpus.get(), options.torture.params,
                                 incremental);
  for (size_t i = 0; i < stream.batches.size(); ++i) {
    Result<StepResult> result =
        reference.Step(stream.batches[i], stream.taus[i]);
    if (!result.ok() &&
        result.status().code() != StatusCode::kFailedPrecondition) {
      return Status::Internal("reference step " + std::to_string(i) +
                              " failed: " + result.status().ToString());
    }
  }
  const std::string want = Fingerprint(reference);

  Env* base = Env::Default();
  for (uint64_t kill = 1;; ++kill) {
    if (options.torture.max_kill_points > 0 &&
        kill > options.torture.max_kill_points) {
      report.passed = report.failure.empty();
      return report;
    }
    WipeDir(base, options.torture.dir);
    WipeDir(base, options.follower_dir);

    const CrashFlush flush = static_cast<CrashFlush>((kill - 1) % 3);
    FaultInjectionEnv fault_env(base);

    // Follower on a healthy filesystem, connected before the leader opens
    // (its session parks until the leader's first rotation ships a base).
    ReplicaOptions replica_options;
    replica_options.dir = options.follower_dir;
    replica_options.wal_sync = options.torture.wal_sync;
    replica_options.env = base;
    Result<std::unique_ptr<ReplicaClusterer>> follower =
        ReplicaClusterer::Open(stream.corpus.get(), options.torture.params,
                               incremental, replica_options);
    if (!follower.ok()) {
      return Status::Internal("follower open failed: " +
                              follower.status().ToString());
    }
    LocalLink link(follower->get());

    ShipperOptions ship_options;
    ship_options.dir = options.torture.dir;
    ship_options.env = &fault_env;
    ship_options.max_queue_records = options.max_queue_records;
    WalShipper shipper(ship_options);
    shipper.AddFollower(&link, (*follower)->HelloFrame());

    // Doomed leader: crash at the kill-th mutating filesystem operation
    // with shipping wired into its Step path.
    fault_env.ArmCrashAtOp(kill, flush);
    {
      DurableOptions durable;
      durable.dir = options.torture.dir;
      durable.checkpoint_every = options.torture.checkpoint_every;
      durable.wal_sync = options.torture.wal_sync;
      durable.env = &fault_env;
      durable.sink = &shipper;
      Result<std::unique_ptr<DurableClusterer>> doomed =
          DurableClusterer::Open(stream.corpus.get(), options.torture.params,
                                 incremental, durable);
      if (doomed.ok()) {
        const Status fed = FeedRemaining(doomed->get(), stream);
        if (!fed.ok() && fed.code() != StatusCode::kIOError) return fed;
        if (!fault_env.crashed()) {
          (*doomed)->Close();  // may itself be the crashing operation
        }
      }
    }
    const bool crashed = fault_env.crashed();
    if (crashed) ++report.kill_points_exercised;

    // Promote-on-failure: the follower becomes the leader and finishes
    // the stream from whatever prefix reached it before the crash. (The
    // final, un-crashed run goes through the same promotion so the clean
    // path is held to the same predicate.)
    DurableOptions promoted_options;
    promoted_options.checkpoint_every = options.torture.checkpoint_every;
    promoted_options.wal_sync = options.torture.wal_sync;
    Result<std::unique_ptr<DurableClusterer>> promoted =
        (*follower)->Promote(promoted_options);
    if (!promoted.ok()) {
      report.failure = StringPrintf(
          "kill point %llu (flush mode %d): promote failed: %s",
          static_cast<unsigned long long>(kill), static_cast<int>(flush),
          promoted.status().ToString().c_str());
      return report;
    }
    if (crashed) {
      ++report.recoveries;
      const RecoveryInfo& info = (*promoted)->recovery();
      if (info.installed_records > 0) {
        ++report.kill_points_installed;
      } else if (info.replayed_records > 0) {
        ++report.kill_points_rerun;
      }
    }
    if (const Status fed = FeedRemaining(promoted->get(), stream);
        !fed.ok()) {
      report.failure = StringPrintf(
          "kill point %llu (flush mode %d): resume on promoted follower "
          "failed: %s",
          static_cast<unsigned long long>(kill), static_cast<int>(flush),
          fed.ToString().c_str());
      return report;
    }
    const std::string got = Fingerprint((*promoted)->clusterer());
    (*promoted)->Close();
    if (got != want) {
      report.failure = StringPrintf(
          "kill point %llu (flush mode %d): promoted follower's final "
          "state diverges from the uninterrupted run",
          static_cast<unsigned long long>(kill), static_cast<int>(flush));
      return report;
    }
    if (!crashed) {
      report.passed = true;
      return report;
    }
    if (options.torture.report_every > 0 &&
        kill % options.torture.report_every == 0) {
      std::fprintf(stderr, "leader-kill torture: %llu kill points ok\n",
                   static_cast<unsigned long long>(kill));
    }
  }
}

}  // namespace nidc::repl
