#include "nidc/repl/replica.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nidc/core/state_io.h"
#include "nidc/obs/metrics.h"
#include "nidc/store/torture.h"
#include "nidc/util/fault_env.h"
#include "temp_path.h"

namespace nidc {
namespace {

std::string FreshDir(const std::string& name) {
  Env* env = Env::Default();
  const std::string dir = TestTempPath("nidc_replica_test_" + name);
  env->CreateDir(dir);
  if (auto names = env->ListDir(dir); names.ok()) {
    for (const std::string& entry : *names) {
      env->RemoveFile(dir + "/" + entry);
    }
  }
  return dir;
}

// Converts the leader's durability commit stream into the canonical wire
// frame sequence an in-sync follower receives: the opening rotation as the
// base snapshot, every WAL append as a record, every later rotation as a
// seal of the previous generation.
class RecordingSink : public ReplicationSink {
 public:
  void OnWalRecord(uint64_t generation, uint64_t sequence,
                   uint64_t leader_steps, std::string_view payload) override {
    repl::ReplFrame frame;
    frame.type = repl::FrameType::kWalRecord;
    frame.generation = generation;
    frame.sequence = sequence;
    frame.leader_steps = leader_steps;
    frame.payload = std::string(payload);
    frames.push_back(std::move(frame));
  }

  void OnRotate(uint64_t generation, uint64_t sealed_records,
                uint64_t leader_steps, const std::string& snapshot) override {
    repl::ReplFrame frame;
    if (frames.empty()) {
      frame.type = repl::FrameType::kSnapshot;
      frame.generation = generation;
      frame.sequence = 0;
      frame.payload = snapshot;
    } else {
      frame.type = repl::FrameType::kSeal;
      frame.generation = generation - 1;
      frame.sequence = sealed_records;
    }
    frame.leader_steps = leader_steps;
    frames.push_back(std::move(frame));
  }

  std::vector<repl::ReplFrame> frames;
};

class ReplicaTest : public ::testing::Test {
 protected:
  ReplicaTest() {
    TortureOptions shape;
    shape.num_steps = 24;
    stream_ = BuildTortureStream(shape);
    params_ = shape.params;
    incremental_.kmeans.k = 4;
  }

  // Runs the whole stream through a durable leader wired to a
  // RecordingSink and returns the recorded frame sequence.
  std::vector<repl::ReplFrame> RecordLeaderRun(const std::string& dir) {
    RecordingSink sink;
    DurableOptions durable;
    durable.dir = dir;
    durable.checkpoint_every = 5;
    durable.sink = &sink;
    auto leader = DurableClusterer::Open(stream_.corpus.get(), params_,
                                         incremental_, durable);
    EXPECT_TRUE(leader.ok()) << leader.status().ToString();
    for (size_t i = 0; i < stream_.batches.size(); ++i) {
      auto result = (*leader)->Step(stream_.batches[i], stream_.taus[i]);
      if (!result.ok()) {
        EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
      }
    }
    EXPECT_TRUE((*leader)->Close().ok());
    return std::move(sink.frames);
  }

  Result<std::unique_ptr<repl::ReplicaClusterer>> OpenReplica(
      const std::string& dir, Env* env = nullptr) {
    repl::ReplicaOptions replica;
    replica.dir = dir;
    replica.env = env;
    return repl::ReplicaClusterer::Open(stream_.corpus.get(), params_,
                                        incremental_, replica);
  }

  std::string ReferenceFingerprint() {
    IncrementalClusterer reference(stream_.corpus.get(), params_,
                                   incremental_);
    for (size_t i = 0; i < stream_.batches.size(); ++i) {
      auto result = reference.Step(stream_.batches[i], stream_.taus[i]);
      if (!result.ok()) {
        EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
      }
    }
    return SerializeState(CaptureState(reference));
  }

  // Promotes `replica` and returns the promoted leader's fingerprint, and
  // its recovery report through `recovery` when that is set.
  std::string PromotedFingerprint(
      std::unique_ptr<repl::ReplicaClusterer> replica,
      RecoveryInfo* recovery = nullptr) {
    DurableOptions durable;
    durable.checkpoint_every = 5;
    auto promoted = replica->Promote(durable);
    EXPECT_TRUE(promoted.ok()) << promoted.status().ToString();
    if (!promoted.ok()) return "";
    if (recovery != nullptr) *recovery = (*promoted)->recovery();
    const std::string fingerprint =
        SerializeState(CaptureState((*promoted)->clusterer()));
    EXPECT_TRUE((*promoted)->Close().ok());
    return fingerprint;
  }

  TortureStream stream_;
  ForgettingParams params_;
  IncrementalOptions incremental_;
};

TEST_F(ReplicaTest, FollowsTheLiveStreamAndPromotesBitIdentically) {
  const auto frames = RecordLeaderRun(FreshDir("live_leader"));
  ASSERT_GT(frames.size(), 10u);
  auto replica = OpenReplica(FreshDir("live_follower"));
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();
  for (const repl::ReplFrame& frame : frames) {
    ASSERT_TRUE((*replica)->Apply(frame).ok());
  }
  const repl::ReplicaStats stats = (*replica)->stats();
  EXPECT_EQ(stats.lag_records, 0u);
  EXPECT_GT(stats.records_applied, 0u);
  EXPECT_GT(stats.local_rotations, 0u);
  EXPECT_EQ(stats.record_gaps, 0u);
  EXPECT_EQ(PromotedFingerprint(std::move(*replica)),
            ReferenceFingerprint());

  // The leader's closing seal checkpoints the follower, leaving nothing
  // to replay. A follower promoted just before it holds the last
  // generation's records, and promotion installs the outcomes it logged
  // for them instead of re-running K-means.
  ASSERT_EQ(frames.back().type, repl::FrameType::kSeal);
  auto tail = OpenReplica(FreshDir("live_tail_follower"));
  ASSERT_TRUE(tail.ok()) << tail.status().ToString();
  for (size_t i = 0; i + 1 < frames.size(); ++i) {
    ASSERT_TRUE((*tail)->Apply(frames[i]).ok());
  }
  RecoveryInfo recovery;
  EXPECT_EQ(PromotedFingerprint(std::move(*tail), &recovery),
            ReferenceFingerprint());
  EXPECT_GT(recovery.replayed_records, 0u);
  EXPECT_EQ(recovery.installed_records, recovery.replayed_records);
}

TEST_F(ReplicaTest, RestartedFollowerSkipsAlreadyAppliedFrames) {
  const auto frames = RecordLeaderRun(FreshDir("restart_leader"));
  const std::string dir = FreshDir("restart_follower");
  {
    auto replica = OpenReplica(dir);
    ASSERT_TRUE(replica.ok()) << replica.status().ToString();
    for (size_t i = 0; i < frames.size() / 2; ++i) {
      ASSERT_TRUE((*replica)->Apply(frames[i]).ok());
    }
    ASSERT_TRUE((*replica)->Close().ok());
  }
  // Reopen at the persisted watermark and replay the entire stream from
  // the beginning, as a reconnecting leader would after losing track of
  // the follower: everything already applied must be skipped, the rest
  // applied, and the result must still match the reference.
  auto replica = OpenReplica(dir);
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();
  EXPECT_GT((*replica)->applied_steps(), 0u);
  for (const repl::ReplFrame& frame : frames) {
    ASSERT_TRUE((*replica)->Apply(frame).ok());
  }
  const repl::ReplicaStats stats = (*replica)->stats();
  EXPECT_GT(stats.records_skipped + stats.stale_frames, 0u);
  EXPECT_EQ(PromotedFingerprint(std::move(*replica)),
            ReferenceFingerprint());
}

TEST_F(ReplicaTest, KilledMidCatchUpResumesFromItsOwnWal) {
  const auto frames = RecordLeaderRun(FreshDir("kill_leader"));
  const std::string dir = FreshDir("kill_follower");
  const std::string reference = ReferenceFingerprint();
  constexpr CrashFlush kPolicies[] = {CrashFlush::kDropUnsynced,
                                      CrashFlush::kTornWrite,
                                      CrashFlush::kKeepUnsynced};
  uint64_t crashes = 0;
  for (uint64_t kill = 1;; ++kill) {
    FreshDir("kill_follower");  // wipe
    FaultInjectionEnv fault_env(Env::Default());
    auto doomed = OpenReplica(dir, &fault_env);
    ASSERT_TRUE(doomed.ok()) << doomed.status().ToString();
    fault_env.ArmCrashAtOp(kill, kPolicies[(kill - 1) % 3]);
    for (const repl::ReplFrame& frame : frames) {
      const Status applied = (*doomed)->Apply(frame);
      if (!applied.ok()) {
        ASSERT_EQ(applied.code(), StatusCode::kIOError)
            << applied.ToString();
        break;
      }
    }
    const bool crashed = fault_env.crashed();
    fault_env.Disarm();
    doomed->reset();  // discard without a clean close, like a real kill

    // Restart on the real filesystem (exactly the bytes the crash left
    // behind), replay the full stream, and require bit-identical state.
    auto restarted = OpenReplica(dir);
    ASSERT_TRUE(restarted.ok())
        << "kill " << kill << ": " << restarted.status().ToString();
    for (const repl::ReplFrame& frame : frames) {
      ASSERT_TRUE((*restarted)->Apply(frame).ok()) << "kill " << kill;
    }
    ASSERT_EQ(PromotedFingerprint(std::move(*restarted)), reference)
        << "kill " << kill;
    if (!crashed) break;  // the whole replay ran without reaching the op
    ++crashes;
    ASSERT_LT(kill, 10000u) << "kill sweep did not terminate";
  }
  EXPECT_GT(crashes, 10u);
}

TEST_F(ReplicaTest, WalThatLostItsHeaderIsRestartedNotAppendedTo) {
  // A local rotation leaves the new WAL's header unsynced. A crash right
  // after it leaves an empty wal-2, and a restarted follower must start
  // that file afresh: records appended to a headerless file would be
  // unreadable when promotion reopens the directory.
  const auto frames = RecordLeaderRun(FreshDir("header_leader"));
  std::vector<size_t> seals;
  for (size_t i = 0; i < frames.size(); ++i) {
    if (frames[i].type == repl::FrameType::kSeal) seals.push_back(i);
  }
  ASSERT_GE(seals.size(), 2u);
  const std::string dir = FreshDir("header_follower");
  {
    FaultInjectionEnv fault_env(Env::Default());
    auto doomed = OpenReplica(dir, &fault_env);
    ASSERT_TRUE(doomed.ok()) << doomed.status().ToString();
    for (size_t i = 0; i <= seals[0]; ++i) {
      ASSERT_TRUE((*doomed)->Apply(frames[i]).ok());
    }
    fault_env.ArmCrashAtOp(1, CrashFlush::kDropUnsynced);
    ASSERT_FALSE(fault_env.CreateDir(dir + "/crash").ok());
  }
  ASSERT_EQ(Env::Default()->ReadFileToString(dir + "/" + WalFileName(2))
                ->size(),
            0u);

  auto restarted = OpenReplica(dir);
  ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();
  for (size_t i = seals[0] + 1; i < seals[1]; ++i) {
    ASSERT_TRUE((*restarted)->Apply(frames[i]).ok());
  }
  const uint64_t steps = frames[seals[1] - 1].leader_steps;
  IncrementalClusterer reference(stream_.corpus.get(), params_, incremental_);
  for (size_t i = 0; i < steps; ++i) {
    auto result = reference.Step(stream_.batches[i], stream_.taus[i]);
    if (!result.ok()) {
      ASSERT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
    }
  }
  EXPECT_EQ(PromotedFingerprint(std::move(*restarted)),
            SerializeState(CaptureState(reference)));
}

TEST_F(ReplicaTest, StaleDuplicateGapAndMismatchedSealFrames) {
  const auto frames = RecordLeaderRun(FreshDir("frames_leader"));
  // Index of the first seal so the replica below sits mid-generation-1.
  size_t first_seal = frames.size();
  for (size_t i = 0; i < frames.size(); ++i) {
    if (frames[i].type == repl::FrameType::kSeal) {
      first_seal = i;
      break;
    }
  }
  ASSERT_GT(first_seal, 2u);
  ASSERT_LT(first_seal, frames.size());

  auto replica = OpenReplica(FreshDir("frames_follower"));
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();
  // A record before any snapshot is an un-bridgeable gap.
  EXPECT_EQ((*replica)->Apply(frames[1]).code(),
            StatusCode::kFailedPrecondition);
  for (size_t i = 0; i < first_seal; ++i) {
    ASSERT_TRUE((*replica)->Apply(frames[i]).ok());
  }

  // Duplicate of the newest applied record: idempotent skip.
  EXPECT_TRUE((*replica)->Apply(frames[first_seal - 1]).ok());
  // Stale generation (the long-gone base snapshot): skipped, not applied.
  EXPECT_TRUE((*replica)->Apply(frames[0]).ok());
  // A gap within the generation: refused so the connection resyncs.
  repl::ReplFrame gap = frames[first_seal - 1];
  gap.sequence += 2;
  EXPECT_EQ((*replica)->Apply(gap).code(), StatusCode::kFailedPrecondition);
  // A future generation's record: refused the same way.
  repl::ReplFrame future = frames[first_seal - 1];
  future.generation += 3;
  EXPECT_EQ((*replica)->Apply(future).code(),
            StatusCode::kFailedPrecondition);
  // A seal that does not match the watermark: refused.
  repl::ReplFrame bad_seal = frames[first_seal];
  bad_seal.sequence += 1;
  EXPECT_EQ((*replica)->Apply(bad_seal).code(),
            StatusCode::kFailedPrecondition);

  const repl::ReplicaStats stats = (*replica)->stats();
  EXPECT_GE(stats.records_skipped, 1u);
  EXPECT_GE(stats.stale_frames, 1u);
  EXPECT_GE(stats.record_gaps, 2u);

  // The stream still continues cleanly from the real seal.
  for (size_t i = first_seal; i < frames.size(); ++i) {
    ASSERT_TRUE((*replica)->Apply(frames[i]).ok());
  }
  EXPECT_EQ(PromotedFingerprint(std::move(*replica)),
            ReferenceFingerprint());
}

}  // namespace
}  // namespace nidc
