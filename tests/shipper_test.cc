#include "nidc/repl/shipper.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nidc/core/state_io.h"
#include "nidc/repl/replica.h"
#include "nidc/store/torture.h"
#include "temp_path.h"

namespace nidc {
namespace {

std::string FreshDir(const std::string& name) {
  Env* env = Env::Default();
  const std::string dir = TestTempPath("nidc_shipper_test_" + name);
  env->CreateDir(dir);
  if (auto names = env->ListDir(dir); names.ok()) {
    for (const std::string& entry : *names) {
      env->RemoveFile(dir + "/" + entry);
    }
  }
  return dir;
}

// Records every shipped frame; never fails.
class CollectLink : public repl::FollowerLink {
 public:
  Status Send(const repl::ReplFrame& frame) override {
    frames.push_back(frame);
    return Status::OK();
  }
  size_t Count(repl::FrameType type) const {
    size_t n = 0;
    for (const auto& frame : frames) {
      if (frame.type == type) ++n;
    }
    return n;
  }
  std::vector<repl::ReplFrame> frames;
};

// Applies every shipped frame to a replica inline (the torture harness's
// LocalLink); an Apply refusal fails the link like a dropped connection.
class ApplyLink : public repl::FollowerLink {
 public:
  explicit ApplyLink(repl::ReplicaClusterer* replica) : replica_(replica) {}
  Status Send(const repl::ReplFrame& frame) override {
    return replica_->Apply(frame);
  }

 private:
  repl::ReplicaClusterer* replica_;
};

repl::ReplFrame FreshHello() {
  repl::ReplFrame hello;
  hello.type = repl::FrameType::kHello;
  return hello;
}

class ShipperTest : public ::testing::Test {
 protected:
  void BuildStream(uint64_t seed = 7) {
    TortureOptions shape;
    shape.num_steps = 24;
    shape.seed = seed;
    stream_ = BuildTortureStream(shape);
    params_ = shape.params;
    incremental_.kmeans.k = 4;
  }

  Result<std::unique_ptr<DurableClusterer>> OpenLeader(
      const std::string& dir, repl::WalShipper* shipper,
      uint64_t checkpoint_every = 6) {
    DurableOptions durable;
    durable.dir = dir;
    durable.checkpoint_every = checkpoint_every;
    durable.sink = shipper;
    return DurableClusterer::Open(stream_.corpus.get(), params_,
                                  incremental_, durable);
  }

  void Feed(DurableClusterer* leader, size_t from, size_t to) {
    for (size_t i = from; i < to; ++i) {
      auto result = leader->Step(stream_.batches[i], stream_.taus[i]);
      if (!result.ok()) {
        ASSERT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
      }
    }
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

  TortureStream stream_;
  ForgettingParams params_;
  IncrementalOptions incremental_;
};

TEST_F(ShipperTest, FreshFollowerIsRebasedThenStreamsLive) {
  BuildStream();
  repl::ShipperOptions options;
  options.dir = FreshDir("fresh");
  repl::WalShipper shipper(options);
  auto leader = OpenLeader(options.dir, &shipper);
  ASSERT_TRUE(leader.ok()) << leader.status().ToString();

  CollectLink link;
  shipper.AddFollower(&link, FreshHello());
  ASSERT_FALSE(link.frames.empty());
  EXPECT_EQ(link.frames.front().type, repl::FrameType::kSnapshot);
  EXPECT_FALSE(link.frames.front().payload.empty());

  Feed(leader->get(), 0, stream_.batches.size());
  ASSERT_TRUE((*leader)->Close().ok());

  EXPECT_GT(link.Count(repl::FrameType::kWalRecord), 10u);
  EXPECT_GT(link.Count(repl::FrameType::kSeal), 2u);
  // Records are contiguous within each generation, restarting at 1 after
  // every seal.
  uint64_t expected_seq = 1;
  for (const auto& frame : link.frames) {
    if (frame.type == repl::FrameType::kWalRecord) {
      EXPECT_EQ(frame.sequence, expected_seq);
      ++expected_seq;
    } else if (frame.type == repl::FrameType::kSeal) {
      EXPECT_EQ(frame.sequence, expected_seq - 1);
      expected_seq = 1;
    }
  }
  const repl::ShipperStats stats = shipper.stats();
  EXPECT_EQ(stats.ship_errors, 0u);
  EXPECT_EQ(stats.records_shipped, link.Count(repl::FrameType::kWalRecord));
}

TEST_F(ShipperTest, ReconnectWithinTheQueueResumesWithoutSnapshot) {
  BuildStream();
  repl::ShipperOptions options;
  options.dir = FreshDir("reconnect");
  repl::WalShipper shipper(options);
  auto leader = OpenLeader(options.dir, &shipper, /*checkpoint_every=*/50);
  ASSERT_TRUE(leader.ok()) << leader.status().ToString();

  CollectLink first;
  const uint64_t first_id = shipper.AddFollower(&first, FreshHello());
  Feed(leader->get(), 0, 6);
  // Remember the watermark of the live follower, then drop it.
  repl::ReplFrame hello = FreshHello();
  for (const auto& frame : first.frames) {
    if (frame.type == repl::FrameType::kWalRecord ||
        frame.type == repl::FrameType::kSeal) {
      hello.generation = frame.generation;
      hello.sequence =
          frame.type == repl::FrameType::kSeal ? 0 : frame.sequence;
      if (frame.type == repl::FrameType::kSeal) ++hello.generation;
      hello.leader_steps = frame.leader_steps;
    }
  }
  shipper.RemoveFollower(first_id);

  // Advance a few records (well inside the queue bound), then reconnect
  // at the remembered watermark: the gap must be bridged from the queue —
  // no snapshot re-ship.
  Feed(leader->get(), 6, 10);
  CollectLink second;
  shipper.AddFollower(&second, hello);
  EXPECT_EQ(second.Count(repl::FrameType::kSnapshot), 0u);
  EXPECT_GT(second.Count(repl::FrameType::kWalRecord), 0u);
  ASSERT_TRUE((*leader)->Close().ok());
}

TEST_F(ShipperTest, OverflowedQueueParksTheFollowerUntilRotation) {
  BuildStream();
  repl::ShipperOptions options;
  options.dir = FreshDir("overflow");
  options.max_queue_records = 2;
  repl::WalShipper shipper(options);
  // A long cadence so the current generation accumulates far more records
  // than the queue retains.
  auto leader = OpenLeader(options.dir, &shipper, /*checkpoint_every=*/8);
  ASSERT_TRUE(leader.ok()) << leader.status().ToString();
  Feed(leader->get(), 0, 6);
  ASSERT_GT(shipper.stats().queue_dropped_records, 0u);

  // A fresh follower is re-based onto the cached base snapshot (sequence
  // 0), but the queue no longer reaches back far enough to bridge the
  // records since then — it parks after that single frame.
  CollectLink link;
  const uint64_t id = shipper.AddFollower(&link, FreshHello());
  EXPECT_TRUE(shipper.FollowerAlive(id));
  ASSERT_EQ(link.frames.size(), 1u);
  EXPECT_EQ(link.frames.front().type, repl::FrameType::kSnapshot);
  EXPECT_EQ(shipper.stats().parked, 1u);

  // The next rotation produces a fresh snapshot; the parked follower is
  // re-based onto it and joins the live stream.
  Feed(leader->get(), 6, stream_.batches.size());
  ASSERT_TRUE((*leader)->Close().ok());
  EXPECT_EQ(shipper.stats().parked, 0u);
  EXPECT_EQ(shipper.stats().in_sync, 1u);
  ASSERT_GT(link.frames.size(), 0u);
  EXPECT_EQ(link.frames.front().type, repl::FrameType::kSnapshot);
  EXPECT_GT(link.Count(repl::FrameType::kWalRecord), 0u);
}

TEST_F(ShipperTest, StaleGenerationFollowerCatchesUpFromSealedSegments) {
  BuildStream();
  repl::ShipperOptions options;
  options.dir = FreshDir("sealed");
  repl::WalShipper shipper(options);
  auto leader = OpenLeader(options.dir, &shipper, /*checkpoint_every=*/4);
  ASSERT_TRUE(leader.ok()) << leader.status().ToString();

  // Follow live long enough to sit mid-generation, then disconnect.
  CollectLink first;
  const uint64_t first_id = shipper.AddFollower(&first, FreshHello());
  Feed(leader->get(), 0, 6);
  repl::ReplFrame hello = FreshHello();
  for (const auto& frame : first.frames) {
    if (frame.type == repl::FrameType::kWalRecord ||
        frame.type == repl::FrameType::kSeal) {
      hello.generation = frame.generation;
      hello.sequence =
          frame.type == repl::FrameType::kSeal ? 0 : frame.sequence;
      if (frame.type == repl::FrameType::kSeal) ++hello.generation;
      hello.leader_steps = frame.leader_steps;
    }
  }
  shipper.RemoveFollower(first_id);

  // One rotation passes (still within keep_generations), so the gap spans
  // a *sealed* generation: catch-up must replay the sealed segment from
  // disk and seal it — without re-shipping a snapshot.
  Feed(leader->get(), 6, 9);
  CollectLink second;
  shipper.AddFollower(&second, hello);
  EXPECT_EQ(second.Count(repl::FrameType::kSnapshot), 0u);
  EXPECT_GT(second.Count(repl::FrameType::kSeal), 0u);
  EXPECT_GT(second.Count(repl::FrameType::kWalRecord), 0u);
  EXPECT_EQ(shipper.stats().in_sync, 1u);
  ASSERT_TRUE((*leader)->Close().ok());
}

// The replicated analogue of the store/ recovery-equivalence property:
// across stream seeds and checkpoint cadences, a follower fed through the
// shipper and then promoted is bit-identical to an uninterrupted
// single-node run of the same stream.
TEST_F(ShipperTest, PromotedFollowerMatchesReferenceAcrossSeedsAndCadences) {
  const uint64_t kSeeds[] = {3, 11};
  const uint64_t kCadences[] = {3, 7};
  for (uint64_t seed : kSeeds) {
    for (uint64_t cadence : kCadences) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " cadence " +
                   std::to_string(cadence));
      BuildStream(seed);
      repl::ShipperOptions options;
      options.dir = FreshDir("prop_leader");
      repl::WalShipper shipper(options);

      repl::ReplicaOptions replica_options;
      replica_options.dir = FreshDir("prop_follower");
      auto replica = repl::ReplicaClusterer::Open(
          stream_.corpus.get(), params_, incremental_, replica_options);
      ASSERT_TRUE(replica.ok()) << replica.status().ToString();
      ApplyLink link(replica->get());
      shipper.AddFollower(&link, (*replica)->HelloFrame());

      // A second follower detaches one step before the end. That step
      // count is a multiple of neither cadence, so it is left holding
      // records of an open generation.
      const size_t steps = stream_.batches.size();
      replica_options.dir = FreshDir("prop_tail_follower");
      auto tail = repl::ReplicaClusterer::Open(
          stream_.corpus.get(), params_, incremental_, replica_options);
      ASSERT_TRUE(tail.ok()) << tail.status().ToString();
      ApplyLink tail_link(tail->get());
      const uint64_t tail_id =
          shipper.AddFollower(&tail_link, (*tail)->HelloFrame());

      auto leader = OpenLeader(options.dir, &shipper, cadence);
      ASSERT_TRUE(leader.ok()) << leader.status().ToString();
      Feed(leader->get(), 0, steps - 1);
      shipper.RemoveFollower(tail_id);
      Feed(leader->get(), steps - 1, steps);
      ASSERT_TRUE((*leader)->Close().ok());
      EXPECT_EQ(shipper.stats().ship_errors, 0u);
      EXPECT_EQ((*replica)->stats().lag_records, 0u);

      DurableOptions durable;
      durable.checkpoint_every = cadence;
      auto promoted = (*replica)->Promote(durable);
      ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
      EXPECT_EQ(SerializeState(CaptureState((*promoted)->clusterer())),
                ReferenceFingerprint());
      ASSERT_TRUE((*promoted)->Close().ok());

      // Promoting the detached follower installs the outcomes it logged
      // for its open generation instead of re-running K-means, and the
      // new leader finishes the stream bit-identically.
      auto tail_promoted = (*tail)->Promote(durable);
      ASSERT_TRUE(tail_promoted.ok()) << tail_promoted.status().ToString();
      const RecoveryInfo& recovery = (*tail_promoted)->recovery();
      EXPECT_GT(recovery.replayed_records, 0u);
      EXPECT_EQ(recovery.installed_records, recovery.replayed_records);
      Feed(tail_promoted->get(), (*tail_promoted)->applied_steps(), steps);
      EXPECT_EQ(SerializeState(CaptureState((*tail_promoted)->clusterer())),
                ReferenceFingerprint());
      ASSERT_TRUE((*tail_promoted)->Close().ok());
    }
  }
}

}  // namespace
}  // namespace nidc
