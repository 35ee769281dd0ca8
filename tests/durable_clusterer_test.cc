#include "nidc/store/durable_clusterer.h"

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nidc/core/state_io.h"
#include "nidc/obs/metrics.h"
#include "nidc/store/torture.h"
#include "nidc/util/fault_env.h"

namespace nidc {
namespace {

std::string FreshDir(const std::string& name) {
  Env* env = Env::Default();
  const std::string dir = testing::TempDir() + "/nidc_durable_test_" + name;
  env->CreateDir(dir);
  if (auto names = env->ListDir(dir); names.ok()) {
    for (const std::string& entry : *names) {
      env->RemoveFile(dir + "/" + entry);
    }
  }
  return dir;
}

std::string Fingerprint(const IncrementalClusterer& clusterer) {
  return SerializeState(CaptureState(clusterer));
}

// Every file of a flat checkpoint directory, by name.
using DirImage = std::map<std::string, std::string>;

DirImage ReadImage(const std::string& dir) {
  Env* env = Env::Default();
  DirImage image;
  if (auto names = env->ListDir(dir); names.ok()) {
    for (const std::string& name : *names) {
      image[name] = env->ReadFileToString(dir + "/" + name).value();
    }
  }
  return image;
}

void WriteImage(const std::string& dir, const DirImage& image) {
  Env* env = Env::Default();
  if (auto names = env->ListDir(dir); names.ok()) {
    for (const std::string& name : *names) env->RemoveFile(dir + "/" + name);
  }
  for (const auto& [name, contents] : image) {
    ASSERT_TRUE(AtomicWriteFile(env, dir + "/" + name, contents).ok());
  }
}

class DurableClustererTest : public ::testing::Test {
 protected:
  DurableClustererTest() {
    TortureOptions shape;
    shape.num_steps = 24;
    stream_ = BuildTortureStream(shape);
    params_ = shape.params;
    incremental_.kmeans.k = 4;
  }

  DurableOptions Options(const std::string& dir,
                         uint64_t checkpoint_every = 5) const {
    DurableOptions durable;
    durable.dir = dir;
    durable.checkpoint_every = checkpoint_every;
    return durable;
  }

  // Runs steps [from, to) on `durable`, tolerating empty-window
  // FailedPrecondition like the streaming loop does.
  void Feed(DurableClusterer* durable, size_t from, size_t to) {
    for (size_t i = from; i < to; ++i) {
      Result<StepResult> result =
          durable->Step(stream_.batches[i], stream_.taus[i]);
      if (!result.ok()) {
        ASSERT_EQ(result.status().code(), StatusCode::kFailedPrecondition)
            << result.status().ToString();
      }
    }
  }

  // Feeds steps [0, steps) through a store on `durable` that is then
  // killed: no final rotation, and everything it wrote survives.
  void FeedAndKill(DurableOptions durable, size_t steps) {
    FaultInjectionEnv fault_env(Env::Default());
    durable.env = &fault_env;
    auto store = DurableClusterer::Open(stream_.corpus.get(), params_,
                                        incremental_, durable);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    Feed(store->get(), 0, steps);
    fault_env.ArmCrashAtOp(1, CrashFlush::kKeepUnsynced);
  }

  // The uninterrupted-run fingerprint after all batches.
  std::string ReferenceFingerprint() {
    IncrementalClusterer reference(stream_.corpus.get(), params_,
                                   incremental_);
    for (size_t i = 0; i < stream_.batches.size(); ++i) {
      auto result = reference.Step(stream_.batches[i], stream_.taus[i]);
      if (!result.ok()) {
        EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
      }
    }
    return Fingerprint(reference);
  }

  TortureStream stream_;
  ForgettingParams params_;
  IncrementalOptions incremental_;
};

TEST_F(DurableClustererTest, OpenRejectsBadOptions) {
  EXPECT_FALSE(DurableClusterer::Open(stream_.corpus.get(), params_,
                                      incremental_, DurableOptions{})
                   .ok());
  DurableOptions no_keep = Options(FreshDir("bad_options"));
  no_keep.keep_generations = 0;
  EXPECT_FALSE(DurableClusterer::Open(stream_.corpus.get(), params_,
                                      incremental_, no_keep)
                   .ok());
}

TEST_F(DurableClustererTest, FreshOpenStartsEmptyAndReopenResumesIt) {
  Env* env = Env::Default();
  const std::string dir = FreshDir("fresh");
  {
    FaultInjectionEnv fault_env(env);
    DurableOptions options = Options(dir);
    options.env = &fault_env;
    auto durable = DurableClusterer::Open(stream_.corpus.get(), params_,
                                          incremental_, options);
    ASSERT_TRUE(durable.ok());
    EXPECT_FALSE((*durable)->recovery().resumed);
    EXPECT_EQ((*durable)->applied_steps(), 0u);
    EXPECT_EQ((*durable)->generation(), 1u);
    EXPECT_EQ((*durable)->recovery().new_generation, 1u);
    // Generation 1's base is the empty state: Open writes its WAL only.
    EXPECT_EQ(env->ListDir(dir).value(),
              std::vector<std::string>{WalFileName(1)});
    Feed(durable->get(), 0, 2);
    // The outcome log is created by a generation's first step, not by
    // Open; still no snapshot or manifest before the first checkpoint.
    EXPECT_TRUE(env->FileExists(dir + "/" + OutcomeFileName(1)));
    EXPECT_FALSE(env->FileExists(dir + "/MANIFEST"));
    EXPECT_FALSE(env->FileExists(dir + "/" + SnapshotFileName(1)));
    // Simulated kill: no final rotation, so generation 1 is all there is.
    fault_env.ArmCrashAtOp(1, CrashFlush::kKeepUnsynced);
  }
  auto reopened = DurableClusterer::Open(stream_.corpus.get(), params_,
                                         incremental_, Options(dir));
  ASSERT_TRUE(reopened.ok());
  const RecoveryInfo& info = (*reopened)->recovery();
  EXPECT_TRUE(info.resumed);
  EXPECT_EQ(info.source_generation, 1u);
  EXPECT_EQ(info.replayed_records, 2u);
  EXPECT_EQ(info.snapshot_fallbacks, 0u);
  EXPECT_EQ((*reopened)->applied_steps(), 2u);
  // The reopen resumes generation 1 and writes no checkpoint of its own.
  EXPECT_EQ((*reopened)->generation(), 1u);
  EXPECT_EQ(info.new_generation, 1u);
  EXPECT_EQ((*reopened)->wal_records_since_checkpoint(), 2u);
  EXPECT_FALSE(env->FileExists(dir + "/MANIFEST"));
  EXPECT_FALSE(env->FileExists(dir + "/" + SnapshotFileName(1)));
  EXPECT_FALSE(env->FileExists(dir + "/" + SnapshotFileName(2)));
  // Close's checkpoint writes the usual snapshot + manifest pair.
  ASSERT_TRUE((*reopened)->Close().ok());
  EXPECT_TRUE(env->FileExists(dir + "/MANIFEST"));
  EXPECT_TRUE(env->FileExists(dir + "/" + SnapshotFileName(2)));
  EXPECT_FALSE(env->FileExists(dir + "/" + SnapshotFileName(1)));
}

TEST_F(DurableClustererTest, StopAndReopenContinuesBitIdentically) {
  // Property: snapshot at step i + WAL replay of i+1..n reproduces the
  // uninterrupted run's final state bit-for-bit, for every split point.
  // checkpoint_every=5 with 24 steps means most split points land
  // mid-generation, so recovery genuinely replays a WAL tail (the
  // injected kill below stops the destructor from snapshotting).
  const std::string want = ReferenceFingerprint();
  for (size_t split = 0; split <= stream_.batches.size(); split += 3) {
    const std::string dir =
        FreshDir("split_" + std::to_string(split));
    {
      FaultInjectionEnv fault_env(Env::Default());
      DurableOptions options = Options(dir);
      options.env = &fault_env;
      auto first = DurableClusterer::Open(stream_.corpus.get(), params_,
                                          incremental_, options);
      ASSERT_TRUE(first.ok());
      Feed(first->get(), 0, split);
      // Simulated kill: the destructor's final rotation fails, so
      // whatever the WAL holds since the last periodic checkpoint is the
      // only record of the tail. Under kEveryRecord nothing is lost.
      fault_env.ArmCrashAtOp(1, CrashFlush::kKeepUnsynced);
    }
    auto second = DurableClusterer::Open(stream_.corpus.get(), params_,
                                         incremental_, Options(dir));
    ASSERT_TRUE(second.ok());
    EXPECT_EQ((*second)->applied_steps(), split) << "split " << split;
    if (split > 0) {
      EXPECT_TRUE((*second)->recovery().resumed);
    }
    Feed(second->get(), (*second)->applied_steps(), stream_.batches.size());
    EXPECT_EQ(Fingerprint((*second)->clusterer()), want)
        << "split " << split;
    ASSERT_TRUE((*second)->Close().ok());
  }
}

TEST_F(DurableClustererTest, CorruptWalTailIsQuarantinedNotFatal) {
  Env* env = Env::Default();
  const std::string dir = FreshDir("wal_tail");
  {
    FaultInjectionEnv fault_env(env);
    DurableOptions options = Options(dir, /*checkpoint_every=*/100);
    options.env = &fault_env;
    auto durable = DurableClusterer::Open(stream_.corpus.get(), params_,
                                          incremental_, options);
    ASSERT_TRUE(durable.ok());
    Feed(durable->get(), 0, 7);
    // Simulated kill: no final rotation, so generation 1's WAL holds all
    // 7 records and is the only carrier of the stream's tail.
    fault_env.ArmCrashAtOp(1, CrashFlush::kKeepUnsynced);
  }
  // Flip a byte in the middle of the newest WAL: records before the
  // damage replay, the rest is quarantined.
  const std::string wal_path = dir + "/" + WalFileName(1);
  auto contents = env->ReadFileToString(wal_path);
  ASSERT_TRUE(contents.ok());
  std::string damaged = *contents;
  damaged[damaged.size() * 2 / 3] ^= 0x10;
  ASSERT_TRUE(AtomicWriteFile(env, wal_path, damaged).ok());

  obs::MetricsRegistry metrics;
  DurableOptions options = Options(dir);
  options.metrics = &metrics;
  auto recovered = DurableClusterer::Open(stream_.corpus.get(), params_,
                                          incremental_, options);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE((*recovered)->recovery().resumed);
  EXPECT_GT((*recovered)->recovery().replayed_records, 0u);
  EXPECT_LT((*recovered)->recovery().replayed_records, 7u);
  EXPECT_GT((*recovered)->recovery().dropped_wal_bytes, 0u);
  EXPECT_GT(
      metrics.GetCounter("store.recovery.dropped_wal_bytes")->Value(), 0u);
  // Resuming from the surviving prefix still converges on the reference.
  Feed(recovered->get(), (*recovered)->applied_steps(),
       stream_.batches.size());
  EXPECT_EQ(Fingerprint((*recovered)->clusterer()), ReferenceFingerprint());
  ASSERT_TRUE((*recovered)->Close().ok());
}

TEST_F(DurableClustererTest, CorruptSnapshotFallsBackToPreviousGeneration) {
  Env* env = Env::Default();
  const std::string dir = FreshDir("snapshot_fallback");
  {
    // keep_generations=3 so the previous generation survives pruning.
    DurableOptions options = Options(dir, /*checkpoint_every=*/5);
    options.keep_generations = 3;
    auto durable = DurableClusterer::Open(stream_.corpus.get(), params_,
                                          incremental_, options);
    ASSERT_TRUE(durable.ok());
    Feed(durable->get(), 0, 12);
    ASSERT_TRUE((*durable)->Close().ok());
  }
  auto generations = ListSnapshotGenerations(env, dir);
  ASSERT_TRUE(generations.ok());
  ASSERT_GE(generations->size(), 2u);
  const uint64_t newest = (*generations)[0];
  // Destroy the newest snapshot (the one the manifest points at).
  ASSERT_TRUE(AtomicWriteFile(env, dir + "/" + SnapshotFileName(newest),
                              "nidc-state v2\ngarbage")
                  .ok());

  auto recovered = DurableClusterer::Open(stream_.corpus.get(), params_,
                                          incremental_, Options(dir));
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE((*recovered)->recovery().resumed);
  EXPECT_GE((*recovered)->recovery().snapshot_fallbacks, 1u);
  EXPECT_LT((*recovered)->recovery().source_generation, newest);
  // The older generation's snapshot+WAL still reconstruct a usable state;
  // finishing the stream matches the reference exactly.
  Feed(recovered->get(), (*recovered)->applied_steps(),
       stream_.batches.size());
  EXPECT_EQ(Fingerprint((*recovered)->clusterer()), ReferenceFingerprint());
  ASSERT_TRUE((*recovered)->Close().ok());
}

TEST_F(DurableClustererTest, OversizedSnapshotCountFallsBackWithoutAborting) {
  // An unframed snapshot has no CRC: a damaged count reaches the parser,
  // which must refuse it rather than allocate it.
  const char* const damaged[] = {
      "nidc-state v2\nparams 7 30\nnow 1\nsteps 0\n"
      "active 99999999999999 1\n",
      "nidc-state v2\nparams 7 30\nnow 1\nsteps 0\nactive 0\n"
      "clusters -1\n"};
  Env* env = Env::Default();
  for (size_t i = 0; i < std::size(damaged); ++i) {
    const std::string dir = FreshDir("oversized_count" + std::to_string(i));
    {
      DurableOptions options = Options(dir, /*checkpoint_every=*/5);
      options.keep_generations = 3;
      auto durable = DurableClusterer::Open(stream_.corpus.get(), params_,
                                            incremental_, options);
      ASSERT_TRUE(durable.ok());
      Feed(durable->get(), 0, 12);
      ASSERT_TRUE((*durable)->Close().ok());
    }
    auto generations = ListSnapshotGenerations(env, dir);
    ASSERT_TRUE(generations.ok());
    ASSERT_GE(generations->size(), 2u);
    const uint64_t newest = (*generations)[0];
    ASSERT_TRUE(AtomicWriteFile(env, dir + "/" + SnapshotFileName(newest),
                                damaged[i])
                    .ok());

    obs::MetricsRegistry metrics;
    DurableOptions options = Options(dir);
    options.metrics = &metrics;
    auto recovered = DurableClusterer::Open(stream_.corpus.get(), params_,
                                            incremental_, options);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ((*recovered)->recovery().snapshot_fallbacks, 1u) << i;
    EXPECT_EQ(metrics.GetCounter("store.recovery.snapshot_fallbacks")->Value(),
              1u);
    EXPECT_LT((*recovered)->recovery().source_generation, newest);
    // The fallback generation's WAL holds steps to replay, and the
    // fallback rotates: every recovery phase took time.
    EXPECT_GT((*recovered)->recovery().replayed_records, 0u);
    for (const char* phase :
         {"store.recovery.load_seconds", "store.recovery.replay_seconds",
          "store.recovery.sync_seconds"}) {
      EXPECT_GT(metrics.GetGauge(phase)->Value(), 0.0) << phase;
    }
    Feed(recovered->get(), (*recovered)->applied_steps(),
         stream_.batches.size());
    EXPECT_EQ(Fingerprint((*recovered)->clusterer()), ReferenceFingerprint());
    ASSERT_TRUE((*recovered)->Close().ok());
  }
}

TEST_F(DurableClustererTest, CorruptSecondSnapshotFallsBackToImplicitFirst) {
  // Generation 1 has no snapshot, yet while its WAL exists it is the
  // fallback behind a damaged generation 2, exactly as deep as a stored
  // snapshot-000001 would be.
  Env* env = Env::Default();
  const std::string dir = FreshDir("implicit_fallback");
  {
    FaultInjectionEnv fault_env(env);
    DurableOptions options = Options(dir, /*checkpoint_every=*/5);
    options.env = &fault_env;
    auto durable = DurableClusterer::Open(stream_.corpus.get(), params_,
                                          incremental_, options);
    ASSERT_TRUE(durable.ok());
    Feed(durable->get(), 0, 7);
    ASSERT_EQ((*durable)->generation(), 2u);
    // Simulated kill: generation 2's WAL holds steps 5-6.
    fault_env.ArmCrashAtOp(1, CrashFlush::kKeepUnsynced);
  }
  ASSERT_TRUE(env->FileExists(dir + "/" + WalFileName(1)));
  ASSERT_FALSE(env->FileExists(dir + "/" + SnapshotFileName(1)));
  ASSERT_TRUE(AtomicWriteFile(env, dir + "/" + SnapshotFileName(2),
                              "nidc-state v2\ngarbage")
                  .ok());

  auto recovered = DurableClusterer::Open(stream_.corpus.get(), params_,
                                          incremental_, Options(dir));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const RecoveryInfo& info = (*recovered)->recovery();
  EXPECT_TRUE(info.resumed);
  EXPECT_EQ(info.snapshot_fallbacks, 1u);
  EXPECT_EQ(info.source_generation, 1u);
  EXPECT_EQ(info.replayed_records, 5u);
  EXPECT_EQ((*recovered)->applied_steps(), 5u);
  EXPECT_EQ((*recovered)->generation(), 3u);
  Feed(recovered->get(), (*recovered)->applied_steps(),
       stream_.batches.size());
  EXPECT_EQ(Fingerprint((*recovered)->clusterer()), ReferenceFingerprint());
  ASSERT_TRUE((*recovered)->Close().ok());
}

TEST_F(DurableClustererTest, FallbackFromCorruptNewestSnapshotRotates) {
  // Generation 3 holds steps 10-11 in its WAL; its snapshot is destroyed,
  // so recovery falls back to generation 2 and must not grow its WAL.
  Env* env = Env::Default();
  const std::string dir = FreshDir("fallback_rotates");
  DurableOptions options = Options(dir, /*checkpoint_every=*/5);
  options.keep_generations = 3;
  FeedAndKill(options, 12);
  ASSERT_TRUE(AtomicWriteFile(env, dir + "/" + SnapshotFileName(3),
                              "nidc-state v2\ngarbage")
                  .ok());
  const std::string older_wal =
      env->ReadFileToString(dir + "/" + WalFileName(2)).value();

  auto recovered = DurableClusterer::Open(stream_.corpus.get(), params_,
                                          incremental_, options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const RecoveryInfo& info = (*recovered)->recovery();
  EXPECT_EQ(info.snapshot_fallbacks, 1u);
  EXPECT_EQ(info.source_generation, 2u);
  EXPECT_EQ(info.replayed_records, 5u);
  // newest_seen + 1, as a checkpoint at open has always numbered it.
  EXPECT_EQ((*recovered)->generation(), 4u);
  EXPECT_EQ(info.new_generation, 4u);
  EXPECT_TRUE(env->FileExists(dir + "/" + SnapshotFileName(4)));
  EXPECT_EQ(env->ReadFileToString(dir + "/" + WalFileName(2)).value(),
            older_wal);
  Feed(recovered->get(), (*recovered)->applied_steps(),
       stream_.batches.size());
  EXPECT_EQ(Fingerprint((*recovered)->clusterer()), ReferenceFingerprint());
  ASSERT_TRUE((*recovered)->Close().ok());
}

TEST_F(DurableClustererTest, NewerSnapshotThanTheManifestRotates) {
  // A rotation that wrote snapshot-000003 but died before its manifest
  // flip: recovery resumes generation 2 without a fallback, yet a newer
  // generation is on disk, so Open checkpoints past it.
  Env* env = Env::Default();
  const std::string dir = FreshDir("newer_on_disk");
  FeedAndKill(Options(dir, /*checkpoint_every=*/5), 7);
  ASSERT_TRUE(AtomicWriteFile(
                  env, dir + "/" + SnapshotFileName(3),
                  env->ReadFileToString(dir + "/" + SnapshotFileName(2))
                      .value())
                  .ok());
  const std::string older_wal =
      env->ReadFileToString(dir + "/" + WalFileName(2)).value();

  auto recovered = DurableClusterer::Open(stream_.corpus.get(), params_,
                                          incremental_, Options(dir));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const RecoveryInfo& info = (*recovered)->recovery();
  EXPECT_EQ(info.snapshot_fallbacks, 0u);
  EXPECT_EQ(info.source_generation, 2u);
  EXPECT_EQ(info.replayed_records, 2u);
  EXPECT_EQ((*recovered)->generation(), 3u);
  EXPECT_EQ(ReadManifest(env, dir).value().generation, 3u);
  EXPECT_EQ(env->ReadFileToString(dir + "/" + WalFileName(2)).value(),
            older_wal);
  Feed(recovered->get(), (*recovered)->applied_steps(),
       stream_.batches.size());
  EXPECT_EQ(Fingerprint((*recovered)->clusterer()), ReferenceFingerprint());
  ASSERT_TRUE((*recovered)->Close().ok());
}

TEST_F(DurableClustererTest, FallbackOntoTheNewestGenerationRotates) {
  // The manifest's generation 2 is corrupt and a snapshot-000003 whose
  // manifest flip never happened is the newest on disk: recovery falls
  // back onto it, and a fallback still checkpoints at open.
  Env* env = Env::Default();
  const std::string dir = FreshDir("fallback_onto_newest");
  FeedAndKill(Options(dir, /*checkpoint_every=*/5), 7);
  ASSERT_TRUE(AtomicWriteFile(
                  env, dir + "/" + SnapshotFileName(3),
                  env->ReadFileToString(dir + "/" + SnapshotFileName(2))
                      .value())
                  .ok());
  ASSERT_TRUE(AtomicWriteFile(env, dir + "/" + SnapshotFileName(2),
                              "nidc-state v2\ngarbage")
                  .ok());

  auto recovered = DurableClusterer::Open(stream_.corpus.get(), params_,
                                          incremental_, Options(dir));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const RecoveryInfo& info = (*recovered)->recovery();
  EXPECT_EQ(info.snapshot_fallbacks, 1u);
  EXPECT_EQ(info.source_generation, 3u);
  EXPECT_EQ((*recovered)->generation(), 4u);
  EXPECT_EQ(ReadManifest(env, dir).value().generation, 4u);
  Feed(recovered->get(), (*recovered)->applied_steps(),
       stream_.batches.size());
  EXPECT_EQ(Fingerprint((*recovered)->clusterer()), ReferenceFingerprint());
  ASSERT_TRUE((*recovered)->Close().ok());
}

// Records the generations a store announces to its replication sink.
class RotationRecorder : public ReplicationSink {
 public:
  void OnWalRecord(uint64_t, uint64_t, uint64_t, std::string_view) override {}
  void OnRotate(uint64_t generation, uint64_t, uint64_t leader_steps,
                const std::string&) override {
    rotations.emplace_back(generation, leader_steps);
  }
  std::vector<std::pair<uint64_t, uint64_t>> rotations;
};

TEST_F(DurableClustererTest, OpenWithReplicationSinkRotates) {
  // The shipper's catch-up base is the snapshot Open's rotation hands it,
  // so a store with a sink checkpoints at open even mid-generation.
  Env* env = Env::Default();
  const std::string dir = FreshDir("sink_rotates");
  FeedAndKill(Options(dir, /*checkpoint_every=*/5), 7);
  RotationRecorder sink;
  DurableOptions options = Options(dir);
  options.sink = &sink;
  auto recovered = DurableClusterer::Open(stream_.corpus.get(), params_,
                                          incremental_, options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const RecoveryInfo& info = (*recovered)->recovery();
  EXPECT_EQ(info.snapshot_fallbacks, 0u);
  EXPECT_EQ(info.source_generation, 2u);
  EXPECT_EQ(info.replayed_records, 2u);
  EXPECT_EQ((*recovered)->generation(), 3u);
  EXPECT_TRUE(env->FileExists(dir + "/" + SnapshotFileName(3)));
  ASSERT_EQ(sink.rotations.size(), 1u);
  EXPECT_EQ(sink.rotations[0].first, 3u);
  EXPECT_EQ(sink.rotations[0].second, 7u);
  ASSERT_TRUE((*recovered)->Close().ok());
}

TEST_F(DurableClustererTest, EveryGenerationPrunedFallsBackToFreshStart) {
  Env* env = Env::Default();
  const std::string dir = FreshDir("all_corrupt");
  {
    auto durable = DurableClusterer::Open(stream_.corpus.get(), params_,
                                          incremental_, Options(dir));
    ASSERT_TRUE(durable.ok());
    Feed(durable->get(), 0, 8);
    ASSERT_TRUE((*durable)->Close().ok());
  }
  auto generations = ListSnapshotGenerations(env, dir);
  ASSERT_TRUE(generations.ok());
  for (uint64_t generation : *generations) {
    ASSERT_TRUE(AtomicWriteFile(env, dir + "/" + SnapshotFileName(generation),
                                "garbage")
                    .ok());
  }
  // Startup must degrade to an empty clusterer, not fail.
  auto recovered = DurableClusterer::Open(stream_.corpus.get(), params_,
                                          incremental_, Options(dir));
  ASSERT_TRUE(recovered.ok());
  EXPECT_FALSE((*recovered)->recovery().resumed);
  EXPECT_GE((*recovered)->recovery().snapshot_fallbacks, 1u);
  EXPECT_EQ((*recovered)->applied_steps(), 0u);
  ASSERT_TRUE((*recovered)->Close().ok());
}

TEST_F(DurableClustererTest, SnapshotClusterNamingInactiveDocFallsBack) {
  Env* env = Env::Default();
  const std::string dir = FreshDir("inactive_member");
  {
    DurableOptions options = Options(dir, /*checkpoint_every=*/5);
    options.keep_generations = 3;
    auto durable = DurableClusterer::Open(stream_.corpus.get(), params_,
                                          incremental_, options);
    ASSERT_TRUE(durable.ok());
    Feed(durable->get(), 0, 12);
    ASSERT_TRUE((*durable)->Close().ok());
  }
  auto generations = ListSnapshotGenerations(env, dir);
  ASSERT_TRUE(generations.ok());
  ASSERT_GE(generations->size(), 2u);
  const uint64_t newest = (*generations)[0];
  const std::string path = dir + "/" + SnapshotFileName(newest);
  Result<ClustererState> state = LoadState(path);
  ASSERT_TRUE(state.ok());
  ASSERT_TRUE(state->last_result.has_value());
  // The stream's last document arrives in its last step.
  const DocId inactive = static_cast<DocId>(stream_.corpus->size() - 1);
  ASSERT_EQ(std::count(state->active_docs.begin(), state->active_docs.end(),
                       inactive),
            0);
  state->last_result->clusters[0].push_back(inactive);
  ASSERT_TRUE(SaveState(*state, path).ok());

  auto recovered = DurableClusterer::Open(stream_.corpus.get(), params_,
                                          incremental_, Options(dir));
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ((*recovered)->recovery().snapshot_fallbacks, 1u);
  EXPECT_LT((*recovered)->recovery().source_generation, newest);
  Feed(recovered->get(), (*recovered)->applied_steps(),
       stream_.batches.size());
  EXPECT_EQ(Fingerprint((*recovered)->clusterer()), ReferenceFingerprint());
  ASSERT_TRUE((*recovered)->Close().ok());
}

TEST_F(DurableClustererTest, RecoveryInstallsLoggedOutcomesOnlyWhenTheyFit) {
  // One crash image with a five-record WAL tail, recovered with its
  // outcome log intact, missing, damaged, foreign or forged. Every way
  // must recover the same state and continue the same; only the number
  // of installed outcomes differs.
  constexpr size_t kCrashAt = 13;  // steps 8..12 are generation 2's tail
  constexpr size_t kTail = 5;
  constexpr size_t kFollowing = 5;
  const std::string dir = FreshDir("outcomes");
  {
    FaultInjectionEnv fault_env(Env::Default());
    DurableOptions options = Options(dir, /*checkpoint_every=*/8);
    options.env = &fault_env;
    auto durable = DurableClusterer::Open(stream_.corpus.get(), params_,
                                          incremental_, options);
    ASSERT_TRUE(durable.ok());
    Feed(durable->get(), 0, kCrashAt);
    // Process kill: no final rotation; flushed bytes survive.
    fault_env.ArmCrashAtOp(1, CrashFlush::kKeepUnsynced);
  }
  const DirImage image = ReadImage(dir);
  const std::string log_name = OutcomeFileName(2);
  ASSERT_EQ(image.count(WalFileName(2)), 1u);
  ASSERT_EQ(image.count(log_name), 1u);
  ASSERT_EQ(image.count(OutcomeFileName(1)), 1u);
  const std::string& log = image.at(log_name);
  Result<WalReadResult> records = ReadWal(Env::Default(), dir + "/" + log_name);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->records.size(), kTail);

  // The uninterrupted run: its state at the crash and its next steps.
  IncrementalClusterer reference(stream_.corpus.get(), params_, incremental_);
  std::vector<StepResult> want;
  std::string want_at_crash;
  for (size_t i = 0; i < kCrashAt + kFollowing; ++i) {
    if (i == kCrashAt) want_at_crash = Fingerprint(reference);
    auto result = reference.Step(stream_.batches[i], stream_.taus[i]);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    want.push_back(std::move(result).value());
  }

  // Byte offset of the end of the first `n` records.
  const auto frame_end = [&](size_t n) {
    size_t offset = 8;  // file magic
    for (size_t r = 0; r < n; ++r) offset += 8 + records->records[r].size();
    return offset;
  };
  // The tail's genuine outcomes, re-keyed or re-shaped by `edit`.
  const auto forged = [&](auto edit) {
    std::vector<std::string> payloads;
    for (size_t step = kCrashAt - kTail; step < kCrashAt; ++step) {
      DayTime tau = stream_.taus[step];
      std::vector<DocId> docs = stream_.batches[step];
      ClusteringResult clustering = want[step].clustering;
      edit(step, &tau, &docs, &clustering);
      payloads.push_back(EncodeStepOutcome(step, tau, docs, clustering));
    }
    EXPECT_TRUE(RewriteWal(Env::Default(), dir + "/" + log_name, payloads)
                    .ok());
  };

  struct Case {
    const char* name;
    std::function<void()> damage;
    uint64_t installed;
  };
  const std::vector<Case> cases = {
      {"intact", [] {}, kTail},
      {"deleted",
       [&] { Env::Default()->RemoveFile(dir + "/" + log_name); }, 0},
      {"truncated mid-record",
       [&] {
         const size_t cut = (frame_end(2) + frame_end(3)) / 2;
         ASSERT_TRUE(AtomicWriteFile(Env::Default(), dir + "/" + log_name,
                                     log.substr(0, cut))
                         .ok());
       },
       2},
      {"byte flipped",
       [&] {
         std::string damaged = log;
         damaged[(frame_end(3) + frame_end(4)) / 2] ^= 0x20;
         ASSERT_TRUE(
             AtomicWriteFile(Env::Default(), dir + "/" + log_name, damaged)
                 .ok());
       },
       3},
      {"from another generation",
       [&] {
         ASSERT_TRUE(AtomicWriteFile(Env::Default(), dir + "/" + log_name,
                                     image.at(OutcomeFileName(1)))
                         .ok());
       },
       0},
      {"other tau or doc set",
       [&] {
         forged([](size_t step, DayTime* tau, std::vector<DocId>* docs,
                   ClusteringResult*) {
           if (step % 2 == 0) {
             *tau += 0.25;
           } else {
             docs->pop_back();
           }
         });
       },
       0},
      {"not a partition of the active set",
       [&] {
         forged([](size_t, DayTime*, std::vector<DocId>*,
                   ClusteringResult* clustering) {
           clustering->outliers.push_back(clustering->clusters[0].back());
         });
       },
       0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    WriteImage(dir, image);
    c.damage();
    obs::MetricsRegistry metrics;
    DurableOptions options = Options(dir, /*checkpoint_every=*/8);
    options.metrics = &metrics;
    auto recovered = DurableClusterer::Open(stream_.corpus.get(), params_,
                                            incremental_, options);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    const RecoveryInfo& info = (*recovered)->recovery();
    EXPECT_EQ(info.replayed_records, kTail);
    EXPECT_EQ(info.installed_records, c.installed);
    EXPECT_EQ(metrics.GetCounter("store.recovery.installed_records")->Value(),
              c.installed);
    ASSERT_EQ((*recovered)->applied_steps(), kCrashAt);
    EXPECT_EQ(Fingerprint((*recovered)->clusterer()), want_at_crash);
    for (size_t i = kCrashAt; i < kCrashAt + kFollowing; ++i) {
      auto got = (*recovered)->Step(stream_.batches[i], stream_.taus[i]);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got->clustering.clusters, want[i].clustering.clusters) << i;
      EXPECT_EQ(got->clustering.outliers, want[i].clustering.outliers) << i;
      EXPECT_EQ(got->clustering.g, want[i].clustering.g) << i;
      EXPECT_EQ(got->iterations, want[i].iterations) << i;
    }
    ASSERT_TRUE((*recovered)->Close().ok());
  }
}

TEST_F(DurableClustererTest, RejectsInvalidStepsWithoutLoggingThem) {
  const std::string dir = FreshDir("validation");
  obs::MetricsRegistry metrics;
  DurableOptions options = Options(dir);
  options.metrics = &metrics;
  auto durable = DurableClusterer::Open(stream_.corpus.get(), params_,
                                        incremental_, options);
  ASSERT_TRUE(durable.ok());
  Feed(durable->get(), 0, 2);
  const uint64_t logged =
      metrics.GetCounter("store.wal_records")->Value();
  // Time travel and unknown ids are rejected before touching the WAL.
  EXPECT_EQ((*durable)->Step({}, stream_.taus[1] - 1.0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*durable)
                ->Step({static_cast<DocId>(stream_.corpus->size())},
                       stream_.taus[2])
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(metrics.GetCounter("store.wal_records")->Value(), logged);
  EXPECT_EQ((*durable)->applied_steps(), 2u);
  ASSERT_TRUE((*durable)->Close().ok());
}

TEST_F(DurableClustererTest, StepUnderASmallerKIsRefusedBeforeTheWal) {
  // A store reopened under a smaller k holds a clustering that cannot
  // seed: each step is refused before its WAL append and changes nothing.
  const std::string dir = FreshDir("smaller_k");
  {
    auto durable = DurableClusterer::Open(stream_.corpus.get(), params_,
                                          incremental_, Options(dir));
    ASSERT_TRUE(durable.ok());
    Feed(durable->get(), 0, 8);
    ASSERT_TRUE((*durable)->clusterer().last_result().has_value());
    ASSERT_GT((*durable)->clusterer().last_result()->clusters.size(), 2u);
    ASSERT_TRUE((*durable)->Close().ok());
  }
  IncrementalOptions smaller = incremental_;
  smaller.kmeans.k = 2;
  auto reopened = DurableClusterer::Open(stream_.corpus.get(), params_,
                                         smaller, Options(dir));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const uint64_t records = (*reopened)->wal_records_since_checkpoint();
  const uint64_t applied = (*reopened)->applied_steps();
  const std::string before = Fingerprint((*reopened)->clusterer());
  for (size_t i = 8; i < 11; ++i) {
    EXPECT_EQ((*reopened)->Step(stream_.batches[i], stream_.taus[i])
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_EQ((*reopened)->wal_records_since_checkpoint(), records);
  EXPECT_EQ((*reopened)->applied_steps(), applied);
  EXPECT_EQ(Fingerprint((*reopened)->clusterer()), before);
  ASSERT_TRUE((*reopened)->Close().ok());
}

TEST_F(DurableClustererTest, PrunesGenerationsBeyondRetention) {
  Env* env = Env::Default();
  const std::string dir = FreshDir("prune");
  DurableOptions options = Options(dir, /*checkpoint_every=*/2);
  options.keep_generations = 2;
  auto durable = DurableClusterer::Open(stream_.corpus.get(), params_,
                                        incremental_, options);
  ASSERT_TRUE(durable.ok());
  Feed(durable->get(), 0, 12);
  ASSERT_TRUE((*durable)->Close().ok());
  auto generations = ListSnapshotGenerations(env, dir);
  ASSERT_TRUE(generations.ok());
  EXPECT_LE(generations->size(), 2u);
}

TEST_F(DurableClustererTest, PruningRemovesOutcomeLogs) {
  Env* env = Env::Default();
  const std::string dir = FreshDir("prune_outcomes");
  DurableOptions options = Options(dir, /*checkpoint_every=*/2);
  options.keep_generations = 2;
  auto durable = DurableClusterer::Open(stream_.corpus.get(), params_,
                                        incremental_, options);
  ASSERT_TRUE(durable.ok());
  Feed(durable->get(), 0, 3);
  // Generation 1 took steps 0-1, generation 2 holds step 2 so far.
  EXPECT_TRUE(env->FileExists(dir + "/" + OutcomeFileName(1)));
  EXPECT_TRUE(env->FileExists(dir + "/" + OutcomeFileName(2)));
  Feed(durable->get(), 3, 12);
  const uint64_t current = (*durable)->generation();
  size_t logs = 0;
  const std::vector<std::string> names = env->ListDir(dir).value();
  for (const std::string& name : names) {
    if (name.rfind("outcome-", 0) != 0) continue;
    ++logs;
    const uint64_t generation = std::stoull(name.substr(8));
    EXPECT_GE(generation + options.keep_generations, current + 1) << name;
  }
  EXPECT_GE(logs, 1u);
  EXPECT_FALSE(env->FileExists(dir + "/" + OutcomeFileName(1)));
  // Generation 1 has no snapshot; its WAL goes with its outcome log.
  EXPECT_FALSE(env->FileExists(dir + "/" + WalFileName(1)));
  ASSERT_TRUE((*durable)->Close().ok());
}

TEST_F(DurableClustererTest, ClosedInstanceRefusesSteps) {
  const std::string dir = FreshDir("closed");
  auto durable = DurableClusterer::Open(stream_.corpus.get(), params_,
                                        incremental_, Options(dir));
  ASSERT_TRUE(durable.ok());
  ASSERT_TRUE((*durable)->Close().ok());
  EXPECT_EQ((*durable)->Step(stream_.batches[0], stream_.taus[0])
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace nidc
