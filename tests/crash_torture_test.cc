// Reduced-configuration crash torture as a unit test; the full matrix
// (60-step stream, every kill point, both fsync modes) runs as
// tools/nidc_crash_torture in CI.

#include "nidc/store/torture.h"

#include <gtest/gtest.h>

namespace nidc {
namespace {

std::string TortureDir(const std::string& name) {
  return testing::TempDir() + "/nidc_crash_torture_test_" + name;
}

TEST(CrashTortureTest, StreamIsDeterministic) {
  TortureOptions options;
  options.num_steps = 10;
  const TortureStream a = BuildTortureStream(options);
  const TortureStream b = BuildTortureStream(options);
  ASSERT_EQ(a.batches.size(), 10u);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.taus, b.taus);
  ASSERT_EQ(a.corpus->size(), b.corpus->size());
  for (DocId id = 0; id < a.corpus->size(); ++id) {
    EXPECT_EQ(a.corpus->doc(id).terms, b.corpus->doc(id).terms);
    EXPECT_EQ(a.corpus->doc(id).time, b.corpus->doc(id).time);
  }
}

TEST(CrashTortureTest, EarlyKillPointsRecoverBitIdentically) {
  // The first ~40 kill points cover Open's initial rotation, WAL appends,
  // syncs and the first periodic checkpoint under all three crash-flush
  // policies — the highest-value region of the matrix at unit-test cost.
  TortureOptions options;
  options.dir = TortureDir("early");
  options.num_steps = 16;
  options.checkpoint_every = 4;
  options.max_kill_points = 40;
  Result<TortureReport> report = RunCrashTorture(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->passed) << report->failure;
  EXPECT_EQ(report->kill_points_exercised, 40u);
  EXPECT_EQ(report->recoveries, 40u);
  // Kept-unsynced kills leave the flushed outcome log for recovery to
  // install; dropped-unsynced kills lose it, and the records re-run.
  EXPECT_GT(report->kill_points_installed, 0u);
  EXPECT_GT(report->kill_points_rerun, 0u);
}

TEST(CrashTortureTest, FullMatrixOnShortStreamWithoutFsync) {
  // WalSyncMode::kNone makes dropped-unsynced crashes lose WAL tails, so
  // recovery leans on refeeding from applied_steps(); the final state
  // must still be bit-identical.
  TortureOptions options;
  options.dir = TortureDir("nofsync");
  options.num_steps = 12;
  options.checkpoint_every = 4;
  options.wal_sync = WalSyncMode::kNone;
  Result<TortureReport> report = RunCrashTorture(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->passed) << report->failure;
  EXPECT_GT(report->kill_points_exercised, 10u);
  EXPECT_GT(report->kill_points_installed, 0u);
  EXPECT_GT(report->kill_points_rerun, 0u);
}

}  // namespace
}  // namespace nidc
