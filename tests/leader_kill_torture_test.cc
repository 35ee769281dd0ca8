// Reduced-configuration leader-kill torture as a unit test; the full
// matrix (60-step stream, every kill point) runs as
// tools/nidc_crash_torture --leader-kill in CI.

#include "nidc/repl/torture.h"

#include <gtest/gtest.h>

#include "temp_path.h"

namespace nidc {
namespace {

std::string TortureDir(const std::string& name) {
  return TestTempPath("nidc_leader_kill_test_" + name);
}

TEST(LeaderKillTortureTest, EarlyKillPointsPromoteBitIdentically) {
  // The first ~30 kill points cover the opening rotation (which ships the
  // follower's base snapshot), the first WAL appends + live record ships,
  // and the first checkpoint seal, under all three crash-flush policies.
  repl::LeaderKillOptions options;
  options.torture.dir = TortureDir("early_leader");
  options.follower_dir = TortureDir("early_follower");
  options.torture.num_steps = 12;
  options.torture.checkpoint_every = 4;
  options.torture.max_kill_points = 30;
  Result<TortureReport> report = repl::RunLeaderKillTorture(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->passed) << report->failure;
  EXPECT_EQ(report->kill_points_exercised, 30u);
  EXPECT_EQ(report->recoveries, 30u);
}

TEST(LeaderKillTortureTest, TinyShipQueueStillPromotesBitIdentically) {
  // A queue of one record forces snapshot/park catch-up paths whenever a
  // follower session is not perfectly in sync; the bit-identical promise
  // must not depend on the queue bound.
  repl::LeaderKillOptions options;
  options.torture.dir = TortureDir("queue_leader");
  options.follower_dir = TortureDir("queue_follower");
  options.torture.num_steps = 10;
  options.torture.checkpoint_every = 3;
  options.torture.max_kill_points = 20;
  options.max_queue_records = 1;
  Result<TortureReport> report = repl::RunLeaderKillTorture(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->passed) << report->failure;
  EXPECT_EQ(report->kill_points_exercised, 20u);
}

}  // namespace
}  // namespace nidc
