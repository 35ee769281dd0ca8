#include "nidc/obs/profiler.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nidc/obs/json_util.h"
#include "nidc/obs/metrics.h"
#include "nidc/obs/trace.h"

namespace nidc::obs {
namespace {

TEST(PhaseProfilerTest, SpansAggregateByCollapsedPath) {
  PhaseProfiler profiler;
  {
    ScopedProfilerInstall install(&profiler);
    NIDC_SPAN("a");
    { NIDC_SPAN("b"); }
    { NIDC_SPAN("b"); }
  }
  EXPECT_EQ(profiler.spans_recorded(), 3u);
  const std::vector<PhaseProfiler::PhaseStats> stats = profiler.Snapshot();
  ASSERT_EQ(stats.size(), 2u);
  uint64_t a_count = 0;
  uint64_t ab_count = 0;
  for (const PhaseProfiler::PhaseStats& phase : stats) {
    EXPECT_GE(phase.wall_seconds, 0.0);
    EXPECT_GE(phase.cpu_seconds, 0.0);
    if (phase.path == "a") a_count = phase.count;
    if (phase.path == "a;b") ab_count = phase.count;
  }
  EXPECT_EQ(a_count, 1u);
  EXPECT_EQ(ab_count, 2u);
}

TEST(PhaseProfilerTest, NoInstalledProfilerRecordsNothing) {
  PhaseProfiler profiler;
  { NIDC_SPAN("orphan"); }
  EXPECT_EQ(profiler.spans_recorded(), 0u);
  EXPECT_TRUE(profiler.Snapshot().empty());
}

TEST(PhaseProfilerTest, InstallIsScopedAndRestoresPrevious) {
  PhaseProfiler outer;
  PhaseProfiler inner;
  ScopedProfilerInstall install_outer(&outer);
  EXPECT_EQ(ScopedProfilerInstall::Current(), &outer);
  {
    ScopedProfilerInstall install_inner(&inner);
    EXPECT_EQ(ScopedProfilerInstall::Current(), &inner);
    NIDC_SPAN("x");
  }
  EXPECT_EQ(ScopedProfilerInstall::Current(), &outer);
  EXPECT_EQ(inner.spans_recorded(), 1u);
  EXPECT_EQ(outer.spans_recorded(), 0u);
}

TEST(PhaseProfilerTest, SetStepRollsCurrentIntoLastStep) {
  PhaseProfiler profiler;
  ScopedProfilerInstall install(&profiler);
  profiler.SetStep(1);
  { NIDC_SPAN("work"); }
  EXPECT_TRUE(profiler.LastStep().empty());
  profiler.SetStep(2);
  EXPECT_EQ(profiler.step(), 2u);
  const std::vector<PhaseProfiler::PhaseStats> last = profiler.LastStep();
  ASSERT_EQ(last.size(), 1u);
  EXPECT_EQ(last[0].path, "work");
  // An empty step clears the last-step profile; totals persist.
  profiler.SetStep(3);
  EXPECT_TRUE(profiler.LastStep().empty());
  EXPECT_EQ(profiler.Snapshot().size(), 1u);
}

TEST(PhaseProfilerTest, CurrentStepHoldsOnlySpansSinceSetStep) {
  // A per-step record rendered after step N must carry step N's spans:
  // the current-step view starts empty at SetStep and holds exactly what
  // was recorded since, while LastStep still holds step N-1's.
  PhaseProfiler profiler;
  ScopedProfilerInstall install(&profiler);
  profiler.SetStep(1);
  { NIDC_SPAN("previous"); }
  profiler.SetStep(2);
  EXPECT_TRUE(profiler.CurrentStep().empty());
  {
    NIDC_SPAN("step");
    { NIDC_SPAN("sweep"); }
    { NIDC_SPAN("sweep"); }
  }
  const std::vector<PhaseProfiler::PhaseStats> current =
      profiler.CurrentStep();
  ASSERT_EQ(current.size(), 2u);
  for (const PhaseProfiler::PhaseStats& phase : current) {
    if (phase.path == "step") {
      EXPECT_EQ(phase.count, 1u);
    } else {
      EXPECT_EQ(phase.path, "step;sweep");
      EXPECT_EQ(phase.count, 2u);
    }
  }
  const std::vector<PhaseProfiler::PhaseStats> last = profiler.LastStep();
  ASSERT_EQ(last.size(), 1u);
  EXPECT_EQ(last[0].path, "previous");
}

TEST(PhaseProfilerTest, CollapsedSelfTimeExcludesChildren) {
  PhaseProfiler profiler;
  // Deterministic spans through the aggregation API: "a" spends 3s
  // inclusive, its child "a;b" 1s, so a's self time is 2s.
  profiler.RecordSpan("a;b", "b", 0.5, 1.0, 0.5, 1);
  profiler.RecordSpan("a", "a", 0.0, 3.0, 2.0, 1);
  const std::string collapsed = profiler.RenderCollapsed();
  EXPECT_NE(collapsed.find("a 2000000\n"), std::string::npos) << collapsed;
  EXPECT_NE(collapsed.find("a;b 1000000\n"), std::string::npos) << collapsed;
}

TEST(PhaseProfilerTest, CollapsedSelfTimeFloorsAtZero) {
  PhaseProfiler profiler;
  // Child wall exceeding the parent's (inconsistent records passed to
  // RecordSpan directly) must clamp, not go negative.
  profiler.RecordSpan("p;c", "c", 0.0, 5.0, 0.0, 1);
  profiler.RecordSpan("p", "p", 0.0, 1.0, 0.0, 1);
  EXPECT_NE(profiler.RenderCollapsed().find("p 0\n"), std::string::npos);
}

TEST(PhaseProfilerTest, RenderJsonRoundTripsThroughParser) {
  MetricsRegistry registry;
  PhaseProfiler::Options options;
  options.metrics = &registry;
  PhaseProfiler profiler(options);
  profiler.SetStep(4);
  profiler.RecordSpan("a", "a", 0.0, 0.25, 0.125, 1);
  profiler.SetStep(5);
  const Result<JsonValue> parsed = ParseJson(profiler.RenderJson());
  ASSERT_TRUE(parsed.ok());
  EXPECT_DOUBLE_EQ(parsed->Find("step")->number, 5.0);
  EXPECT_DOUBLE_EQ(parsed->Find("spans")->number, 1.0);
  const JsonValue* totals = parsed->Find("totals");
  ASSERT_TRUE(totals->is_array());
  ASSERT_EQ(totals->array.size(), 1u);
  EXPECT_EQ(totals->array[0].Find("path")->string_value, "a");
  EXPECT_DOUBLE_EQ(totals->array[0].Find("count")->number, 1.0);
  EXPECT_DOUBLE_EQ(totals->array[0].Find("wall_us")->number, 250000.0);
  EXPECT_DOUBLE_EQ(totals->array[0].Find("cpu_us")->number, 125000.0);
  const JsonValue* last = parsed->Find("last_step");
  ASSERT_TRUE(last->is_array());
  EXPECT_EQ(last->array.size(), 1u);
  // The instruments published into the registry track the aggregation.
  EXPECT_EQ(registry.GetCounter("profile.spans")->Value(), 1u);
}

TEST(PhaseProfilerTest, ChromeTraceIsBoundedAndRebased) {
  MetricsRegistry registry;
  PhaseProfiler::Options options;
  options.trace_capacity = 2;
  options.metrics = &registry;
  PhaseProfiler profiler(options);
  for (int i = 0; i < 5; ++i) {
    profiler.RecordSpan("a", "a", 100.0 + i, 0.5, 0.25, 1);
  }
  const Result<JsonValue> parsed = ParseJson(profiler.RenderChromeTrace());
  ASSERT_TRUE(parsed.ok());
  const JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  // Ring of 2: only the two newest raw events survive; three dropped.
  ASSERT_EQ(events->array.size(), 2u);
  EXPECT_EQ(registry.GetCounter("profile.trace_dropped")->Value(), 3u);
  // Rebased onto the oldest retained event: ts 0 then 1s.
  EXPECT_DOUBLE_EQ(events->array[0].Find("ts")->number, 0.0);
  EXPECT_DOUBLE_EQ(events->array[1].Find("ts")->number, 1e6);
  EXPECT_EQ(events->array[0].Find("ph")->string_value, "X");
  EXPECT_DOUBLE_EQ(events->array[0].Find("dur")->number, 500000.0);
}

TEST(PhaseProfilerTest, PhaseCapBoundsDistinctPaths) {
  PhaseProfiler::Options options;
  options.max_phases = 2;
  PhaseProfiler profiler(options);
  profiler.RecordSpan("a", "a", 0.0, 0.1, 0.0, 1);
  profiler.RecordSpan("b", "b", 0.0, 0.1, 0.0, 1);
  profiler.RecordSpan("c", "c", 0.0, 0.1, 0.0, 1);
  // The third path is dropped from aggregation, but still counted.
  EXPECT_EQ(profiler.Snapshot().size(), 2u);
  EXPECT_EQ(profiler.spans_recorded(), 3u);
}

}  // namespace
}  // namespace nidc::obs
