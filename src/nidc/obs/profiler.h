// Continuous self-profiler: the one sink of the NIDC_SPAN call sites
// (obs/trace.h), aggregating them into an always-on per-step phase
// profile with wall *and* CPU time, cheap enough to leave running in
// production (the bench_sweep_hotpath overhead guard covers it).
//
// The profiler is *ambient*: ScopedProfilerInstall sets a thread-local
// pointer, and every NIDC_SPAN on that thread then records a frame — with
// no profiler installed a span pays one thread-local load and a branch,
// preserving the "no registry = zero overhead" contract. Spans aggregate
// by their full collapsed path ("kmeans.run;kmeans.sweep"), and each
// closed span captures its wall seconds (steady clock) and the CPU
// seconds of the installing thread (CLOCK_THREAD_CPUTIME_ID).
//
// Exports:
//   * RenderCollapsed — collapsed-stack text ("path self_us" per line),
//     the input format of flamegraph.pl / speedscope;
//   * RenderJson — phase table (totals + last completed step), the
//     /profilez?format=json document;
//   * RenderPhaseArray — one phase table as a JSON array, the "phases"
//     field of every `nidc_cli stream --metrics-out` record;
//   * RenderChromeTrace — trace-event JSON for chrome://tracing /
//     Perfetto, built from a bounded ring of raw span events.

#ifndef NIDC_OBS_PROFILER_H_
#define NIDC_OBS_PROFILER_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "nidc/obs/metrics.h"
#include "nidc/obs/ring.h"

namespace nidc::obs {

class PhaseProfiler {
 public:
  struct Options {
    /// Hard cap on distinct collapsed paths; paths past the cap are
    /// dropped (bounded memory regardless of instrumentation growth).
    size_t max_phases = 256;
    /// Raw span events retained for the Chrome trace export (ring;
    /// oldest overwritten).
    size_t trace_capacity = 8192;
    /// Publishes profile.spans / profile.phases / profile.trace_dropped
    /// when non-null.
    MetricsRegistry* metrics = nullptr;
  };

  /// Aggregated statistics of one collapsed span path.
  struct PhaseStats {
    std::string path;  // "kmeans.run;kmeans.sweep"
    uint64_t count = 0;
    double wall_seconds = 0.0;
    double cpu_seconds = 0.0;
  };

  PhaseProfiler() : PhaseProfiler(Options{}) {}
  explicit PhaseProfiler(Options options);

  PhaseProfiler(const PhaseProfiler&) = delete;
  PhaseProfiler& operator=(const PhaseProfiler&) = delete;

  /// Called by ScopedSpan when a span closes. `path` is the full
  /// collapsed path, `name` the leaf (a string literal with static
  /// storage), `start_seconds` the span's start offset from the
  /// profiler's epoch.
  void RecordSpan(const std::string& path, const char* name,
                  double start_seconds, double wall_seconds,
                  double cpu_seconds, uint32_t tid);

  /// Rolls the current step's aggregation into the "last step" slot and
  /// starts aggregating under `step` (the drivers call this at the start
  /// of each pipeline step, mirroring EventLog::SetStep).
  void SetStep(uint64_t step);

  /// Cumulative per-path totals since construction, heaviest wall first.
  std::vector<PhaseStats> Snapshot() const;
  /// The spans recorded since the last SetStep (the step in progress, or
  /// just finished before the next SetStep), heaviest wall first.
  std::vector<PhaseStats> CurrentStep() const;
  /// The last *completed* step's per-path profile, heaviest wall first.
  std::vector<PhaseStats> LastStep() const;

  uint64_t spans_recorded() const;
  uint64_t step() const;

  /// Collapsed-stack flamegraph lines: "a;b;c <self-µs>\n" per path,
  /// where self time excludes the wall time of recorded child paths.
  std::string RenderCollapsed() const;

  /// `{"step":..,"spans":..,"totals":[...],"last_step":[...]}`, both
  /// arrays rendered by RenderPhaseArray.
  std::string RenderJson() const;

  /// Chrome trace-event JSON (`{"traceEvents":[...]}`; complete "X"
  /// events) over the retained raw span ring.
  std::string RenderChromeTrace() const;

 private:
  struct PhaseAccum {
    uint64_t count = 0;
    double wall_seconds = 0.0;
    double cpu_seconds = 0.0;
  };

  struct SpanEvent {
    const char* name = "";  // static storage (NIDC_SPAN literals)
    double start_seconds = 0.0;
    double wall_seconds = 0.0;
    uint32_t tid = 0;
  };

  static std::vector<PhaseStats> Flatten(
      const std::map<std::string, PhaseAccum>& phases);

  const Options options_;
  Counter* spans_counter_ = nullptr;
  Gauge* phases_gauge_ = nullptr;
  Counter* trace_dropped_counter_ = nullptr;

  mutable std::mutex mu_;
  std::map<std::string, PhaseAccum> totals_;
  std::map<std::string, PhaseAccum> current_step_;
  std::map<std::string, PhaseAccum> last_step_;
  uint64_t step_ = 0;
  uint64_t spans_ = 0;
  BoundedRing<SpanEvent> trace_ring_;
};

/// `[{"path":..,"count":..,"wall_us":..,"cpu_us":..},...]` in `stats`
/// order.
std::string RenderPhaseArray(
    const std::vector<PhaseProfiler::PhaseStats>& stats);

/// RAII installation of `profiler` as the calling thread's ambient
/// profiler; restores the previous one on destruction. Null uninstalls
/// for the scope.
class ScopedProfilerInstall {
 public:
  explicit ScopedProfilerInstall(PhaseProfiler* profiler);
  ~ScopedProfilerInstall();

  ScopedProfilerInstall(const ScopedProfilerInstall&) = delete;
  ScopedProfilerInstall& operator=(const ScopedProfilerInstall&) = delete;

  /// The profiler installed on this thread, or nullptr.
  static PhaseProfiler* Current();

 private:
  PhaseProfiler* previous_;
};

}  // namespace nidc::obs

#endif  // NIDC_OBS_PROFILER_H_
