// Scoped tracing spans that aggregate into a per-step trace tree.
//
//   obs::Tracer tracer;
//   obs::ScopedTracerInstall install(&tracer);   // thread-local ambient
//   ...
//   { NIDC_SPAN("kmeans.sweep"); ... }           // anywhere downstream
//   std::fputs(tracer.Render().c_str(), stderr);
//
// Spans are *ambient*: call sites name a phase and the currently installed
// tracer (a thread-local pointer) decides whether anything is recorded.
// With no tracer installed a span costs one thread-local load and a branch,
// so the library is freely instrumented without plumbing a handle through
// every signature.
//
// Repeated spans with the same name under the same parent aggregate into
// one node (count + total seconds) rather than growing the tree — a
// 50-iteration K-means run yields one "kmeans.sweep" node with count 50.
// Spans opened on threads without an installed tracer are no-ops; a
// pipeline step runs entirely on the thread that installed the tracer.

#ifndef NIDC_OBS_TRACE_H_
#define NIDC_OBS_TRACE_H_

#include <chrono>
#include <memory>
#include <string>
#include <vector>

namespace nidc::obs {

namespace internal {
/// Bridge from NIDC_SPAN into the ambient PhaseProfiler (see
/// obs/profiler.h; implemented in profiler.cc so trace.h stays light).
/// Begin returns false when no profiler is installed on the thread; End
/// must be called exactly when Begin returned true — ScopedSpan pairs
/// them RAII-style, and spans are strictly nested per thread.
bool ProfilerSpanBegin(const char* name);
void ProfilerSpanEnd();
}  // namespace internal

/// One aggregated node of the trace tree.
struct TraceNode {
  std::string name;
  uint64_t count = 0;
  double seconds = 0.0;
  std::vector<std::unique_ptr<TraceNode>> children;

  /// Child with `name`, created on first use.
  TraceNode* FindOrAddChild(const char* child_name);
};

/// Owns one trace tree and the span stack feeding it. Not thread-safe:
/// install on (and use from) one thread at a time.
class Tracer {
 public:
  Tracer();

  /// Drops the recorded tree, keeping the tracer installed.
  void Reset();

  /// The synthetic root; its children are the top-level spans.
  const TraceNode& root() const { return *root_; }

  /// Renders the tree as an indented text block:
  ///   kmeans.run                 0.812s  x1
  ///     kmeans.sweep             0.706s  x7
  /// Durations are per aggregate node (total over `count` entries).
  std::string Render() const;

  /// The tracer installed on this thread, or nullptr.
  static Tracer* Current();

 private:
  friend class ScopedSpan;
  friend class ScopedTracerInstall;

  std::unique_ptr<TraceNode> root_;
  std::vector<TraceNode*> stack_;  // innermost open span last
};

/// RAII installation of `tracer` as the calling thread's ambient tracer;
/// restores the previous one on destruction (supports nesting).
class ScopedTracerInstall {
 public:
  explicit ScopedTracerInstall(Tracer* tracer);
  ~ScopedTracerInstall();

  ScopedTracerInstall(const ScopedTracerInstall&) = delete;
  ScopedTracerInstall& operator=(const ScopedTracerInstall&) = delete;

 private:
  Tracer* previous_;
};

/// RAII span: opens a named child of the innermost open span on the
/// thread's tracer (no-op when none is installed); closes and accumulates
/// wall time on destruction. Also feeds the ambient PhaseProfiler when
/// one is installed — the two sinks are independent.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;  // null = inactive
  TraceNode* node_ = nullptr;
  std::chrono::steady_clock::time_point start_;
  bool profiled_ = false;  // a profiler frame is open for this span
};

}  // namespace nidc::obs

#define NIDC_SPAN_CONCAT_INNER(a, b) a##b
#define NIDC_SPAN_CONCAT(a, b) NIDC_SPAN_CONCAT_INNER(a, b)

/// Opens a scoped span covering the rest of the enclosing block:
///   NIDC_SPAN("kmeans.sweep");
#define NIDC_SPAN(name) \
  ::nidc::obs::ScopedSpan NIDC_SPAN_CONCAT(nidc_span_, __LINE__)(name)

#endif  // NIDC_OBS_TRACE_H_
