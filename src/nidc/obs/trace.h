// Scoped phase spans feeding the ambient PhaseProfiler (obs/profiler.h).
//
//   obs::PhaseProfiler profiler;
//   obs::ScopedProfilerInstall install(&profiler);  // thread-local ambient
//   ...
//   { NIDC_SPAN("kmeans.sweep"); ... }              // anywhere downstream
//
// Spans are *ambient*: call sites name a phase and the profiler installed
// on the calling thread (a thread-local pointer) decides whether anything
// is recorded. With no profiler installed a span costs one thread-local
// load and a branch, so the library is freely instrumented without
// plumbing a handle through every signature. This header stays light so
// the core span sites do not pull in the profiler.

#ifndef NIDC_OBS_TRACE_H_
#define NIDC_OBS_TRACE_H_

#include <cstddef>

namespace nidc::obs {

class PhaseProfiler;

/// RAII span: opens a frame named `name` (a string literal with static
/// storage) under the innermost open span of the thread's profiler, and
/// records its wall and CPU time when it closes. A no-op when no profiler
/// is installed. Spans are strictly nested per thread. Implemented in
/// profiler.cc.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  PhaseProfiler* const profiler_;  // null = inactive
  const char* name_;
  size_t path_length_before_ = 0;
  double wall_start_ = 0.0;
  double cpu_start_ = 0.0;
};

}  // namespace nidc::obs

#define NIDC_SPAN_CONCAT_INNER(a, b) a##b
#define NIDC_SPAN_CONCAT(a, b) NIDC_SPAN_CONCAT_INNER(a, b)

/// Opens a scoped span covering the rest of the enclosing block:
///   NIDC_SPAN("kmeans.sweep");
#define NIDC_SPAN(name) \
  ::nidc::obs::ScopedSpan NIDC_SPAN_CONCAT(nidc_span_, __LINE__)(name)

#endif  // NIDC_OBS_TRACE_H_
