#include "nidc/obs/profiler.h"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>

#include "nidc/obs/json_util.h"
#include "nidc/obs/trace.h"

namespace nidc::obs {

namespace {

double SteadySeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ThreadCpuSeconds() {
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

uint32_t ThreadTraceId() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

// Per-thread span state: the ambient profiler and the collapsed path of
// the open spans (";"-joined, grown/truncated in place so span entry
// allocates at most once the path outgrows its capacity). Each open
// span's start readings live in its ScopedSpan.
thread_local PhaseProfiler* t_current_profiler = nullptr;
thread_local std::string t_span_path;

}  // namespace

ScopedSpan::ScopedSpan(const char* name)
    : profiler_(t_current_profiler), name_(name) {
  if (profiler_ == nullptr) return;
  path_length_before_ = t_span_path.size();
  if (!t_span_path.empty()) t_span_path += ';';
  t_span_path += name;
  cpu_start_ = ThreadCpuSeconds();
  wall_start_ = SteadySeconds();
}

ScopedSpan::~ScopedSpan() {
  if (profiler_ == nullptr) return;
  const double wall_end = SteadySeconds();
  const double cpu_end = ThreadCpuSeconds();
  profiler_->RecordSpan(t_span_path, name_, wall_start_,
                        wall_end - wall_start_, cpu_end - cpu_start_,
                        ThreadTraceId());
  t_span_path.resize(path_length_before_);
}

PhaseProfiler::PhaseProfiler(Options options)
    : options_(options), trace_ring_(options.trace_capacity) {
  if (options_.metrics != nullptr) {
    spans_counter_ = options_.metrics->GetCounter("profile.spans");
    phases_gauge_ = options_.metrics->GetGauge("profile.phases");
    trace_dropped_counter_ =
        options_.metrics->GetCounter("profile.trace_dropped");
  }
}

void PhaseProfiler::RecordSpan(const std::string& path, const char* name,
                               double start_seconds, double wall_seconds,
                               double cpu_seconds, uint32_t tid) {
  std::lock_guard<std::mutex> lock(mu_);
  ++spans_;
  if (spans_counter_ != nullptr) spans_counter_->Increment();
  const auto accumulate = [&](std::map<std::string, PhaseAccum>* phases) {
    auto it = phases->find(path);
    if (it == phases->end()) {
      if (phases->size() >= options_.max_phases) return;
      it = phases->emplace(path, PhaseAccum{}).first;
    }
    PhaseAccum& accum = it->second;
    ++accum.count;
    accum.wall_seconds += wall_seconds;
    accum.cpu_seconds += cpu_seconds;
  };
  accumulate(&totals_);
  accumulate(&current_step_);
  if (phases_gauge_ != nullptr) {
    phases_gauge_->Set(static_cast<double>(totals_.size()));
  }

  const bool dropped =
      trace_ring_.Push(SpanEvent{name, start_seconds, wall_seconds, tid});
  if (dropped && trace_dropped_counter_ != nullptr) {
    trace_dropped_counter_->Increment();
  }
}

void PhaseProfiler::SetStep(uint64_t step) {
  std::lock_guard<std::mutex> lock(mu_);
  last_step_ = std::move(current_step_);
  current_step_.clear();
  step_ = step;
}

std::vector<PhaseProfiler::PhaseStats> PhaseProfiler::Flatten(
    const std::map<std::string, PhaseAccum>& phases) {
  std::vector<PhaseStats> stats;
  stats.reserve(phases.size());
  for (const auto& [path, accum] : phases) {
    PhaseStats entry;
    entry.path = path;
    entry.count = accum.count;
    entry.wall_seconds = accum.wall_seconds;
    entry.cpu_seconds = accum.cpu_seconds;
    stats.push_back(std::move(entry));
  }
  std::sort(stats.begin(), stats.end(),
            [](const PhaseStats& a, const PhaseStats& b) {
              return a.wall_seconds > b.wall_seconds;
            });
  return stats;
}

std::vector<PhaseProfiler::PhaseStats> PhaseProfiler::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Flatten(totals_);
}

std::vector<PhaseProfiler::PhaseStats> PhaseProfiler::CurrentStep() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Flatten(current_step_);
}

std::vector<PhaseProfiler::PhaseStats> PhaseProfiler::LastStep() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Flatten(last_step_);
}

uint64_t PhaseProfiler::spans_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

uint64_t PhaseProfiler::step() const {
  std::lock_guard<std::mutex> lock(mu_);
  return step_;
}

std::string PhaseProfiler::RenderCollapsed() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Self time per path: inclusive wall minus the inclusive wall of direct
  // children ("<path>;<one more segment>"), the value flamegraph tooling
  // expects per collapsed line.
  std::map<std::string, double> child_wall;
  for (const auto& [path, accum] : totals_) {
    const size_t cut = path.rfind(';');
    if (cut != std::string::npos) {
      child_wall[path.substr(0, cut)] += accum.wall_seconds;
    }
  }
  std::string out;
  for (const auto& [path, accum] : totals_) {
    double self = accum.wall_seconds;
    auto it = child_wall.find(path);
    if (it != child_wall.end()) self -= it->second;
    if (self < 0.0) self = 0.0;
    out += path;
    out += ' ';
    out += std::to_string(
        static_cast<unsigned long long>(std::llround(self * 1e6)));
    out += '\n';
  }
  return out;
}

std::string RenderPhaseArray(
    const std::vector<PhaseProfiler::PhaseStats>& stats) {
  std::string out = "[";
  for (size_t i = 0; i < stats.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonObjectBuilder()
               .Add("path", stats[i].path)
               .Add("count", stats[i].count)
               .Add("wall_us", stats[i].wall_seconds * 1e6)
               .Add("cpu_us", stats[i].cpu_seconds * 1e6)
               .Render();
  }
  out += "]";
  return out;
}

std::string PhaseProfiler::RenderJson() const {
  uint64_t step;
  uint64_t spans;
  std::vector<PhaseStats> totals;
  std::vector<PhaseStats> last;
  {
    std::lock_guard<std::mutex> lock(mu_);
    step = step_;
    spans = spans_;
    totals = Flatten(totals_);
    last = Flatten(last_step_);
  }
  return JsonObjectBuilder()
      .Add("step", step)
      .Add("spans", spans)
      .Add("phases", static_cast<uint64_t>(totals.size()))
      .AddRaw("totals", RenderPhaseArray(totals))
      .AddRaw("last_step", RenderPhaseArray(last))
      .Render();
}

std::string PhaseProfiler::RenderChromeTrace() const {
  std::vector<SpanEvent> retained;
  {
    std::lock_guard<std::mutex> lock(mu_);
    retained = trace_ring_.Recent();
  }
  // Timestamps are steady-clock absolutes; rebase onto the oldest
  // retained event so the trace opens at t=0 in the viewer.
  double origin = 0.0;
  for (size_t i = 0; i < retained.size(); ++i) {
    if (i == 0 || retained[i].start_seconds < origin) {
      origin = retained[i].start_seconds;
    }
  }
  std::string events = "[";
  for (size_t i = 0; i < retained.size(); ++i) {
    const SpanEvent& event = retained[i];
    if (i > 0) events += ",";
    events += JsonObjectBuilder()
                  .Add("name", event.name)
                  .Add("cat", "nidc")
                  .Add("ph", "X")
                  .Add("pid", 1)
                  .Add("tid", static_cast<uint64_t>(event.tid))
                  .Add("ts", (event.start_seconds - origin) * 1e6)
                  .Add("dur", event.wall_seconds * 1e6)
                  .Render();
  }
  events += "]";
  return JsonObjectBuilder()
      .AddRaw("traceEvents", events)
      .Add("displayTimeUnit", "ms")
      .Render();
}

ScopedProfilerInstall::ScopedProfilerInstall(PhaseProfiler* profiler)
    : previous_(t_current_profiler) {
  t_current_profiler = profiler;
}

ScopedProfilerInstall::~ScopedProfilerInstall() {
  t_current_profiler = previous_;
}

PhaseProfiler* ScopedProfilerInstall::Current() {
  return t_current_profiler;
}

}  // namespace nidc::obs
