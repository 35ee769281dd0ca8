// BoundedRing: the one overwrite-oldest ring policy behind the obs logs
// (EventLog and the PhaseProfiler's Chrome-trace span ring).
//
// The element pushed as the ring's seq-th (its lifetime sequence) lives
// in slot `seq % capacity`. Pushes append until the ring is full, then
// overwrite the oldest slot; `dropped()` counts the overwritten elements.
// Storage is reserved at construction and filled only as elements
// arrive, so push never reallocates and an idle ring touches no memory
// beyond its header.
//
// Not thread-safe: each owner serializes access under its own lock.

#ifndef NIDC_OBS_RING_H_
#define NIDC_OBS_RING_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace nidc::obs {

template <typename T>
class BoundedRing {
 public:
  /// A zero capacity is raised to one.
  explicit BoundedRing(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {
    slots_.reserve(capacity_);
  }

  /// Appends `value` with sequence pushed(); returns true when it
  /// overwrote (dropped) the oldest retained element.
  bool Push(T&& value) {
    const uint64_t seq = pushed_++;
    if (slots_.size() < capacity_) {
      slots_.push_back(std::move(value));
      return false;
    }
    slots_[seq % capacity_] = std::move(value);
    return true;
  }

  size_t capacity() const { return capacity_; }
  /// Elements retained (at most capacity()).
  size_t size() const { return slots_.size(); }
  /// Elements pushed over the ring's lifetime.
  uint64_t pushed() const { return pushed_; }
  /// Elements lost to wrap-around: lifetime pushes minus retained.
  uint64_t dropped() const { return pushed_ - slots_.size(); }

  /// The element with lifetime sequence `seq`, which must be retained:
  /// dropped() <= seq < pushed().
  const T& at(uint64_t seq) const { return slots_[seq % capacity_]; }

  /// The newest `max_count` retained elements, oldest first.
  std::vector<T> Recent(size_t max_count = ~size_t{0}) const {
    const size_t count = std::min(max_count, slots_.size());
    std::vector<T> out;
    out.reserve(count);
    for (uint64_t seq = pushed_ - count; seq < pushed_; ++seq) {
      out.push_back(at(seq));
    }
    return out;
  }

 private:
  const size_t capacity_;
  std::vector<T> slots_;
  uint64_t pushed_ = 0;
};

}  // namespace nidc::obs

#endif  // NIDC_OBS_RING_H_
