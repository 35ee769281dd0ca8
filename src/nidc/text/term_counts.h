// A document's term-frequency bag f_ik: (term id, count) entries sorted by
// id. Counts are integers, so an entry takes 8 bytes; every weight derived
// from them (ψ_i, Pr(t_k), tf·idf) converts the count to double where it is
// used.

#ifndef NIDC_TEXT_TERM_COUNTS_H_
#define NIDC_TEXT_TERM_COUNTS_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "nidc/text/sparse_vector.h"

namespace nidc {

/// Sorted, unique-id term counts. Every count is at least 1.
class TermCounts {
 public:
  struct Entry {
    TermId id;
    uint32_t count;
    bool operator==(const Entry& other) const = default;
  };
  static_assert(sizeof(Entry) == 8);

  TermCounts() = default;

  /// Adopts entries whose ids strictly increase and whose counts are at
  /// least 1 (checked in debug builds only).
  static TermCounts FromSortedEntries(std::vector<Entry> entries);

  const std::vector<Entry>& entries() const { return entries_; }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Count of `id` as a double, or 0 if absent. O(log n).
  double ValueAt(TermId id) const;

  /// Σ of the counts as a double, added in entry order.
  double Sum() const;

  bool operator==(const TermCounts& other) const = default;

 private:
  std::vector<Entry> entries_;  // sorted by id, unique ids
};

}  // namespace nidc

#endif  // NIDC_TEXT_TERM_COUNTS_H_
