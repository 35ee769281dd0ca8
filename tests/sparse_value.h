// Test helpers: one value of a SparseVector or of a TermCounts, looked up
// by id, and the total of a TermCounts.

#ifndef NIDC_TESTS_SPARSE_VALUE_H_
#define NIDC_TESTS_SPARSE_VALUE_H_

#include <cstdint>

#include "nidc/text/sparse_vector.h"
#include "nidc/text/term_counts.h"

namespace nidc {

/// The value of `id` in `v`, or 0 if absent.
inline double ValueAt(const SparseVector& v, TermId id) {
  for (const SparseVector::Entry& e : v.entries()) {
    if (e.id == id) return e.value;
  }
  return 0.0;
}

/// The count of `id` in `counts`, or 0 if absent.
inline double ValueAt(const TermCounts& counts, TermId id) {
  for (const TermCounts::Entry& e : counts.entries()) {
    if (e.id == id) return e.count;
  }
  return 0.0;
}

/// Σ of the counts in `counts`.
inline double TotalCount(const TermCounts& counts) {
  uint64_t total = 0;
  for (const TermCounts::Entry& e : counts.entries()) total += e.count;
  return static_cast<double>(total);
}

}  // namespace nidc

#endif  // NIDC_TESTS_SPARSE_VALUE_H_
