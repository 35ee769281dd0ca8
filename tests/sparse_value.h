// Test helper: one value of a SparseVector, looked up by id.

#ifndef NIDC_TESTS_SPARSE_VALUE_H_
#define NIDC_TESTS_SPARSE_VALUE_H_

#include "nidc/text/sparse_vector.h"

namespace nidc {

/// The value of `id` in `v`, or 0 if absent.
inline double ValueAt(const SparseVector& v, TermId id) {
  for (const SparseVector::Entry& e : v.entries()) {
    if (e.id == id) return e.value;
  }
  return 0.0;
}

}  // namespace nidc

#endif  // NIDC_TESTS_SPARSE_VALUE_H_
