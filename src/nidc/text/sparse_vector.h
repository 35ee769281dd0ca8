// Sparse vector type used for term weights and cluster representatives (a
// document's raw counts are TermCounts). Entries are (term-id, value) pairs
// kept sorted by id so dot products are a linear merge. SparseRowView reads a row stored in
// someone else's arrays (the ψ rows of a SimilarityContext) through the
// same merge.

#ifndef NIDC_TEXT_SPARSE_VECTOR_H_
#define NIDC_TEXT_SPARSE_VECTOR_H_

#include <cstddef>

#include <cstdint>
#include <vector>

namespace nidc {

/// Integer id of an interned term (see Vocabulary).
using TermId = uint32_t;

/// Read-only view of one sparse row held elsewhere, in compact form: entry
/// i has the global id `global[terms[i]]` and the value `values[i]`, and
/// global ids strictly ascend with i. `terms` holds dense *local* ids into
/// the owner's local→global table, so a row costs 12 bytes per entry
/// instead of a SparseVector's 16.
struct SparseRowView {
  const uint32_t* terms = nullptr;
  const TermId* global = nullptr;
  const double* values = nullptr;
  size_t size = 0;

  TermId id(size_t i) const { return global[terms[i]]; }
  double value(size_t i) const { return values[i]; }

  /// Same merge (and summation order) as SparseVector::Dot.
  double Dot(const SparseRowView& other) const;
  /// Sum of squared values, in entry order.
  double SquaredNorm() const;
};

/// Immutable-ish sorted sparse vector over TermId with double values.
///
/// Constructed from an unsorted (id, value) list, sorted and coalesced
/// once. Entries whose value cancels to zero are kept.
class SparseVector {
 public:
  struct Entry {
    TermId id;
    double value;
    bool operator==(const Entry& other) const = default;
  };

  SparseVector() = default;

  /// Builds from possibly unsorted, possibly duplicated entries; duplicates
  /// are summed. The vector keeps the storage of `entries`, so its capacity
  /// is that of the argument.
  static SparseVector FromEntries(std::vector<Entry> entries);

  const std::vector<Entry>& entries() const { return entries_; }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Sparse dot product via sorted merge. O(n + m), or O(s·log L) when one
  /// side is much shorter. Products accumulate in ascending id order.
  double Dot(const SparseVector& other) const;
  double Dot(const SparseRowView& other) const;

  /// Sum of squared values (== Dot(*this)).
  double SquaredNorm() const;

  /// Euclidean norm.
  double Norm() const;

  /// Returns a copy scaled by `factor`.
  SparseVector Scaled(double factor) const;

  /// Adds `other * factor` into this vector in place (merge; keeps order).
  void AddScaled(const SparseVector& other, double factor);
  void AddScaled(const SparseRowView& other, double factor);

  /// Multiplies every value by `factor` in place.
  void ScaleInPlace(double factor);

  bool operator==(const SparseVector& other) const = default;

 private:
  std::vector<Entry> entries_;  // sorted by id, unique ids
};

}  // namespace nidc

#endif  // NIDC_TEXT_SPARSE_VECTOR_H_
