// Sparse vector type used for document term vectors and cluster
// representatives. Entries are (term-id, value) pairs kept sorted by id so
// dot products are a linear merge.

#ifndef NIDC_TEXT_SPARSE_VECTOR_H_
#define NIDC_TEXT_SPARSE_VECTOR_H_

#include <cstddef>

#include <cstdint>
#include <utility>
#include <vector>

namespace nidc {

/// Integer id of an interned term (see Vocabulary).
using TermId = uint32_t;

/// Immutable-ish sorted sparse vector over TermId with double values.
///
/// Constructed from an unsorted (id, value) list, sorted and coalesced
/// once. Zero entries are dropped on normalization points but tolerated in
/// between.
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

  /// Adopts entries that are already sorted by strictly increasing id
  /// (not checked), skipping FromEntries' sort and coalesce.
  static SparseVector FromSortedEntries(std::vector<Entry> entries) {
    SparseVector v;
    v.entries_ = std::move(entries);
    return v;
  }

  const std::vector<Entry>& entries() const { return entries_; }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Value at `id`, or 0 if absent. O(log n).
  double ValueAt(TermId id) const;

  /// Sparse dot product via sorted merge. O(n + m).
  double Dot(const SparseVector& other) const;

  /// Sum of squared values (== Dot(*this)).
  double SquaredNorm() const;

  /// Euclidean norm.
  double Norm() const;

  /// Sum of values.
  double Sum() const;

  /// Returns a copy scaled by `factor`.
  SparseVector Scaled(double factor) const;

  /// Adds `other * factor` into this vector in place (merge; keeps order).
  void AddScaled(const SparseVector& other, double factor);

  /// Multiplies every value by `factor` in place.
  void ScaleInPlace(double factor);

  /// Removes entries with |value| <= epsilon.
  void Prune(double epsilon = 0.0);

  bool operator==(const SparseVector& other) const = default;

 private:
  std::vector<Entry> entries_;  // sorted by id, unique ids
};

}  // namespace nidc

#endif  // NIDC_TEXT_SPARSE_VECTOR_H_
