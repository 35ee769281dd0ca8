// Per-document forgetting weights dw_i and their total tdw, maintained
// incrementally exactly as Eq. 27–28 prescribe.
//
// Document ids are dense corpus indices and the active ones span one
// window, so an id's position is found in a flat array over the span of
// the active ids, with a sentinel for the ids between them that are not
// active (as in SimilarityContext's slot table).

#ifndef NIDC_FORGETTING_DOCUMENT_WEIGHTS_H_
#define NIDC_FORGETTING_DOCUMENT_WEIGHTS_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "nidc/corpus/document.h"
#include "nidc/util/status.h"

namespace nidc {

/// Tracks dw_i for the active document set and tdw = Σ dw_i.
///
/// AdvanceTo multiplies every stored weight by λ^Δτ (the paper's explicit
/// update; O(active docs)). Add/Remove adjust tdw by the document's weight.
class DocumentWeights {
 public:
  explicit DocumentWeights(double lambda);

  /// Advances the clock; `tau` must be >= now().
  void AdvanceTo(DayTime tau);

  /// Registers a document acquired at `acquisition_time` (<= now()); its
  /// initial weight is λ^(now - T). Must not already be present.
  void Add(DocId id, DayTime acquisition_time);

  /// Unregisters a document, subtracting its weight from tdw. O(1): the
  /// active list is swap-and-popped via the position array, so the order of
  /// active_docs()/ExactWeights() after a single Remove is *not* insertion
  /// order (production expiry goes through the order-preserving
  /// RemoveBelow; this entry point only serves tests and tooling).
  void Remove(DocId id);

  /// Removes every document with weight < epsilon; returns removed ids.
  /// Rebuilds the position array over the kept ids in one pass.
  std::vector<DocId> RemoveBelow(double epsilon);

  /// Clears all documents and resets the clock to `tau`.
  void Reset(DayTime tau);

  /// Bit-exact persistence support: the (id, dw) pairs in insertion order.
  /// Together with TotalWeight() and now() this captures the full numeric
  /// state, so a restored instance continues with identical arithmetic.
  std::vector<std::pair<DocId, double>> ExactWeights() const;

  /// Restores the exact state captured above. `tdw` is installed verbatim
  /// (recomputing the sum would differ in the last bits from the
  /// incrementally maintained total). Rejects duplicate ids and
  /// non-finite or non-positive weights.
  Status RestoreExact(DayTime now, double tdw,
                      const std::vector<std::pair<DocId, double>>& weights);

  double Weight(DocId id) const;
  bool Contains(DocId id) const { return PositionOf(id) != kNoPosition; }
  double TotalWeight() const { return tdw_; }
  DayTime now() const { return now_; }
  size_t size() const { return active_.size(); }

  /// Active document ids in insertion (chronological) order — except after
  /// a single-document Remove, which swap-and-pops (see Remove).
  const std::vector<DocId>& active_docs() const { return active_; }

  double lambda() const { return lambda_; }

  /// Heap bytes held, from the arrays' capacities.
  size_t bytes() const {
    return active_.capacity() * sizeof(DocId) +
           dw_.capacity() * sizeof(double) +
           pos_.capacity() * sizeof(uint32_t);
  }

 private:
  static constexpr uint32_t kNoPosition = UINT32_MAX;

  uint32_t PositionOf(DocId id) const {
    return id >= first_ && id - first_ < pos_.size() ? pos_[id - first_]
                                                     : kNoPosition;
  }
  // pos_[id - first_], grown to reach `id`, below first_ included.
  uint32_t& PositionSlot(DocId id);
  // Refills pos_ over [min, max] of active_.
  void RebuildPositions();

  double lambda_;
  DayTime now_ = 0.0;
  double tdw_ = 0.0;
  // Weights live in a vector parallel to active_ (dense iteration for the
  // per-advance decay); pos_[id - first_] is an id's index in both, or
  // kNoPosition.
  std::vector<DocId> active_;
  std::vector<double> dw_;
  DocId first_ = 0;
  std::vector<uint32_t> pos_;
};

}  // namespace nidc

#endif  // NIDC_FORGETTING_DOCUMENT_WEIGHTS_H_
