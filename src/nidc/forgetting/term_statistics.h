// Incremental maintenance of the term statistics behind Pr(t_k) (Eq. 10).
//
// With Pr(t_k|d_i) = f_ik / len_i (Eq. 8) and Pr(d_i) = dw_i / tdw (Eq. 4),
//   Pr(t_k) = Σ_i (f_ik / len_i) · (dw_i / tdw) = S_k / tdw,
// where S_k ≡ Σ_i dw_i · f_ik / len_i.
//
// Time decay multiplies every dw_i — hence every S_k — by the same factor
// λ^Δτ. We exploit this by storing S̃_k with S_k = scale · S̃_k and folding
// decay into the single scalar `scale`, so an update step costs O(terms of
// the new documents) instead of O(vocabulary). (The division by tdw, which
// decays identically, makes Pr(t_k) invariant to pure time passage — only
// arrivals and expirations change it.)
//
// Term ids are dense vocabulary indices, so S̃_k lives in a flat array
// indexed by id beside a presence byte: 9 bytes per id up to the largest
// id seen, grown by half. Presence is kept apart from the value because a
// term is present from its first added mass until a removal takes its sum
// to ≤ 0, so a restored or renormalized sum of 0 stays present.

#ifndef NIDC_FORGETTING_TERM_STATISTICS_H_
#define NIDC_FORGETTING_TERM_STATISTICS_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "nidc/corpus/document.h"
#include "nidc/util/status.h"

namespace nidc {

/// Maintains S_k = Σ_{active i} dw_i · f_ik / len_i.
class TermStatistics {
 public:
  TermStatistics() = default;

  /// Adds a document's contribution with its current weight dw_i.
  void AddDocument(const Document& doc, double weight);

  /// Removes a document's contribution given its current weight. Residual
  /// mass from float cancellation is clamped at zero on read.
  void RemoveDocument(const Document& doc, double weight);

  /// Applies a global decay factor (λ^Δτ) to every S_k in O(1).
  void Decay(double factor);

  /// S_k for the term; 0 for unseen terms.
  double SumWeightedFreq(TermId term) const;

  /// Pr(t_k) = S_k / tdw for the given total weight.
  double PrTerm(TermId term, double tdw) const;

  /// Drops all statistics.
  void Clear();

  /// Number of terms with recorded (possibly zero) mass.
  size_t num_terms() const { return num_terms_; }

  /// Heap bytes held, from the arrays' capacities.
  size_t bytes() const {
    return sums_.capacity() * sizeof(double) + present_.capacity();
  }

  /// Bit-exact persistence support: the internal representation
  /// (S_k = scale() · S̃_k) rather than the folded products, so a restored
  /// instance performs identical arithmetic on every later read.
  double scale() const { return scale_; }
  /// The raw S̃_k entries, sorted by term id for deterministic output.
  std::vector<std::pair<TermId, double>> ExactSums() const;
  /// Restores the exact representation captured above; rejects duplicate
  /// terms, non-finite sums and a non-positive scale. The arrays are sized
  /// by the largest id, so the caller bounds the ids first (ForgettingModel
  /// refuses one outside the corpus vocabulary).
  Status RestoreExact(double scale,
                      const std::vector<std::pair<TermId, double>>& sums);

 private:
  /// Folds `scale_` into the stored values when it underflows toward 0.
  void Renormalize();

  /// Grows the arrays by half, or to `term` if that is further.
  void Reach(TermId term);

  std::vector<double> sums_;      // S̃_k by term id; 0 where absent
  std::vector<uint8_t> present_;  // 1 where the term has recorded mass
  size_t num_terms_ = 0;
  double scale_ = 1.0;            // S_k = scale_ · S̃_k
};

}  // namespace nidc

#endif  // NIDC_FORGETTING_TERM_STATISTICS_H_
