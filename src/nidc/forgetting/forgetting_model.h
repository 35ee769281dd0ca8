// The document forgetting model (paper §3 and §5.1).
//
// Every document gets weight dw_i = λ^(τ - T_i) (Eq. 1), with
// λ = exp(-ln 2 / β) derived from the half-life span β (Eq. 2). The model
// maintains, incrementally:
//   * per-document weights dw_i            (Eq. 27: dw|τ+Δτ = λ^Δτ · dw|τ)
//   * the total weight tdw = Σ dw_i        (Eq. 28: tdw' = λ^Δτ · tdw + m')
//   * selection probabilities Pr(d_i) = dw_i / tdw               (Eq. 29)
//   * term statistics S_k = Σ_i dw_i · f_ik / len_i, from which
//     Pr(t_k) = S_k / tdw                  (Eq. 10 combined with Eq. 4/8)
// and expires documents whose weight fell below ε = λ^γ (§5.2 step 2).

#ifndef NIDC_FORGETTING_FORGETTING_MODEL_H_
#define NIDC_FORGETTING_FORGETTING_MODEL_H_

#include <utility>
#include <vector>

#include "nidc/corpus/corpus.h"
#include "nidc/forgetting/document_weights.h"
#include "nidc/forgetting/term_statistics.h"
#include "nidc/util/status.h"

namespace nidc {

/// User-facing parameters of the forgetting model.
struct ForgettingParams {
  /// Half-life span β in days: the period in which a document loses half of
  /// its weight (Eq. 2). Must be > 0.
  double half_life_days = 7.0;

  /// Life span γ in days: the period during which a document stays active;
  /// defines the expiration threshold ε = λ^γ. Must be > 0.
  double life_span_days = 14.0;

  /// λ = exp(-ln 2 / β) ∈ (0, 1).
  double Lambda() const;

  /// ε = λ^γ = 2^(-γ/β).
  double Epsilon() const;

  /// Validates parameter ranges: β and γ must be finite and > 0, and the
  /// derived ε = 2^(-γ/β) must lie in (0, 1) — an ε that underflows to 0
  /// would silently disable expiration and grow the active set forever.
  Status Validate() const;
};

/// The complete numeric state of a ForgettingModel, captured in its exact
/// internal representation (raw weights, raw term sums plus their decay
/// scale). Restoring it yields a model whose every future computation is
/// bit-identical to the original's — the property the durability layer's
/// recovery-equivalence guarantee rests on. (Rebuilding from acquisition
/// times instead reproduces the same values only up to last-bit rounding,
/// since λ^a · λ^b ≠ λ^(a+b) in floating point.)
struct ExactModelState {
  DayTime now = 0.0;
  double tdw = 0.0;
  /// (id, dw) in insertion order — doubles as the active-document list.
  std::vector<std::pair<DocId, double>> weights;
  double term_scale = 1.0;
  /// Raw S̃_k entries, sorted by term id.
  std::vector<std::pair<TermId, double>> term_sums;
};

/// Incrementally maintained forgetting-model state over a Corpus.
///
/// The model tracks the *active* subset of the corpus: documents that have
/// been added and have not yet expired. All probabilities are with respect
/// to the active set, matching the paper's repository semantics.
class ForgettingModel {
 public:
  /// `corpus` must outlive the model.
  ForgettingModel(const Corpus* corpus, ForgettingParams params);

  // --- Incremental interface (paper §5.1 / §5.2 steps 1–2) ---

  /// Advances the clock to `tau` (must be >= now()), decaying all document
  /// weights, tdw and the term statistics by λ^Δτ.
  void AdvanceTo(DayTime tau);

  /// Incorporates documents into the active set. Each document's initial
  /// weight is λ^(now - T_i), i.e. exactly 1 when its acquisition time is
  /// the current time. Documents must not already be active.
  void AddDocuments(const std::vector<DocId>& ids);

  /// Removes and returns all active documents with dw < ε (§5.2 step 2).
  std::vector<DocId> ExpireDocuments();

  /// Removes one document explicitly.
  void RemoveDocument(DocId id);

  // --- Non-incremental (from-scratch) interface, for Experiment 1 ---

  /// Clears all state, sets the clock to `tau`, and recomputes every
  /// statistic from scratch for `ids`. Cost is O(Σ |terms of d|) — this is
  /// the "non-incremental" arm of the paper's Table 1.
  void RebuildFromScratch(const std::vector<DocId>& ids, DayTime tau);

  // --- Exact persistence (see ExactModelState) ---

  /// Captures the full numeric state for a bit-exact snapshot.
  ExactModelState CaptureExact() const;

  /// Restores a captured state verbatim. Rejects duplicate or
  /// out-of-corpus document ids, term ids outside the corpus vocabulary
  /// and non-finite values; on error the model is left empty at the
  /// state's clock.
  Status RestoreExact(const ExactModelState& state);

  // --- Accessors ---

  /// Selection probability Pr(d_i) = dw_i / tdw (Eq. 4). 0 if inactive.
  double PrDoc(DocId id) const;

  /// Occurrence probability Pr(t_k) (Eq. 10). 0 for unseen terms.
  double PrTerm(TermId term) const;

  /// idf_k = 1 / sqrt(Pr(t_k)) (Eq. 14). Returns 0 for unseen terms so the
  /// corresponding tf·idf components vanish instead of exploding.
  double Idf(TermId term) const;

  /// Current document weight dw_i; 0 if inactive.
  double Weight(DocId id) const { return weights_.Weight(id); }

  /// Total document weight tdw (Eq. 3).
  double TotalWeight() const { return weights_.TotalWeight(); }

  /// Whether the document is in the active set.
  bool IsActive(DocId id) const { return weights_.Contains(id); }

  /// Ids of all active documents, in insertion order.
  const std::vector<DocId>& active_docs() const {
    return weights_.active_docs();
  }
  size_t num_active() const { return weights_.size(); }

  /// Number of terms with recorded statistics — the active vocabulary
  /// size, as surfaced in the step telemetry.
  size_t NumTerms() const { return terms_.num_terms(); }

  /// Heap bytes of the term statistics' and the document weights' arrays.
  size_t TermBytes() const { return terms_.bytes(); }
  size_t WeightBytes() const { return weights_.bytes(); }

  DayTime now() const { return weights_.now(); }
  const ForgettingParams& params() const { return params_; }
  const Corpus& corpus() const { return *corpus_; }

 private:
  const Corpus* corpus_;
  ForgettingParams params_;
  DocumentWeights weights_;
  TermStatistics terms_;
};

}  // namespace nidc

#endif  // NIDC_FORGETTING_FORGETTING_MODEL_H_
