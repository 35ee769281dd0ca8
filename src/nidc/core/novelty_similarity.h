// Novelty-based similarity (paper Eq. 16) in its factored form.
//
// Define the *weighted document vector* (the per-document summand of the
// cluster representative, Eq. 20):
//   ψ_i ≡ (Pr(d_i) / len_i) · (f_i1·idf_1, ..., f_im·idf_m),
// with idf_k = 1/√Pr(t_k). Then
//   sim(d_i, d_j) = Pr(d_i)·Pr(d_j)·(d⃗_i·d⃗_j)/(len_i·len_j) = ψ_i · ψ_j,
// the cluster representative is c⃗_p = Σ_{d_i∈C_p} ψ_i, and
// cr_sim(C_p, C_q) = c⃗_p · c⃗_q (Eq. 21) falls out as a plain dot product.
//
// ψ depends on Pr(d_i) and Pr(t_k), which are fixed during one clustering
// pass; a SimilarityContext snapshots them for the active document set.
//
// Layout: the snapshot stores every ψ exactly once, in one contiguous CSR
// arena (row offsets + flat local-term/value arrays, 12 bytes per entry).
// Documents get a dense *slot* (their index in docs()) reachable from a
// DocId through a flat array spanning the active ids rather than a hash
// probe, and terms get a dense *local* id covering only the vocabulary that
// actually appears in some ψ. Every reader sees a ψ as a SparseRowView of
// the arena: the SparseVector merges (representative updates, Sim) reach
// global ids through the local→global table, while the clustering inner
// loop (extended_kmeans.cc, rep_index.h) runs entirely on the local ids.

#ifndef NIDC_CORE_NOVELTY_SIMILARITY_H_
#define NIDC_CORE_NOVELTY_SIMILARITY_H_

#include <cstdint>
#include <vector>

#include "nidc/forgetting/forgetting_model.h"
#include "nidc/text/sparse_vector.h"

namespace nidc {

/// Snapshot of ψ vectors (and self-similarities) for one clustering pass.
class SimilarityContext {
 public:
  /// Dense document index within the snapshot (== position in docs()).
  using Slot = uint32_t;
  static constexpr Slot kNoSlot = UINT32_MAX;
  /// Sentinel for terms outside the snapshot's active vocabulary.
  static constexpr uint32_t kNoLocalTerm = UINT32_MAX;

  /// One document's ψ as a view into the CSR arena. `terms` holds *local*
  /// dense term ids; the entries are in ascending global TermId order (the
  /// SparseVector entry order), so scans accumulate in the same order as a
  /// sorted-merge dot product.
  using Row = SparseRowView;

  /// Builds ψ_i for every active document of `model` at its current clock.
  /// Each document writes its ψ straight into its own span of the arena,
  /// sized by its term count. A second pass then closes the gaps left by
  /// dropped terms and remaps the global ids to local ones, assigned in
  /// first-appearance order over slots.
  explicit SimilarityContext(const ForgettingModel& model);

  /// sim(d_i, d_j) = ψ_i · ψ_j (Eq. 16). Both must be in the snapshot.
  double Sim(DocId a, DocId b) const;

  /// Self-similarity sim(d_i, d_i) = ψ_i · ψ_i — the per-document term of
  /// ss(C_p) (Eq. 23). Fatal (in every build type) on an unknown DocId.
  double SelfSim(DocId id) const;

  /// The ψ vector of a document. Fatal (in every build type) on an unknown
  /// DocId — a bad seed must fail loudly, not read stale memory.
  Row Psi(DocId id) const { return PsiAt(SlotOf(id)); }

  bool Contains(DocId id) const {
    return id >= first_doc_ && id - first_doc_ < slot_of_.size() &&
           slot_of_[id - first_doc_] != kNoSlot;
  }

  /// Dense slot of a document. Fatal (in every build type) on an unknown
  /// DocId, like Psi.
  Slot SlotOf(DocId id) const;

  /// Slot-indexed accessors — plain array loads, no hashing.
  DocId DocAt(Slot slot) const { return docs_[slot]; }
  double SelfSimAt(Slot slot) const { return self_sim_[slot]; }
  Row PsiAt(Slot slot) const {
    const size_t begin = row_offsets_[slot];
    return {row_terms_.data() + begin, local_to_global_.data(),
            row_values_.data() + begin, row_offsets_[slot + 1] - begin};
  }

  /// Size of the local (active-vocabulary) term space; every Row term id is
  /// < this.
  size_t num_local_terms() const { return local_to_global_.size(); }
  /// Local id of a global term, or kNoLocalTerm when it appears in no ψ.
  uint32_t LocalTerm(TermId term) const {
    return term < global_to_local_.size() ? global_to_local_[term]
                                          : kNoLocalTerm;
  }
  /// Global TermId of a local id.
  TermId GlobalTerm(uint32_t local) const { return local_to_global_[local]; }

  /// Documents in the snapshot, in the model's active order.
  const std::vector<DocId>& docs() const { return docs_; }
  size_t size() const { return docs_.size(); }

  /// ψ entries over every row.
  size_t num_entries() const { return row_terms_.size(); }
  /// Heap bytes the snapshot holds (capacity of every array).
  size_t bytes() const;
  /// Entries of the DocId → slot table: the span of the active ids, not
  /// the history before them.
  size_t slot_table_size() const { return slot_of_.size(); }

 private:
  void BuildSlots();
  void CompactArena(const std::vector<uint32_t>& row_sizes);

  std::vector<DocId> docs_;
  // DocId → slot over [first_doc_, max active id]; kNoSlot for inactive ids.
  DocId first_doc_ = 0;
  std::vector<Slot> slot_of_;
  std::vector<double> self_sim_;
  // CSR arena over the ψ entries, with globally-sorted terms remapped to a
  // dense local id space.
  std::vector<size_t> row_offsets_;    // size() + 1 entries
  std::vector<uint32_t> row_terms_;    // local term ids
  std::vector<double> row_values_;
  std::vector<uint32_t> global_to_local_;
  std::vector<TermId> local_to_global_;
};

/// Reference (unfactored) implementation of Eq. 16, used by tests to verify
/// the factored form: Pr(d_i)·Pr(d_j)·(d⃗_i·d⃗_j)/(len_i·len_j) with tf·idf
/// vectors built directly from Eq. 12–15.
double NoveltySimilarityReference(const ForgettingModel& model, DocId a,
                                  DocId b);

}  // namespace nidc

#endif  // NIDC_CORE_NOVELTY_SIMILARITY_H_
