// Posting index over the K cluster representatives: term → (cluster,
// weight) entries, where `weight` is that term's coefficient in the
// cluster's representative vector c⃗_p = Σ_{d∈C_p} ψ_d (Eq. 20).
//
// This turns the extended K-means inner loop from K independent sparse
// dot products (one sorted merge per cluster per document) into a single
// document-at-a-time scan: one pass over ψ_d's nonzeros accumulates
// cr_sim(C_p, {d}) = c⃗_p · ψ_d for *all* K clusters at once, which is
// sublinear in K whenever cluster vocabularies do not all overlap — the
// standard inverted-index scoring trick of IR / novelty-detection systems.
//
// Each (term, cluster) entry carries a reference count of live member
// documents containing the term. When the count drops to zero the weight
// snaps to exact 0.0 (clearing float drift, like Cluster::Clear does for an
// emptied cluster) and the entry is tombstoned; the next rebuild drops it.
//
// In a kSlotted run the index is the only holder of these weights: no
// representative vector exists until the run ends. Its weights take the
// same per-term additions, in the same order, as the kMerge reference's
// Cluster::Refresh/Add/Remove apply to the representative, so the indexed
// scores match the merge path's `representative_.Dot(ψ)` not just within
// float tolerance but (except for tombstone-cleared residuals)
// bit-for-bit.

#ifndef NIDC_CORE_REP_INDEX_H_
#define NIDC_CORE_REP_INDEX_H_

#include <cstddef>
#include <vector>

#include "nidc/core/cluster.h"
#include "nidc/core/kernels/kernels.h"
#include "nidc/core/novelty_similarity.h"

namespace nidc {

/// CSR posting index over the K cluster representatives, addressed by the
/// SimilarityContext's dense *local* term ids: one flat entry arena plus a
/// per-term [begin, end) run, rebuilt compactly in one pass at every
/// RefreshAll. Scoring a document is then a pure sequential scan over its
/// CSR row — no hashing anywhere on the path.
///
/// Between rebuilds the index is maintained *move-only*: the sweep scores
/// documents with their ψ still attached (ScoreAllDetached supplies the
/// detached home cross term algebraically), so postings change only when a
/// document actually moves. A move updates entries in place (the
/// refs/zero-snap tombstones described above); a (term, cluster) pair first
/// seen mid-sweep is appended to its term's run. A run that does not end
/// the arena is first copied to the arena tail, leaving a stale copy that
/// nothing references. The stale copies are dropped by the next rebuild,
/// or sooner, in place, once they pass half the arena (or a quarter of a
/// full one); a full arena grows by half, not by doubling.
///
/// The postings live in padded SoA arrays (clusters / refs / weights) and
/// every scan goes through the runtime-dispatched kernels of core/kernels,
/// each bit-identical to the scalar reference: a term's run names distinct
/// clusters, so each score accumulator adds in term order wherever the run
/// sits and whatever its internal order.
class FlatRepIndex {
 public:
  /// Cumulative counters survive rebuilds; live/dead entries reflect the
  /// current postings.
  struct Stats {
    uint64_t builds = 0;              // full CSR rebuilds
    uint64_t moves_applied = 0;       // ApplyAdd/ApplyRemove sides applied
    uint64_t tombstones_created = 0;  // entries whose refs dropped to 0
    uint64_t tombstones_revived = 0;  // tombstones re-added before a rebuild
    uint64_t pairs_appended = 0;      // (term, cluster) pairs first seen
                                      // mid-sweep, appended to the CSR
    uint64_t compactions = 0;         // mid-sweep drops of stale runs
    size_t arena_peak_entries = 0;    // largest arena_size() reached
    // Largest arena_size() reached between two builds, over the entries
    // the first of them laid out.
    double arena_peak_growth = 0.0;
    size_t live_entries = 0;  // entries with refs > 0
    size_t dead_entries = 0;  // tombstones (cleared by the next rebuild)
  };
  const Stats& stats() const { return stats_; }

  /// Scoring-scan telemetry (cumulative, like Stats).
  struct ScanStats {
    uint64_t docs_scored = 0;      // ScoreAll* calls
    uint64_t entries_scanned = 0;  // posting entries touched
    uint64_t bytes_scanned = 0;    // posting + row bytes read
  };
  const ScanStats& scan_stats() const { return scan_stats_; }

  size_t num_clusters() const { return k_; }
  bool built() const { return built_; }
  /// Arena slots in use: live and tombstoned entries plus the stale runs
  /// that relocations leave behind until a rebuild or compaction.
  size_t arena_size() const { return refs_.size(); }

  /// Rebuilds the CSR postings from the cluster memberships, accumulating
  /// member ψ values per (term, cluster) in member order — the exact
  /// addition order Cluster::Refresh uses for the representatives. Drops
  /// all tombstones and stale runs. Two passes over the context's CSR
  /// rows of the members: one counts the entries, one fills them.
  void BuildFromClusters(const SimilarityContext& ctx,
                         const std::vector<Cluster>& clusters);

  /// Document-at-a-time scoring: fills scores[p] = c⃗_p · ψ for every
  /// cluster in one sequential scan over the document's CSR row.
  void ScoreAll(const SimilarityContext& ctx, SimilarityContext::Slot slot,
                std::vector<double>* scores) const;

  /// ScoreAll with the document's home cluster evaluated *as if detached*:
  /// scores[home] accumulates (w − ψ_t)·ψ_t per shared term — bit-identical
  /// to physically removing ψ and rescoring — while *home_attached receives
  /// the attached cross term Σ w·ψ_t (the dot product Cluster::Remove
  /// would compute), so the caller can derive the detached cluster
  /// statistics without mutating anything.
  void ScoreAllDetached(const SimilarityContext& ctx,
                        SimilarityContext::Slot slot, size_t home,
                        std::vector<double>* scores,
                        double* home_attached) const;

  /// Applies the posting side of an actual document move: weight -= ψ_t on
  /// every term (zero-snap tombstone when the last contributor leaves).
  /// No-ops before the first build: seeding records memberships only
  /// (ClusterSet::SeedMember), and the RefreshAll that follows builds the
  /// postings.
  void ApplyRemove(const SimilarityContext& ctx,
                   SimilarityContext::Slot slot, size_t p);

  /// The add side of a move: weight += ψ_t, reviving tombstones or
  /// appending entries for first-seen (term, cluster) pairs.
  /// No-ops before the first build (see ApplyRemove).
  void ApplyAdd(const SimilarityContext& ctx, SimilarityContext::Slot slot,
                size_t p);

  /// Live (cluster, weight) postings of one *global* term, for tests, in
  /// run order.
  std::vector<std::pair<size_t, double>> PostingsOf(
      const SimilarityContext& ctx, TermId term) const;

 private:
  static constexpr size_t kNoEntry = static_cast<size_t>(-1);

  size_t Find(uint32_t local_term, size_t p) const;
  void PrepareBuild(const SimilarityContext& ctx);
  // Turns the per-term entry counts in ends_ into compact runs, sizes the
  // SoA arrays for them and leaves each ends_[t] at its run's begin, as
  // the fill cursor.
  void LayOutRuns();
  // Appends one entry to the arena, keeping kPostingPadding zeroed slots
  // after it. Reserve must have made room for it.
  void PushEntry(uint32_t cluster, uint32_t refs, double weight);
  // Makes room for `more` entries at the arena tail: compacts when the
  // stale runs pass half the arena, or a quarter of a full one, and grows
  // a full arena to half again what it must hold.
  void Reserve(size_t more);
  // Moves every run, in arena order, to the front: drops the stale copies
  // and keeps each entry's bits.
  void Compact();
  // Records the arena's size in the peak statistics.
  void NotePeak();
  // Runs the active kernel over one document row.
  void Scan(const SimilarityContext::Row& row, uint32_t home,
            std::vector<double>* scores, double* home_attached) const;
  kernels::PostingsView View() const {
    return {begins_.data(), ends_.data(), clusters_.data(), weights_.data(),
            begins_.size(), k_};
  }

  // Per local term, the [begin, end) run of its entries in the SoA arrays.
  std::vector<size_t> begins_;
  std::vector<size_t> ends_;
  // Postings as parallel SoA arrays — the layout the SIMD kernels scan.
  // clusters_/weights_ carry kernels::kPostingPadding zeroed slots past
  // the last entry so full-width vector loads on a run's tail stay
  // in-bounds; refs_ is maintenance-only and unpadded.
  std::vector<uint32_t> clusters_;
  std::vector<uint32_t> refs_;
  std::vector<double> weights_;
  // Scratch, reused: a build's last-cluster marker per term for
  // distinct-pair counting, and a compaction's terms in arena order.
  std::vector<uint32_t> scratch_;
  // Entries in stale runs, and the entries the last build laid out.
  size_t stale_entries_ = 0;
  size_t built_entries_ = 0;
  size_t k_ = 0;
  bool built_ = false;
  Stats stats_;
  mutable ScanStats scan_stats_;
};

}  // namespace nidc

#endif  // NIDC_CORE_REP_INDEX_H_
