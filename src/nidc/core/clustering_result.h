// Immutable snapshot of one clustering pass: memberships, outliers,
// per-cluster quality, convergence trace.

#ifndef NIDC_CORE_CLUSTERING_RESULT_H_
#define NIDC_CORE_CLUSTERING_RESULT_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "nidc/core/cluster_set.h"
#include "nidc/text/vocabulary.h"

namespace nidc {

/// Result of ExtendedKMeans::Run (and of each IncrementalClusterer step).
struct ClusteringResult {
  /// Cluster memberships, index-aligned with representatives/avg_sims.
  std::vector<std::vector<DocId>> clusters;

  /// Final cluster representatives c⃗_p (Eq. 20), for telemetry and
  /// TopTerms. The incremental procedure seeds from `clusters` alone and
  /// keeps no representatives between steps.
  std::vector<SparseVector> representatives;

  /// avg_sim(C_p) of each cluster at termination.
  std::vector<double> avg_sims;

  /// Stable cluster ids, index-aligned with `clusters`. Unlike the
  /// positional index, an id survives sweeps and incremental reseeding
  /// (cluster p of step N+1 inherits the id of the cluster that seeded
  /// it), and a slot reseeded by an unrelated document gets a fresh id —
  /// the identity drift telemetry and the event log match on.
  std::vector<uint64_t> cluster_ids;

  /// The id counter after this run; feed it back as
  /// ExtendedKMeansOptions::first_cluster_id to keep ids monotone across
  /// runs (IncrementalClusterer does this automatically).
  uint64_t next_cluster_id = 0;

  /// Documents left on the outlier list at termination.
  std::vector<DocId> outliers;

  /// Clustering index G at termination and its per-iteration trace.
  double g = 0.0;
  std::vector<double> g_history;

  /// Number of repetition sweeps executed.
  int iterations = 0;

  /// True if the δ-criterion fired (false: max_iterations hit).
  bool converged = false;

  /// Cluster index of a document, or kUnassigned.
  int ClusterOf(DocId id) const;

  /// Number of non-empty clusters.
  size_t NumNonEmpty() const;

  /// Total documents assigned to clusters (excludes outliers).
  size_t TotalAssigned() const;

  /// The `n` highest-weight terms of cluster `p`'s representative,
  /// resolved through `vocab` — a human-readable cluster digest.
  std::vector<std::string> TopTerms(size_t p, const Vocabulary& vocab,
                                    size_t n) const;

  /// Builds the snapshot from a finished ClusterSet, moving its
  /// representatives out rather than copying them.
  static ClusteringResult FromClusterSet(ClusterSet&& set,
                                         std::vector<DocId> outliers,
                                         std::vector<double> g_history,
                                         int iterations, bool converged);
};

}  // namespace nidc

#endif  // NIDC_CORE_CLUSTERING_RESULT_H_
