// Estimating the number of clusters K — the paper's §7 names "a method to
// estimate the appropriate K value" as future work; this module provides
// two estimators and `nidc_repro k-estimation` evaluates them against
// the ground-truth topic counts of the synthetic corpus.
//
// 1. Cover-coefficient estimate (Can 1993, the basis of the paper's F²ICM
//    predecessor): n_c = Σ_i δ_i, the sum of decoupling coefficients, with
//    the forgetting weights folded into the frequencies. O(Σ nnz).
// 2. G-knee estimate: run the extended K-means over a geometric K grid and
//    pick the K after which the clustering index G stops improving
//    materially (largest relative-gain drop). O(grid · clustering).

#ifndef NIDC_CORE_K_ESTIMATOR_H_
#define NIDC_CORE_K_ESTIMATOR_H_

#include <vector>

#include "nidc/core/extended_kmeans.h"

namespace nidc {

/// Cover-coefficient (decoupling-sum) estimate of K for the model's active
/// documents. Always >= 1.
size_t EstimateKByCoverCoefficient(const ForgettingModel& model);

struct GKneeOptions {
  /// K grid; empty = geometric {2, 4, 8, ..., min(max_k, n/2)}.
  std::vector<size_t> grid;
  size_t max_k = 64;
  /// Clustering options used per grid point (k is overwritten).
  ExtendedKMeansOptions kmeans;
  /// A grid point "still improves" while G grows by more than this factor
  /// per doubling; the knee is the last such point.
  double min_relative_gain = 0.15;
};

struct GKneeEstimate {
  size_t k = 1;
  /// The evaluated (K, G) curve, for reporting.
  std::vector<std::pair<size_t, double>> curve;
};

/// G-knee estimate over `docs` (all must be in `ctx`).
Result<GKneeEstimate> EstimateKByGKnee(const SimilarityContext& ctx,
                                       const std::vector<DocId>& docs,
                                       const GKneeOptions& options = {});

}  // namespace nidc

#endif  // NIDC_CORE_K_ESTIMATOR_H_
