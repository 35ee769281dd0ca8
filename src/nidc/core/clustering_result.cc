#include "nidc/core/clustering_result.h"

#include <algorithm>

namespace nidc {

int ClusteringResult::ClusterOf(DocId id) const {
  for (size_t p = 0; p < clusters.size(); ++p) {
    if (std::find(clusters[p].begin(), clusters[p].end(), id) !=
        clusters[p].end()) {
      return static_cast<int>(p);
    }
  }
  return kUnassigned;
}

size_t ClusteringResult::NumNonEmpty() const {
  size_t n = 0;
  for (const auto& members : clusters) {
    if (!members.empty()) ++n;
  }
  return n;
}

size_t ClusteringResult::TotalAssigned() const {
  size_t n = 0;
  for (const auto& members : clusters) n += members.size();
  return n;
}

std::vector<std::string> ClusteringResult::TopTerms(size_t p,
                                                    const Vocabulary& vocab,
                                                    size_t n) const {
  std::vector<std::string> out;
  if (p >= representatives.size()) return out;
  std::vector<SparseVector::Entry> entries = representatives[p].entries();
  std::sort(entries.begin(), entries.end(),
            [](const SparseVector::Entry& a, const SparseVector::Entry& b) {
              return a.value > b.value;
            });
  for (size_t i = 0; i < entries.size() && out.size() < n; ++i) {
    Result<std::string> term = vocab.TermOf(entries[i].id);
    if (term.ok()) out.push_back(term.value());
  }
  return out;
}

ClusteringResult ClusteringResult::FromClusterSet(
    ClusterSet&& set, std::vector<DocId> outliers,
    std::vector<double> g_history, int iterations, bool converged) {
  ClusteringResult result;
  result.clusters.reserve(set.num_clusters());
  result.representatives.reserve(set.num_clusters());
  result.avg_sims.reserve(set.num_clusters());
  for (size_t p = 0; p < set.num_clusters(); ++p) {
    Cluster& c = set.cluster(p);
    result.clusters.push_back(c.members());
    result.representatives.push_back(c.TakeRepresentative());
    result.avg_sims.push_back(c.AvgSim());
    result.cluster_ids.push_back(c.id());
  }
  result.next_cluster_id = set.next_cluster_id();
  result.outliers = std::move(outliers);
  result.g = set.G();
  result.g_history = std::move(g_history);
  result.iterations = iterations;
  result.converged = converged;
  return result;
}

}  // namespace nidc
