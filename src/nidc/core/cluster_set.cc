#include "nidc/core/cluster_set.h"

#include <cassert>

namespace nidc {

void ClusterSet::Assign(DocId id, int p, const SimilarityContext& ctx) {
  assert(p == kUnassigned ||
         (p >= 0 && static_cast<size_t>(p) < clusters_.size()));
  if (id >= assignment_.size()) {
    assignment_.resize(static_cast<size_t>(id) + 1, kUnassigned);
  }
  const int current = assignment_[id];
  if (current == p) return;
  if (current != kUnassigned) {
    clusters_[static_cast<size_t>(current)].Remove(id, ctx);
    if (scoring_ == ClusterScoring::kSlotted) {
      flat_index_.ApplyRemove(ctx, ctx.SlotOf(id),
                              static_cast<size_t>(current));
    }
    assignment_[id] = kUnassigned;
    --total_assigned_;
  }
  if (p != kUnassigned) {
    Cluster& target = clusters_[static_cast<size_t>(p)];
    if (target.empty() && !target.ReseedContinuesIdentity(id)) {
      target.set_id(next_id_++);
    }
    target.Add(id, ctx);
    if (scoring_ == ClusterScoring::kSlotted) {
      flat_index_.ApplyAdd(ctx, ctx.SlotOf(id), static_cast<size_t>(p));
    }
    assignment_[id] = p;
    ++total_assigned_;
  }
}

void ClusterSet::SeedMember(DocId id, size_t p) {
  assert(p < clusters_.size());
  if (id >= assignment_.size()) {
    assignment_.resize(static_cast<size_t>(id) + 1, kUnassigned);
  }
  const int current = assignment_[id];
  if (current == static_cast<int>(p)) return;
  if (current == kUnassigned) {
    ++total_assigned_;
  } else {
    clusters_[static_cast<size_t>(current)].EraseMember(id);
  }
  clusters_[p].PushMember(id);
  assignment_[id] = static_cast<int>(p);
}

size_t ClusterSet::InstallIds(const std::vector<uint64_t>& seed_ids,
                              uint64_t first_fresh_id) {
  next_id_ = first_fresh_id;
  for (uint64_t seed : seed_ids) {
    if (seed != Cluster::kNoClusterId && seed >= next_id_) {
      next_id_ = seed + 1;
    }
  }
  size_t fresh = 0;
  for (size_t p = 0; p < clusters_.size(); ++p) {
    if (p < seed_ids.size() && seed_ids[p] != Cluster::kNoClusterId) {
      clusters_[p].set_id(seed_ids[p]);
    } else {
      clusters_[p].set_id(next_id_++);
      ++fresh;
    }
  }
  return fresh;
}

std::vector<uint64_t> ClusterSet::cluster_ids() const {
  std::vector<uint64_t> ids;
  ids.reserve(clusters_.size());
  for (const Cluster& c : clusters_) ids.push_back(c.id());
  return ids;
}

void ClusterSet::ReplayStay(DocId id, size_t p, double t_attached,
                            double t_detached, const SimilarityContext& ctx) {
  assert(ClusterOf(id) == static_cast<int>(p));
  clusters_[p].ReplayDetachReattach(id, t_attached, t_detached,
                                    ctx.SelfSim(id));
  // Posting weights round-trip to themselves under remove + re-add, so the
  // index needs no touch — that is the whole point of the move-only sweep.
}

void ClusterSet::RefreshAll(const SimilarityContext& ctx) {
  for (Cluster& c : clusters_) {
    refresh_entries_ += c.Refresh(ctx, &refresh_scratch_);
  }
  if (scoring_ == ClusterScoring::kSlotted) {
    // One-pass CSR rebuild with the same per-term addition order as
    // Cluster::Refresh uses for the representatives, so indexed scores stay
    // aligned with the merge path; also compacts the runs that mid-sweep
    // appends relocated and drops tombstones.
    flat_index_.BuildFromClusters(ctx, clusters_);
  }
}

double ClusterSet::G() const {
  double g = 0.0;
  for (const Cluster& c : clusters_) {
    g += static_cast<double>(c.size()) * c.AvgSim();
  }
  return g;
}

}  // namespace nidc
