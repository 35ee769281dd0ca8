#include "nidc/core/cluster.h"

#include <algorithm>
#include <cassert>

namespace nidc {

void Cluster::Add(DocId id, const SimilarityContext& ctx) {
  assert(!Contains(id));
  const SimilarityContext::Row psi = ctx.Psi(id);
  AddGivenT(id, representative_.Dot(psi), ctx.SelfSim(id));
  representative_.AddScaled(psi, 1.0);
}

void Cluster::Remove(DocId id, const SimilarityContext& ctx) {
  assert(Contains(id));
  const SimilarityContext::Row psi = ctx.Psi(id);
  const double t = representative_.Dot(psi);
  // Before RemoveGivenT, which clears the representative of an emptied
  // cluster.
  representative_.AddScaled(psi, -1.0);
  RemoveGivenT(id, t, ctx.SelfSim(id));
}

void Cluster::AddGivenT(DocId id, double t, double self) {
  // cr_sim(C∪{d}, C∪{d}) = cr_self + 2·cr_sim(C, {d}) + sim(d, d):
  // the expansion that makes Eq. 26 a single dot product.
  cr_self_ += 2.0 * t + self;
  ss_ += self;
  PushMember(id);
}

void Cluster::RemoveGivenT(DocId id, double t, double self) {
  // Deletion counterpart: with c' = c − ψ_d,
  // c'·c' = c·c − 2·c·ψ_d + ψ_d·ψ_d.
  cr_self_ += -2.0 * t + self;
  ss_ -= self;
  EraseMember(id);
}

void Cluster::PushMember(DocId id) {
  member_pos_.emplace(id, members_.size());
  members_.push_back(id);
  has_last_leaver_ = false;
}

void Cluster::EraseMember(DocId id) {
  auto it = member_pos_.find(id);
  assert(it != member_pos_.end());
  // Swap-and-pop so removal costs O(1), not a linear member scan.
  const size_t pos = it->second;
  member_pos_.erase(it);
  if (pos + 1 != members_.size()) {
    members_[pos] = members_.back();
    member_pos_[members_[pos]] = pos;
  }
  members_.pop_back();
  if (members_.empty()) {
    Clear();  // snap caches to exact zero
    // Recorded after Clear so the identity-continuity window opens only
    // for a genuine empty-by-removal, never for a bulk Clear.
    last_leaver_ = id;
    has_last_leaver_ = true;
  }
}

void Cluster::ReplayDetachReattach(DocId id, double t_attached,
                                   double t_detached, double self) {
  assert(members_.size() >= 2);
  // Remove's scalar updates, with its internal dot product substituted ...
  cr_self_ += -2.0 * t_attached + self;
  ss_ -= self;
  // ... then Add's, against the (never materialized) detached state.
  cr_self_ += 2.0 * t_detached + self;
  ss_ += self;
  // Swap-and-pop + push_back nets out to rotating `id` to the end and
  // dropping the previously-last member into its old position.
  auto it = member_pos_.find(id);
  assert(it != member_pos_.end());
  const size_t pos = it->second;
  const size_t last = members_.size() - 1;
  if (pos != last) {
    members_[pos] = members_[last];
    member_pos_[members_[pos]] = pos;
    members_[last] = id;
    member_pos_[id] = last;
  }
}

double Cluster::AvgSim() const {
  const double n = static_cast<double>(members_.size());
  if (n <= 1.0) return 0.0;
  // Eq. 24.
  return (cr_self_ - ss_) / (n * (n - 1.0));
}

double Cluster::AvgSimIfAdded(DocId id, const SimilarityContext& ctx) const {
  assert(!Contains(id));
  const double n = static_cast<double>(members_.size());
  if (members_.empty()) return 0.0;  // singleton result: avg_sim = 0
  // Eq. 26: [cr_sim(C,C) + 2·cr_sim(C,{d}) − ss(C)] / (|C|(|C|+1)).
  const double cr_cd = representative_.Dot(ctx.Psi(id));
  return (cr_self_ + 2.0 * cr_cd - ss_) / (n * (n + 1.0));
}

size_t Cluster::Refresh(const SimilarityContext& ctx, RefreshScratch* scratch,
                       bool build_representative) {
  std::vector<uint32_t>& slot = scratch->slot_;
  std::vector<SparseVector::Entry>& sums = scratch->sums_;
  if (slot.size() < ctx.num_local_terms()) {
    slot.resize(ctx.num_local_terms(), RefreshScratch::kUntouched);
  }
  // Each term's sum takes the member-order additions a sorted merge of
  // the rows would take, so the representative is bit-identical to it.
  double ss = 0.0;
  size_t entries = 0;
  for (DocId id : members_) {
    const SimilarityContext::Row psi = ctx.Psi(id);
    for (size_t i = 0; i < psi.size; ++i) {
      uint32_t& s = slot[psi.terms[i]];
      if (s == RefreshScratch::kUntouched) {
        s = static_cast<uint32_t>(sums.size());
        sums.push_back({psi.id(i), psi.values[i]});
      } else {
        sums[s].value += psi.values[i];
      }
    }
    entries += psi.size;
    ss += ctx.SelfSim(id);
  }
  for (const SparseVector::Entry& e : sums) {
    slot[ctx.LocalTerm(e.id)] = RefreshScratch::kUntouched;
  }
  // The ids are distinct, so this is FromEntries' order, and cr_self sums
  // the squares in it as SquaredNorm does.
  std::sort(sums.begin(), sums.end(),
            [](const SparseVector::Entry& a, const SparseVector::Entry& b) {
              return a.id < b.id;
            });
  double cr_self = 0.0;
  for (const SparseVector::Entry& e : sums) cr_self += e.value * e.value;
  if (build_representative) {
    representative_ = SparseVector::FromEntries({sums.begin(), sums.end()});
  }
  sums.clear();
  ss_ = ss;
  cr_self_ = cr_self;
  return entries;
}

void Cluster::Clear() {
  members_.clear();
  member_pos_.clear();
  representative_ = SparseVector();
  cr_self_ = 0.0;
  ss_ = 0.0;
  has_last_leaver_ = false;  // id_ is kept: identity persists while empty
}

double Cluster::AvgSimNaive(const SimilarityContext& ctx) const {
  const size_t n = members_.size();
  if (n <= 1) return 0.0;
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      total += ctx.Sim(members_[i], members_[j]);
    }
  }
  return total / (static_cast<double>(n) * static_cast<double>(n - 1));
}

}  // namespace nidc
