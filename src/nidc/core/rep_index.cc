#include "nidc/core/rep_index.h"

#include "nidc/core/kernels/kernels.h"
#include "nidc/util/logging.h"

namespace nidc {

namespace {

// Bytes a scan reads per posting entry: cluster id (4) + fp64 weight (8);
// the scan also streams the document row itself (4-byte term + 8-byte
// value per term).
constexpr uint64_t kEntryBytes = 12;
constexpr uint64_t kRowBytesPerTerm = 12;

void CountScan(FlatRepIndex::ScanStats* stats, uint64_t entries,
               size_t row_terms) {
  stats->docs_scored += 1;
  stats->entries_scanned += entries;
  stats->bytes_scanned += entries * kEntryBytes +
                          static_cast<uint64_t>(row_terms) * kRowBytesPerTerm;
}

}  // namespace

void FlatRepIndex::PrepareBuild(const SimilarityContext& ctx) {
  const size_t terms = ctx.num_local_terms();
  counts_.assign(terms, 0);
  mark_.assign(terms, 0);
  has_delta_.assign(terms, 0);
  delta_.clear();
  stats_.dead_entries = 0;
  ++stats_.builds;
  built_ = true;
}

void FlatRepIndex::ResizeEntries(size_t n) {
  // The SIMD kernels read full vectors past a posting tail; the padding
  // slots are zeroed (cluster 0, weight 0.0) and masked off in-register,
  // so they never reach an accumulator.
  clusters_.assign(n + kernels::kPostingPadding, 0);
  refs_.assign(n, 0);
  weights_.assign(n + kernels::kPostingPadding, 0.0);
}

void FlatRepIndex::BuildFromClusters(const SimilarityContext& ctx,
                                     const std::vector<Cluster>& clusters) {
  k_ = clusters.size();
  PrepareBuild(ctx);

  // Pass 1: count distinct (term, cluster) pairs per term. Clusters are
  // visited in ascending order, so a per-term marker of the last touching
  // cluster suffices to dedupe.
  for (size_t p = 0; p < k_; ++p) {
    const uint32_t tag = static_cast<uint32_t>(p) + 1;
    for (DocId id : clusters[p].members()) {
      const SimilarityContext::Row row = ctx.Psi(id);
      for (size_t i = 0; i < row.size; ++i) {
        const uint32_t t = row.terms[i];
        if (mark_[t] != tag) {
          mark_[t] = tag;
          ++counts_[t];
        }
      }
    }
  }

  // Prefix-sum the counts into offsets; counts_ then becomes the per-term
  // fill cursor.
  const size_t terms = counts_.size();
  offsets_.assign(terms + 1, 0);
  for (size_t t = 0; t < terms; ++t) offsets_[t + 1] = offsets_[t] + counts_[t];
  ResizeEntries(offsets_[terms]);
  for (size_t t = 0; t < terms; ++t) counts_[t] = offsets_[t];

  // Pass 2: accumulate member ψ values per entry, in member order — the
  // same addition sequence Cluster::Refresh replays into the
  // representative, so weights match it bit-for-bit. Ascending cluster
  // order means an existing entry for cluster p is always the last one
  // filled for its term.
  for (size_t p = 0; p < k_; ++p) {
    const uint32_t cluster = static_cast<uint32_t>(p);
    for (DocId id : clusters[p].members()) {
      const SimilarityContext::Row row = ctx.Psi(id);
      for (size_t i = 0; i < row.size; ++i) {
        const uint32_t t = row.terms[i];
        const size_t cursor = counts_[t];
        if (cursor > offsets_[t] && clusters_[cursor - 1] == cluster &&
            refs_[cursor - 1] > 0) {
          refs_[cursor - 1] += 1;
          weights_[cursor - 1] += row.values[i];
        } else {
          clusters_[cursor] = cluster;
          refs_[cursor] = 1;
          weights_[cursor] = row.values[i];
          counts_[t] = cursor + 1;
        }
      }
    }
  }
  stats_.live_entries = offsets_[terms];
}

void FlatRepIndex::BuildFromRepresentatives(
    const SimilarityContext& ctx, const std::vector<SparseVector>& reps) {
  k_ = reps.size();
  PrepareBuild(ctx);

  const size_t terms = counts_.size();
  for (size_t p = 0; p < k_; ++p) {
    for (const auto& e : reps[p].entries()) {
      if (e.value == 0.0) continue;
      const uint32_t t = ctx.LocalTerm(e.id);
      if (t == SimilarityContext::kNoLocalTerm) continue;
      ++counts_[t];
    }
  }
  offsets_.assign(terms + 1, 0);
  for (size_t t = 0; t < terms; ++t) offsets_[t + 1] = offsets_[t] + counts_[t];
  ResizeEntries(offsets_[terms]);
  for (size_t t = 0; t < terms; ++t) counts_[t] = offsets_[t];
  for (size_t p = 0; p < k_; ++p) {
    for (const auto& e : reps[p].entries()) {
      if (e.value == 0.0) continue;
      const uint32_t t = ctx.LocalTerm(e.id);
      if (t == SimilarityContext::kNoLocalTerm) continue;
      const size_t cursor = counts_[t]++;
      clusters_[cursor] = static_cast<uint32_t>(p);
      refs_[cursor] = 1;
      weights_[cursor] = e.value;
    }
  }
  stats_.live_entries = offsets_[terms];
}

bool FlatRepIndex::NeedsDeltaFallback(
    const SimilarityContext::Row& row) const {
  if (delta_.empty()) return false;
  for (size_t i = 0; i < row.size; ++i) {
    if (has_delta_[row.terms[i]]) return true;
  }
  return false;
}

// The pre-kernel scalar loop over base + overlay, with the per-term
// base-then-overlay interleaving the overlay semantics require. `home` is
// kernels::kNoHome for a plain (no detached cluster) scan. Returns posting
// entries touched.
uint64_t FlatRepIndex::ScoreAllDeltaFallback(const SimilarityContext::Row& row,
                                             uint32_t home,
                                             std::vector<double>* scores,
                                             double* home_attached) const {
  double attached = 0.0;
  uint64_t entries = 0;
  for (size_t i = 0; i < row.size; ++i) {
    const uint32_t t = row.terms[i];
    const double v = row.values[i];
    entries += offsets_[t + 1] - offsets_[t];
    for (size_t e = offsets_[t]; e < offsets_[t + 1]; ++e) {
      if (clusters_[e] == home) {
        // Detached home score: the posting weight the physical remove
        // would leave is fl(w − v); multiplying by v afterwards replays
        // the removed-then-rescored arithmetic exactly.
        attached += weights_[e] * v;
        (*scores)[home] += (weights_[e] - v) * v;
      } else {
        (*scores)[clusters_[e]] += weights_[e] * v;
      }
    }
    if (has_delta_[t]) {
      const std::vector<Entry>& overlay = delta_.at(t);
      entries += overlay.size();
      for (const Entry& entry : overlay) {
        if (entry.cluster == home) {
          attached += entry.weight * v;
          (*scores)[home] += (entry.weight - v) * v;
        } else {
          (*scores)[entry.cluster] += entry.weight * v;
        }
      }
    }
  }
  *home_attached = attached;
  return entries;
}

void FlatRepIndex::ScoreAll(const SimilarityContext& ctx,
                            SimilarityContext::Slot slot,
                            std::vector<double>* scores) const {
  NIDC_CHECK(built_) << "FlatRepIndex scored before a build";
  const SimilarityContext::Row row = ctx.PsiAt(slot);
  double attached = 0.0;
  if (NeedsDeltaFallback(row)) {
    scores->assign(k_, 0.0);
    const uint64_t entries =
        ScoreAllDeltaFallback(row, kernels::kNoHome, scores, &attached);
    CountScan(&scan_stats_, entries, row.size);
    ++scan_stats_.delta_fallback_docs;
    return;
  }
  scores->resize(k_);  // the kernel zeroes every lane itself
  const kernels::ScoreKernel& kern = kernels::Active();
  const uint64_t entries =
      kern.score(View(), DocRowOf(row), kernels::kNoHome, scores->data(),
                 &attached);
  CountScan(&scan_stats_, entries, row.size);
}

void FlatRepIndex::ScoreAllDetached(const SimilarityContext& ctx,
                                    SimilarityContext::Slot slot, size_t home,
                                    std::vector<double>* scores,
                                    double* home_attached) const {
  NIDC_CHECK(built_) << "FlatRepIndex scored before a build";
  const SimilarityContext::Row row = ctx.PsiAt(slot);
  const uint32_t home_cluster = static_cast<uint32_t>(home);
  if (NeedsDeltaFallback(row)) {
    scores->assign(k_, 0.0);
    const uint64_t entries =
        ScoreAllDeltaFallback(row, home_cluster, scores, home_attached);
    CountScan(&scan_stats_, entries, row.size);
    ++scan_stats_.delta_fallback_docs;
    return;
  }
  scores->resize(k_);  // the kernel zeroes every lane itself
  const kernels::ScoreKernel& kern = kernels::Active();
  const uint64_t entries = kern.score(View(), DocRowOf(row), home_cluster,
                                      scores->data(), home_attached);
  CountScan(&scan_stats_, entries, row.size);
}

size_t FlatRepIndex::FindBase(uint32_t local_term, size_t p) const {
  const uint32_t cluster = static_cast<uint32_t>(p);
  for (size_t e = offsets_[local_term]; e < offsets_[local_term + 1]; ++e) {
    if (clusters_[e] == cluster) return e;
  }
  return kNoEntry;
}

FlatRepIndex::Entry* FlatRepIndex::FindDelta(uint32_t local_term, size_t p) {
  if (!has_delta_[local_term]) return nullptr;
  const uint32_t cluster = static_cast<uint32_t>(p);
  for (Entry& entry : delta_[local_term]) {
    if (entry.cluster == cluster) return &entry;
  }
  return nullptr;
}

void FlatRepIndex::ApplyRemove(const SimilarityContext& ctx,
                               SimilarityContext::Slot slot, size_t p) {
  if (!built_) return;
  NIDC_CHECK(p < k_) << "cluster " << p << " out of range (K = " << k_ << ")";
  ++stats_.moves_applied;
  const SimilarityContext::Row row = ctx.PsiAt(slot);
  for (size_t i = 0; i < row.size; ++i) {
    if (row.values[i] == 0.0) continue;
    const uint32_t t = row.terms[i];
    const size_t e = FindBase(t, p);
    if (e != kNoEntry) {
      NIDC_CHECK(refs_[e] > 0)
          << "removing term " << ctx.GlobalTerm(t) << " never added to "
          << "cluster " << p;
      weights_[e] -= row.values[i];
      if (--refs_[e] == 0) {
        // Last contributor gone: snap the residual to exact zero (the
        // posting-side analogue of Cluster::Clear) and tombstone.
        weights_[e] = 0.0;
        --stats_.live_entries;
        ++stats_.dead_entries;
        ++stats_.tombstones_created;
      }
      continue;
    }
    Entry* entry = FindDelta(t, p);
    NIDC_CHECK(entry != nullptr && entry->refs > 0)
        << "removing term " << ctx.GlobalTerm(t) << " never added to "
        << "cluster " << p;
    entry->weight -= row.values[i];
    if (--entry->refs == 0) {
      entry->weight = 0.0;
      --stats_.live_entries;
      ++stats_.dead_entries;
      ++stats_.tombstones_created;
    }
  }
}

void FlatRepIndex::ApplyAdd(const SimilarityContext& ctx,
                            SimilarityContext::Slot slot, size_t p) {
  if (!built_) return;
  NIDC_CHECK(p < k_) << "cluster " << p << " out of range (K = " << k_ << ")";
  ++stats_.moves_applied;
  const SimilarityContext::Row row = ctx.PsiAt(slot);
  for (size_t i = 0; i < row.size; ++i) {
    if (row.values[i] == 0.0) continue;
    const uint32_t t = row.terms[i];
    const size_t e = FindBase(t, p);
    if (e != kNoEntry) {
      if (refs_[e] == 0) {
        --stats_.dead_entries;
        ++stats_.live_entries;
        ++stats_.tombstones_revived;
      }
      ++refs_[e];
      weights_[e] += row.values[i];
      continue;
    }
    Entry* entry = FindDelta(t, p);
    if (entry == nullptr) {
      // First (term, cluster) pairing since the last rebuild — the base
      // CSR cannot grow in place, so the pair lives in the overlay until
      // the next RefreshAll folds it into the base.
      has_delta_[t] = 1;
      delta_[t].push_back({static_cast<uint32_t>(p), 1, row.values[i]});
      ++stats_.delta_entries_added;
      ++stats_.live_entries;
      continue;
    }
    if (entry->refs == 0) {
      --stats_.dead_entries;
      ++stats_.live_entries;
      ++stats_.tombstones_revived;
    }
    ++entry->refs;
    entry->weight += row.values[i];
  }
}

std::vector<std::pair<size_t, double>> FlatRepIndex::PostingsOf(
    const SimilarityContext& ctx, TermId term) const {
  std::vector<std::pair<size_t, double>> out;
  const uint32_t t = ctx.LocalTerm(term);
  if (!built_ || t == SimilarityContext::kNoLocalTerm) return out;
  for (size_t e = offsets_[t]; e < offsets_[t + 1]; ++e) {
    if (refs_[e] > 0) out.emplace_back(clusters_[e], weights_[e]);
  }
  if (has_delta_[t]) {
    for (const Entry& entry : delta_.at(t)) {
      if (entry.refs > 0) out.emplace_back(entry.cluster, entry.weight);
    }
  }
  return out;
}

}  // namespace nidc
