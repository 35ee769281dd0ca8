#include "nidc/core/rep_index.h"

#include <algorithm>

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
  ends_.assign(terms, 0);
  scratch_.assign(terms, 0);
  stats_.dead_entries = 0;
  ++stats_.builds;
  built_ = true;
}

void FlatRepIndex::LayOutRuns() {
  const size_t terms = ends_.size();
  begins_.resize(terms);
  size_t n = 0;
  for (size_t t = 0; t < terms; ++t) {
    begins_[t] = n;
    n += ends_[t];
    ends_[t] = begins_[t];
  }
  // The SIMD kernels read full vectors past a run's tail; the padding
  // slots are zeroed (cluster 0, weight 0.0) and masked off in-register,
  // so they never reach an accumulator.
  clusters_.assign(n + kernels::kPostingPadding, 0);
  refs_.assign(n, 0);
  weights_.assign(n + kernels::kPostingPadding, 0.0);
  stats_.live_entries = n;
  stale_entries_ = 0;
  built_entries_ = n;
  NotePeak();
}

void FlatRepIndex::Reserve(size_t more) {
  const size_t size = refs_.size();
  const bool full = size + more > refs_.capacity();
  if (stale_entries_ > 0 &&
      (stale_entries_ > size / 2 || (full && stale_entries_ >= size / 4))) {
    Compact();
  }
  const size_t need = refs_.size() + more;
  if (need > refs_.capacity()) {
    const size_t capacity = need + need / 2;
    clusters_.reserve(capacity + kernels::kPostingPadding);
    refs_.reserve(capacity);
    weights_.reserve(capacity + kernels::kPostingPadding);
  }
}

void FlatRepIndex::Compact() {
  std::vector<uint32_t>& order = scratch_;
  order.clear();
  for (size_t t = 0; t < begins_.size(); ++t) {
    if (ends_[t] > begins_[t]) {
      order.push_back(static_cast<uint32_t>(t));
    } else {
      begins_[t] = ends_[t] = 0;  // an empty run must not point past the end
    }
  }
  std::sort(order.begin(), order.end(), [this](uint32_t a, uint32_t b) {
    return begins_[a] < begins_[b];
  });
  // In arena order each run lands at or before where it was, over entries
  // already moved.
  size_t out = 0;
  for (uint32_t t : order) {
    const size_t begin = begins_[t];
    const size_t end = ends_[t];
    if (begin != out) {
      std::copy(clusters_.begin() + begin, clusters_.begin() + end,
                clusters_.begin() + out);
      std::copy(refs_.begin() + begin, refs_.begin() + end,
                refs_.begin() + out);
      std::copy(weights_.begin() + begin, weights_.begin() + end,
                weights_.begin() + out);
    }
    begins_[t] = out;
    out += end - begin;
    ends_[t] = out;
  }
  // Truncate, then zero the padding again.
  clusters_.resize(out);
  clusters_.resize(out + kernels::kPostingPadding, 0);
  refs_.resize(out);
  weights_.resize(out);
  weights_.resize(out + kernels::kPostingPadding, 0.0);
  stale_entries_ = 0;
  ++stats_.compactions;
}

void FlatRepIndex::NotePeak() {
  const size_t size = refs_.size();
  stats_.arena_peak_entries = std::max(stats_.arena_peak_entries, size);
  if (built_entries_ > 0) {
    stats_.arena_peak_growth =
        std::max(stats_.arena_peak_growth,
                 static_cast<double>(size) /
                     static_cast<double>(built_entries_));
  }
}

void FlatRepIndex::PushEntry(uint32_t cluster, uint32_t refs, double weight) {
  // The first padding slot becomes the entry; one new zeroed slot at the
  // end restores the padding.
  const size_t e = refs_.size();
  clusters_.push_back(0);
  weights_.push_back(0.0);
  clusters_[e] = cluster;
  refs_.push_back(refs);
  weights_[e] = weight;
}

void FlatRepIndex::BuildFromClusters(const SimilarityContext& ctx,
                                     const std::vector<Cluster>& clusters) {
  k_ = clusters.size();
  PrepareBuild(ctx);

  // Pass 1: count distinct (term, cluster) pairs per term into ends_.
  // Clusters are visited in ascending order, so a per-term marker of the
  // last touching cluster suffices to dedupe.
  for (size_t p = 0; p < k_; ++p) {
    const uint32_t tag = static_cast<uint32_t>(p) + 1;
    for (DocId id : clusters[p].members()) {
      const SimilarityContext::Row row = ctx.Psi(id);
      for (size_t i = 0; i < row.size; ++i) {
        const uint32_t t = row.terms[i];
        if (scratch_[t] != tag) {
          scratch_[t] = tag;
          ++ends_[t];
        }
      }
    }
  }
  LayOutRuns();

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
        const size_t cursor = ends_[t];
        if (cursor > begins_[t] && clusters_[cursor - 1] == cluster &&
            refs_[cursor - 1] > 0) {
          refs_[cursor - 1] += 1;
          weights_[cursor - 1] += row.values[i];
        } else {
          clusters_[cursor] = cluster;
          refs_[cursor] = 1;
          weights_[cursor] = row.values[i];
          ends_[t] = cursor + 1;
        }
      }
    }
  }
}

void FlatRepIndex::Scan(const SimilarityContext::Row& row, uint32_t home,
                        std::vector<double>* scores,
                        double* home_attached) const {
  NIDC_CHECK(built_) << "FlatRepIndex scored before a build";
  scores->resize(k_);  // the kernel zeroes every lane itself
  const uint64_t entries =
      kernels::Active().score(View(), {row.terms, row.values, row.size},
                              home, scores->data(), home_attached);
  CountScan(&scan_stats_, entries, row.size);
}

void FlatRepIndex::ScoreAll(const SimilarityContext& ctx,
                            SimilarityContext::Slot slot,
                            std::vector<double>* scores) const {
  double attached = 0.0;
  Scan(ctx.PsiAt(slot), kernels::kNoHome, scores, &attached);
}

void FlatRepIndex::ScoreAllDetached(const SimilarityContext& ctx,
                                    SimilarityContext::Slot slot, size_t home,
                                    std::vector<double>* scores,
                                    double* home_attached) const {
  Scan(ctx.PsiAt(slot), static_cast<uint32_t>(home), scores, home_attached);
}

size_t FlatRepIndex::Find(uint32_t local_term, size_t p) const {
  const uint32_t cluster = static_cast<uint32_t>(p);
  for (size_t e = begins_[local_term]; e < ends_[local_term]; ++e) {
    if (clusters_[e] == cluster) return e;
  }
  return kNoEntry;
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
    const size_t e = Find(t, p);
    NIDC_CHECK(e != kNoEntry && refs_[e] > 0)
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
    const size_t e = Find(t, p);
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
    // First (term, cluster) pairing since the last rebuild. Only a run
    // that ends the arena can grow in place, so any other run (at most K
    // entries) first moves to the tail, leaving a stale copy behind.
    Reserve(ends_[t] - begins_[t] + 1);  // may compact, moving the run
    if (ends_[t] != refs_.size()) {
      const size_t begin = begins_[t];
      const size_t end = ends_[t];
      begins_[t] = refs_.size();
      for (size_t s = begin; s < end; ++s) {
        PushEntry(clusters_[s], refs_[s], weights_[s]);
      }
      stale_entries_ += end - begin;
    }
    PushEntry(static_cast<uint32_t>(p), 1, row.values[i]);
    ends_[t] = refs_.size();
    ++stats_.pairs_appended;
    ++stats_.live_entries;
  }
  NotePeak();
}

std::vector<std::pair<size_t, double>> FlatRepIndex::PostingsOf(
    const SimilarityContext& ctx, TermId term) const {
  std::vector<std::pair<size_t, double>> out;
  const uint32_t t = ctx.LocalTerm(term);
  if (!built_ || t == SimilarityContext::kNoLocalTerm) return out;
  for (size_t e = begins_[t]; e < ends_[t]; ++e) {
    if (refs_[e] > 0) out.emplace_back(clusters_[e], weights_[e]);
  }
  return out;
}

}  // namespace nidc
