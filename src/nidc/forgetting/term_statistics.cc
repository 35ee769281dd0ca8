#include "nidc/forgetting/term_statistics.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace nidc {

namespace {
// Below this scale we fold the scalar back into the entries to preserve
// precision; 1e-120 leaves ample headroom above denormals.
constexpr double kRenormalizeThreshold = 1e-120;
}  // namespace

void TermStatistics::AddDocument(const Document& doc, double weight) {
  const double len = doc.Length();
  if (len <= 0.0) return;  // empty documents carry no term mass
  const double unit = weight / len / scale_;
  for (const auto& entry : doc.terms.entries()) {
    sums_[entry.id] += unit * entry.count;
  }
}

void TermStatistics::RemoveDocument(const Document& doc, double weight) {
  const double len = doc.Length();
  if (len <= 0.0) return;
  const double unit = weight / len / scale_;
  for (const auto& entry : doc.terms.entries()) {
    auto it = sums_.find(entry.id);
    if (it == sums_.end()) continue;
    it->second -= unit * entry.count;
    if (it->second <= 0.0) sums_.erase(it);
  }
}

void TermStatistics::Decay(double factor) {
  assert(factor > 0.0 && factor <= 1.0);
  scale_ *= factor;
  if (scale_ < kRenormalizeThreshold) Renormalize();
}

void TermStatistics::Renormalize() {
  for (auto& [term, sum] : sums_) sum *= scale_;
  scale_ = 1.0;
}

double TermStatistics::SumWeightedFreq(TermId term) const {
  auto it = sums_.find(term);
  if (it == sums_.end()) return 0.0;
  const double value = scale_ * it->second;
  return value > 0.0 ? value : 0.0;
}

double TermStatistics::PrTerm(TermId term, double tdw) const {
  if (tdw <= 0.0) return 0.0;
  return SumWeightedFreq(term) / tdw;
}

void TermStatistics::Clear() {
  sums_.clear();
  scale_ = 1.0;
}

std::vector<std::pair<TermId, double>> TermStatistics::ExactSums() const {
  std::vector<std::pair<TermId, double>> out(sums_.begin(), sums_.end());
  std::sort(out.begin(), out.end());
  return out;
}

Status TermStatistics::RestoreExact(
    double scale, const std::vector<std::pair<TermId, double>>& sums) {
  if (!std::isfinite(scale) || scale <= 0.0) {
    return Status::InvalidArgument("invalid term-statistics scale");
  }
  Clear();
  scale_ = scale;
  for (const auto& [term, sum] : sums) {
    if (!std::isfinite(sum)) {
      return Status::InvalidArgument("non-finite sum for term " +
                                     std::to_string(term));
    }
    if (!sums_.emplace(term, sum).second) {
      return Status::InvalidArgument("duplicate term " +
                                     std::to_string(term) + " in sums");
    }
  }
  return Status::OK();
}

}  // namespace nidc
