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

void TermStatistics::Reach(TermId term) {
  const size_t need = static_cast<size_t>(term) + 1;
  if (need <= sums_.size()) return;
  // reserve() first: resize() alone would double the capacity.
  const size_t size = std::max(need, sums_.size() + sums_.size() / 2);
  sums_.reserve(size);
  present_.reserve(size);
  sums_.resize(size, 0.0);
  present_.resize(size, 0);
}

void TermStatistics::AddDocument(const Document& doc, double weight) {
  const double len = doc.Length();
  if (len <= 0.0) return;  // empty documents carry no term mass
  const double unit = weight / len / scale_;
  for (const auto& entry : doc.terms) {
    if (entry.id >= sums_.size()) Reach(entry.id);
    if (!present_[entry.id]) {
      present_[entry.id] = 1;
      ++num_terms_;
    }
    sums_[entry.id] += unit * entry.count;
  }
}

void TermStatistics::RemoveDocument(const Document& doc, double weight) {
  const double len = doc.Length();
  if (len <= 0.0) return;
  const double unit = weight / len / scale_;
  for (const auto& entry : doc.terms) {
    if (entry.id >= sums_.size() || !present_[entry.id]) continue;
    double& sum = sums_[entry.id];
    sum -= unit * entry.count;
    if (sum <= 0.0) {
      sum = 0.0;
      present_[entry.id] = 0;
      --num_terms_;
    }
  }
}

void TermStatistics::Decay(double factor) {
  assert(factor > 0.0 && factor <= 1.0);
  scale_ *= factor;
  if (scale_ < kRenormalizeThreshold) Renormalize();
}

void TermStatistics::Renormalize() {
  // Absent terms hold 0, which the multiply keeps.
  for (double& sum : sums_) sum *= scale_;
  scale_ = 1.0;
}

double TermStatistics::SumWeightedFreq(TermId term) const {
  if (term >= sums_.size()) return 0.0;
  const double value = scale_ * sums_[term];
  return value > 0.0 ? value : 0.0;
}

double TermStatistics::PrTerm(TermId term, double tdw) const {
  if (tdw <= 0.0) return 0.0;
  return SumWeightedFreq(term) / tdw;
}

void TermStatistics::Clear() {
  sums_.clear();
  present_.clear();
  num_terms_ = 0;
  scale_ = 1.0;
}

std::vector<std::pair<TermId, double>> TermStatistics::ExactSums() const {
  std::vector<std::pair<TermId, double>> out;
  out.reserve(num_terms_);
  for (size_t term = 0; term < sums_.size(); ++term) {
    if (present_[term]) {
      out.emplace_back(static_cast<TermId>(term), sums_[term]);
    }
  }
  return out;
}

Status TermStatistics::RestoreExact(
    double scale, const std::vector<std::pair<TermId, double>>& sums) {
  if (!std::isfinite(scale) || scale <= 0.0) {
    return Status::InvalidArgument("invalid term-statistics scale");
  }
  Clear();
  scale_ = scale;
  TermId max_term = 0;
  for (const auto& [term, sum] : sums) max_term = std::max(max_term, term);
  if (!sums.empty()) Reach(max_term);
  for (const auto& [term, sum] : sums) {
    if (!std::isfinite(sum)) {
      return Status::InvalidArgument("non-finite sum for term " +
                                     std::to_string(term));
    }
    if (present_[term]) {
      return Status::InvalidArgument("duplicate term " +
                                     std::to_string(term) + " in sums");
    }
    present_[term] = 1;
    sums_[term] = sum;
    ++num_terms_;
  }
  return Status::OK();
}

}  // namespace nidc
