#include "nidc/text/sparse_vector.h"

#include <algorithm>
#include <cmath>

namespace nidc {

SparseVector SparseVector::FromEntries(std::vector<Entry> entries) {
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.id < b.id; });
  // Coalesce duplicates in place.
  size_t out = 0;
  for (size_t i = 0; i < entries.size(); ++i) {
    if (out > 0 && entries[out - 1].id == entries[i].id) {
      entries[out - 1].value += entries[i].value;
    } else {
      entries[out++] = entries[i];
    }
  }
  entries.resize(out);
  SparseVector v;
  v.entries_ = std::move(entries);
  return v;
}

double SparseVector::ValueAt(TermId id) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), id,
      [](const Entry& e, TermId target) { return e.id < target; });
  if (it != entries_.end() && it->id == id) return it->value;
  return 0.0;
}

namespace {

// When one operand is much smaller, probing the big side by binary search
// beats the linear merge: O(s·log L) vs O(s + L). The factor 16 is the
// crossover measured on cluster-representative workloads.
double DotSmallIntoLarge(const std::vector<SparseVector::Entry>& small,
                         const std::vector<SparseVector::Entry>& large) {
  double sum = 0.0;
  auto begin = large.begin();
  for (const SparseVector::Entry& e : small) {
    begin = std::lower_bound(
        begin, large.end(), e.id,
        [](const SparseVector::Entry& x, TermId id) { return x.id < id; });
    if (begin == large.end()) break;
    if (begin->id == e.id) sum += e.value * begin->value;
  }
  return sum;
}

}  // namespace

double SparseVector::Dot(const SparseVector& other) const {
  const auto& a = entries_;
  const auto& b = other.entries_;
  if (a.size() * 16 < b.size()) return DotSmallIntoLarge(a, b);
  if (b.size() * 16 < a.size()) return DotSmallIntoLarge(b, a);
  double sum = 0.0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].id < b[j].id) {
      ++i;
    } else if (a[i].id > b[j].id) {
      ++j;
    } else {
      sum += a[i].value * b[j].value;
      ++i;
      ++j;
    }
  }
  return sum;
}

double SparseVector::SquaredNorm() const {
  double sum = 0.0;
  for (const Entry& e : entries_) sum += e.value * e.value;
  return sum;
}

double SparseVector::Norm() const { return std::sqrt(SquaredNorm()); }

double SparseVector::Sum() const {
  double sum = 0.0;
  for (const Entry& e : entries_) sum += e.value;
  return sum;
}

SparseVector SparseVector::Scaled(double factor) const {
  SparseVector out = *this;
  out.ScaleInPlace(factor);
  return out;
}

void SparseVector::ScaleInPlace(double factor) {
  for (Entry& e : entries_) e.value *= factor;
}

void SparseVector::AddScaled(const SparseVector& other, double factor) {
  if (other.entries_.empty() || factor == 0.0) return;
  std::vector<Entry> merged;
  merged.reserve(entries_.size() + other.entries_.size());
  size_t i = 0;
  size_t j = 0;
  while (i < entries_.size() || j < other.entries_.size()) {
    if (j == other.entries_.size() ||
        (i < entries_.size() && entries_[i].id < other.entries_[j].id)) {
      merged.push_back(entries_[i++]);
    } else if (i == entries_.size() ||
               entries_[i].id > other.entries_[j].id) {
      merged.push_back(
          {other.entries_[j].id, other.entries_[j].value * factor});
      ++j;
    } else {
      merged.push_back({entries_[i].id,
                        entries_[i].value + other.entries_[j].value * factor});
      ++i;
      ++j;
    }
  }
  entries_ = std::move(merged);
}

void SparseVector::Prune(double epsilon) {
  entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                [epsilon](const Entry& e) {
                                  return std::abs(e.value) <= epsilon;
                                }),
                 entries_.end());
}

}  // namespace nidc
