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

namespace {

// Uniform entry access for a SparseVector's entries, matching
// SparseRowView's, so one merge serves both operand shapes.
struct EntrySpan {
  const SparseVector::Entry* entries;
  size_t size;

  explicit EntrySpan(const std::vector<SparseVector::Entry>& v)
      : entries(v.data()), size(v.size()) {}
  TermId id(size_t i) const { return entries[i].id; }
  double value(size_t i) const { return entries[i].value; }
};

// When one operand is this many times smaller than the other, probing the
// big side by binary search beats the linear merge: O(s·log L) vs
// O(s + L). 16 is the crossover measured on cluster-representative
// workloads.
constexpr size_t kGallopRatio = 16;

template <typename Small, typename Large>
double DotSmallIntoLarge(const Small& small, const Large& large) {
  double sum = 0.0;
  size_t begin = 0;
  for (size_t i = 0; i < small.size; ++i) {
    const TermId id = small.id(i);
    // Lower bound of `id` in large[begin, size).
    size_t count = large.size - begin;
    while (count > 0) {
      const size_t half = count / 2;
      if (large.id(begin + half) < id) {
        begin += half + 1;
        count -= half + 1;
      } else {
        count = half;
      }
    }
    if (begin == large.size) break;
    if (large.id(begin) == id) sum += small.value(i) * large.value(begin);
  }
  return sum;
}

template <typename A, typename B>
double MergeDot(const A& a, const B& b) {
  if (a.size * kGallopRatio < b.size) return DotSmallIntoLarge(a, b);
  if (b.size * kGallopRatio < a.size) return DotSmallIntoLarge(b, a);
  double sum = 0.0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size && j < b.size) {
    const TermId ai = a.id(i);
    const TermId bj = b.id(j);
    if (ai < bj) {
      ++i;
    } else if (ai > bj) {
      ++j;
    } else {
      sum += a.value(i) * b.value(j);
      ++i;
      ++j;
    }
  }
  return sum;
}

// a + b·factor as a sorted entry list.
template <typename B>
std::vector<SparseVector::Entry> MergeScaled(
    const std::vector<SparseVector::Entry>& a, const B& b, double factor) {
  std::vector<SparseVector::Entry> merged;
  merged.reserve(a.size() + b.size);
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() || j < b.size) {
    if (j == b.size || (i < a.size() && a[i].id < b.id(j))) {
      merged.push_back(a[i++]);
    } else if (i == a.size() || a[i].id > b.id(j)) {
      merged.push_back({b.id(j), b.value(j) * factor});
      ++j;
    } else {
      merged.push_back({a[i].id, a[i].value + b.value(j) * factor});
      ++i;
      ++j;
    }
  }
  return merged;
}

}  // namespace

double SparseRowView::Dot(const SparseRowView& other) const {
  return MergeDot(*this, other);
}

double SparseRowView::SquaredNorm() const {
  double sum = 0.0;
  for (size_t i = 0; i < size; ++i) sum += values[i] * values[i];
  return sum;
}

double SparseVector::Dot(const SparseVector& other) const {
  return MergeDot(EntrySpan(entries_), EntrySpan(other.entries_));
}

double SparseVector::Dot(const SparseRowView& other) const {
  return MergeDot(EntrySpan(entries_), other);
}

double SparseVector::SquaredNorm() const {
  double sum = 0.0;
  for (const Entry& e : entries_) sum += e.value * e.value;
  return sum;
}

double SparseVector::Norm() const { return std::sqrt(SquaredNorm()); }

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
  entries_ = MergeScaled(entries_, EntrySpan(other.entries_), factor);
}

void SparseVector::AddScaled(const SparseRowView& other, double factor) {
  if (other.size == 0 || factor == 0.0) return;
  entries_ = MergeScaled(entries_, other, factor);
}

void SparseVector::Prune(double epsilon) {
  entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                [epsilon](const Entry& e) {
                                  return std::abs(e.value) <= epsilon;
                                }),
                 entries_.end());
}

}  // namespace nidc
