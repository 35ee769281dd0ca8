#include "nidc/text/term_counts.h"

#include <algorithm>
#include <cassert>

namespace nidc {

TermCounts TermCounts::FromSortedEntries(std::vector<Entry> entries) {
  assert(std::adjacent_find(entries.begin(), entries.end(),
                            [](const Entry& a, const Entry& b) {
                              return a.id >= b.id;
                            }) == entries.end());
  assert(std::none_of(entries.begin(), entries.end(),
                      [](const Entry& e) { return e.count == 0; }));
  TermCounts counts;
  counts.entries_ = std::move(entries);
  return counts;
}

void PutVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

void AppendTermCounts(std::string* out, const TermCounts& counts) {
  TermId previous = 0;
  for (const TermCounts::Entry& entry : counts.entries()) {
    PutVarint(out, entry.id - previous);
    PutVarint(out, entry.count);
    previous = entry.id;
  }
}

double TermCountsView::Sum() const {
  uint64_t sum = 0;
  for (const Entry& e : *this) sum += e.count;
  return static_cast<double>(sum);
}

TermCounts TermCountsView::ToTermCounts() const {
  return TermCounts::FromSortedEntries(std::vector<Entry>(begin(), end()));
}

bool TermCountsView::operator==(const TermCountsView& other) const {
  return size_ == other.size_ && std::equal(begin(), end(), other.begin());
}

}  // namespace nidc
