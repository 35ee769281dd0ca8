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

double TermCounts::ValueAt(TermId id) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), id,
      [](const Entry& e, TermId target) { return e.id < target; });
  if (it != entries_.end() && it->id == id) return it->count;
  return 0.0;
}

double TermCounts::Sum() const {
  double sum = 0.0;
  for (const Entry& e : entries_) sum += e.count;
  return sum;
}

}  // namespace nidc
