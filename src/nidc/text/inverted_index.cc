#include "nidc/text/inverted_index.h"

#include <algorithm>
#include <cassert>

namespace nidc {

bool InvertedIndex::IsLive(const Entry& entry) const {
  if (!alive_.contains(entry.doc)) return false;
  const auto it = epoch_.find(entry.doc);
  return it != epoch_.end() && it->second == entry.epoch;
}

void InvertedIndex::Add(const Document& doc) {
  assert(!alive_.contains(doc.id));
  alive_.insert(doc.id);
  const uint32_t epoch = ++epoch_[doc.id];
  for (const auto& e : doc.terms.entries()) {
    postings_[e.id].entries.push_back({doc.id, static_cast<double>(e.count),
                                       epoch});
  }
}

void InvertedIndex::Remove(const Document& doc) {
  assert(alive_.contains(doc.id));
  alive_.erase(doc.id);
  // Tombstone accounting only; the entries stay until compaction.
  for (const auto& e : doc.terms.entries()) {
    auto it = postings_.find(e.id);
    if (it == postings_.end()) continue;
    ++it->second.dead;
    MaybeCompact(&it->second);
    if (it->second.entries.empty()) postings_.erase(it);
  }
}

void InvertedIndex::MaybeCompact(PostingList* list) const {
  if (list->dead * 2 <= list->entries.size()) return;
  list->entries.erase(
      std::remove_if(list->entries.begin(), list->entries.end(),
                     [this](const Entry& e) { return !IsLive(e); }),
      list->entries.end());
  list->dead = 0;
}

std::vector<Posting> InvertedIndex::Postings(TermId term) const {
  auto it = postings_.find(term);
  if (it == postings_.end()) return {};
  MaybeCompact(&it->second);
  std::vector<Posting> out;
  out.reserve(it->second.entries.size());
  for (const Entry& e : it->second.entries) {
    if (IsLive(e)) out.push_back({e.doc, e.tf});
  }
  return out;
}

size_t InvertedIndex::DocumentFrequency(TermId term) const {
  auto it = postings_.find(term);
  if (it == postings_.end()) return 0;
  size_t df = 0;
  for (const Entry& e : it->second.entries) {
    if (IsLive(e)) ++df;
  }
  return df;
}

std::vector<DocId> InvertedIndex::Candidates(const TermCounts& query,
                                             DocId exclude) const {
  std::unordered_set<DocId> seen;
  for (const auto& e : query.entries()) {
    auto it = postings_.find(e.id);
    if (it == postings_.end()) continue;
    MaybeCompact(&it->second);
    for (const Entry& p : it->second.entries) {
      if (p.doc != exclude && IsLive(p)) seen.insert(p.doc);
    }
  }
  return {seen.begin(), seen.end()};
}

void InvertedIndex::Clear() {
  postings_.clear();
  alive_.clear();
  epoch_.clear();
}

}  // namespace nidc
