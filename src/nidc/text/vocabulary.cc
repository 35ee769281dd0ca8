#include "nidc/text/vocabulary.h"

namespace nidc {

TermId Vocabulary::GetOrAdd(std::string_view term) {
  auto it = index_.find(term);
  if (it != index_.end()) return it->second;
  const TermId id = static_cast<TermId>(terms_.size());
  terms_.emplace_back(term);
  index_.emplace(terms_.back(), id);
  return id;
}

TermId Vocabulary::Lookup(std::string_view term) const {
  auto it = index_.find(term);
  return it == index_.end() ? kInvalidTermId : it->second;
}

void Vocabulary::Truncate(size_t size) {
  while (terms_.size() > size) {
    index_.erase(terms_.back());
    terms_.pop_back();
  }
}

Result<std::string> Vocabulary::TermOf(TermId id) const {
  if (id >= terms_.size()) {
    return Status::OutOfRange("term id out of range");
  }
  return terms_[id];
}

}  // namespace nidc
