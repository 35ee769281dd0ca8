#include "nidc/text/vocabulary.h"

#include <algorithm>
#include <limits>

#include "nidc/util/logging.h"
#include "nidc/util/string_util.h"

namespace nidc {
namespace {

constexpr size_t kMinSlots = 16;

// Reserves room for `more` elements beyond size(), at least doubling the
// capacity when it grows, so repeated small reserves stay amortized O(1).
template <typename Buffer>
void ReserveMore(Buffer& buffer, size_t more) {
  const size_t need = buffer.size() + more;
  if (need > buffer.capacity()) {
    buffer.reserve(std::max(need, 2 * buffer.capacity()));
  }
}

}  // namespace

size_t Vocabulary::Probe(std::string_view term) const {
  const size_t mask = table_.size() - 1;
  size_t slot = StringHash{}(term) & mask;
  while (table_[slot] != kInvalidTermId && this->term(table_[slot]) != term) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

void Vocabulary::Rehash(size_t slots) {
  table_.assign(slots, kInvalidTermId);
  for (TermId id = 0; id < size(); ++id) table_[Probe(term(id))] = id;
}

TermId Vocabulary::GetOrAdd(std::string_view term) {
  size_t slot = 0;
  if (!table_.empty()) {
    slot = Probe(term);
    if (table_[slot] != kInvalidTermId) return table_[slot];
  }
  NIDC_CHECK(term.size() <=
             std::numeric_limits<uint32_t>::max() - arena_.size())
      << "vocabulary arena passed 4 GiB";
  if (2 * (size() + 1) > table_.size()) {
    Rehash(std::max(kMinSlots, 2 * table_.size()));
    slot = Probe(term);
  }
  const auto id = static_cast<TermId>(size());
  arena_.append(term);
  ends_.push_back(static_cast<uint32_t>(arena_.size()));
  table_[slot] = id;
  return id;
}

TermId Vocabulary::Lookup(std::string_view term) const {
  return table_.empty() ? kInvalidTermId : table_[Probe(term)];
}

void Vocabulary::Reserve(size_t terms, size_t bytes) {
  ReserveMore(arena_, bytes);
  ReserveMore(ends_, terms);
  size_t slots = std::max(kMinSlots, table_.size());
  while (slots < 2 * (size() + terms)) slots *= 2;
  if (slots != table_.size()) Rehash(slots);
}

size_t Vocabulary::bytes() const {
  return arena_.capacity() + ends_.capacity() * sizeof(uint32_t) +
         table_.capacity() * sizeof(TermId);
}

void Vocabulary::Truncate(size_t size) {
  if (size >= this->size()) return;
  ends_.resize(size);
  arena_.resize(size == 0 ? 0 : ends_.back());
  // By the insertion-order invariant, the ids below `size` already sit
  // where inserting only them would put them.
  for (TermId& id : table_) {
    if (id != kInvalidTermId && id >= size) id = kInvalidTermId;
  }
}

Result<std::string> Vocabulary::TermOf(TermId id) const {
  if (id >= size()) {
    return Status::OutOfRange("term id out of range");
  }
  return std::string(term(id));
}

}  // namespace nidc
