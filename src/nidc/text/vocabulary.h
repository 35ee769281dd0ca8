// Term interning: bidirectional mapping between term strings and dense
// TermIds. A single Vocabulary instance is shared by a corpus and all models
// built over it so that sparse vectors are comparable.

#ifndef NIDC_TEXT_VOCABULARY_H_
#define NIDC_TEXT_VOCABULARY_H_

#include <cstddef>
#include <cstdint>

#include <string>
#include <string_view>
#include <vector>

#include "nidc/text/sparse_vector.h"
#include "nidc/util/status.h"

namespace nidc {

/// Sentinel for "term not present".
inline constexpr TermId kInvalidTermId = static_cast<TermId>(-1);

/// Append-only term dictionary. Ids are dense and assigned in first-seen
/// order, which matches the paper's incremental model: terms introduced by
/// newly arriving documents get fresh ids t_{n+1}, ..., t_{n+n'}.
///
/// Three flat arrays hold it: every term's bytes back to back in one
/// arena, each term's end offset in it, and an open-addressing table of
/// ids (linear probing, power-of-two size, at most half full) that
/// compares a probed id's bytes in the arena. No term is a heap object of
/// its own.
class Vocabulary {
 public:
  Vocabulary() = default;

  /// Returns the id for `term`, interning it if new.
  TermId GetOrAdd(std::string_view term);

  /// Returns the id for `term`, or kInvalidTermId if unknown.
  TermId Lookup(std::string_view term) const;

  /// Returns a copy of the term string for `id`.
  Result<std::string> TermOf(TermId id) const;

  /// The bytes of term `id`, which must be < size(). The view points into
  /// the arena: the next GetOrAdd that interns a term (and Reserve) can
  /// reallocate it and so invalidate the view.
  std::string_view term(TermId id) const {
    const uint32_t begin = id == 0 ? 0 : ends_[id - 1];
    return std::string_view(arena_).substr(begin, ends_[id] - begin);
  }

  size_t size() const { return ends_.size(); }
  bool empty() const { return ends_.empty(); }

  /// Makes room for `terms` more terms of `bytes` bytes in all, so that
  /// interning them reallocates nothing.
  void Reserve(size_t terms, size_t bytes);

  /// Heap bytes the three arrays hold, counted from their capacities.
  size_t bytes() const;

  /// Forgets every term with id >= `size`: undoes the tail of a failed
  /// Corpus::Install. No-op when `size` >= size().
  void Truncate(size_t size);

 private:
  // The slot of `term` in table_: the one holding its id, or the empty
  // slot where its probe ends. table_ must not be empty.
  size_t Probe(std::string_view term) const;
  // Rebuilds table_ at `slots` (a power of two) from the arena.
  void Rehash(size_t slots);

  std::string arena_;
  std::vector<uint32_t> ends_;
  // kInvalidTermId marks an empty slot. Ids are inserted in id order,
  // growth included (Rehash walks the ids), so the table always equals
  // the one that inserting ids 0, 1, ..., size() - 1 into it would build.
  std::vector<TermId> table_;
};

}  // namespace nidc

#endif  // NIDC_TEXT_VOCABULARY_H_
