// Term interning: bidirectional mapping between term strings and dense
// TermIds. A single Vocabulary instance is shared by a corpus and all models
// built over it so that sparse vectors are comparable.

#ifndef NIDC_TEXT_VOCABULARY_H_
#define NIDC_TEXT_VOCABULARY_H_

#include <cstddef>

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "nidc/text/sparse_vector.h"
#include "nidc/util/status.h"
#include "nidc/util/string_util.h"

namespace nidc {

/// Sentinel for "term not present".
inline constexpr TermId kInvalidTermId = static_cast<TermId>(-1);

/// Append-only term dictionary. Ids are dense and assigned in first-seen
/// order, which matches the paper's incremental model: terms introduced by
/// newly arriving documents get fresh ids t_{n+1}, ..., t_{n+n'}.
class Vocabulary {
 public:
  Vocabulary() = default;

  /// Returns the id for `term`, interning it if new.
  TermId GetOrAdd(std::string_view term);

  /// Returns the id for `term`, or kInvalidTermId if unknown.
  TermId Lookup(std::string_view term) const;

  /// Returns the term string for `id`.
  Result<std::string> TermOf(TermId id) const;

  size_t size() const { return terms_.size(); }
  bool empty() const { return terms_.empty(); }

  /// All terms in id order (for serialization / reports).
  const std::vector<std::string>& terms() const { return terms_; }

  /// Forgets every term with id >= `size`: undoes the tail of a failed
  /// Corpus::Install. No-op when `size` >= size().
  void Truncate(size_t size);

 private:
  std::vector<std::string> terms_;
  std::unordered_map<std::string, TermId, StringHash, std::equal_to<>>
      index_;
};

}  // namespace nidc

#endif  // NIDC_TEXT_VOCABULARY_H_
