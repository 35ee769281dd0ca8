// English stopword list (SMART-derived subset commonly used in TDT-era IR
// systems) plus support for user-supplied lists.

#ifndef NIDC_TEXT_STOPWORDS_H_
#define NIDC_TEXT_STOPWORDS_H_

#include <cstddef>

#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "nidc/util/string_util.h"

namespace nidc {

/// Immutable set of stopwords with O(1) membership tests.
class StopwordSet {
 public:
  /// The default English list (~320 words): one immutable instance per
  /// process, built on first use, which every analyzer shares.
  static const StopwordSet& Default();

  /// Builds an empty set (stopping disabled).
  static StopwordSet Empty();

  /// Builds from an explicit word list (words are lower-cased).
  static StopwordSet FromWords(const std::vector<std::string>& words);

  bool Contains(std::string_view word) const {
    return words_.contains(word);
  }

  size_t size() const { return words_.size(); }

 private:
  std::unordered_set<std::string, StringHash, std::equal_to<>> words_;
};

}  // namespace nidc

#endif  // NIDC_TEXT_STOPWORDS_H_
