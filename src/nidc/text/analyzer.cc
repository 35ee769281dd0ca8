#include "nidc/text/analyzer.h"

#include <algorithm>

namespace nidc {

Analyzer::Analyzer(Vocabulary* vocabulary, AnalyzerOptions options)
    : vocabulary_(vocabulary),
      options_(options),
      tokenizer_(options.tokenizer),
      stopwords_(options.use_stopwords ? StopwordSet::Default()
                                       : StopwordSet::Empty()) {}

TermCounts Analyzer::Analyze(std::string_view text) {
  return AnalyzeImpl(text, /*allow_grow=*/true);
}

TermCounts Analyzer::AnalyzeFrozen(std::string_view text) {
  return AnalyzeImpl(text, /*allow_grow=*/false);
}

TermId Analyzer::TermOf(std::string_view token, bool allow_grow) {
  TermId id = vocabulary_->Lookup(token);
  if (id < fixed_.size() && fixed_[id] != 0) {
    ++stats_.fast_path_tokens;
    return id;
  }
  if (options_.use_stopwords && stopwords_.Contains(token)) {
    return kInvalidTermId;
  }
  std::string_view term = token;
  if (options_.use_stemming) {
    stem_buffer_.assign(token);
    stemmer_.StemInPlace(&stem_buffer_);
    term = stem_buffer_;
  }
  if (term.empty()) return kInvalidTermId;
  if (term != token) {
    return allow_grow ? vocabulary_->GetOrAdd(term)
                      : vocabulary_->Lookup(term);
  }
  if (id == kInvalidTermId) {
    if (!allow_grow) return kInvalidTermId;
    id = vocabulary_->GetOrAdd(term);
  }
  if (id >= fixed_.size()) fixed_.resize(vocabulary_->size());
  fixed_[id] = 1;
  return id;
}

TermCounts Analyzer::AnalyzeImpl(std::string_view text, bool allow_grow) {
  ids_.clear();
  tokenizer_.ForEachToken(text, &token_buffer_, [&](std::string_view token) {
    ++stats_.tokens;
    const TermId id = TermOf(token, allow_grow);
    if (id != kInvalidTermId) ids_.push_back(id);
  });
  // Sort + coalesce: each run of equal ids is one term and its frequency.
  // Ids come out strictly ascending; a run cannot reach 2³² tokens in any
  // text shorter than 8 GB.
  std::sort(ids_.begin(), ids_.end());
  size_t distinct = 0;
  for (size_t i = 0; i < ids_.size(); ++i) {
    if (i == 0 || ids_[i] != ids_[i - 1]) ++distinct;
  }
  std::vector<TermCounts::Entry> entries;
  entries.reserve(distinct);
  for (size_t i = 0; i < ids_.size();) {
    size_t end = i + 1;
    while (end < ids_.size() && ids_[end] == ids_[i]) ++end;
    entries.push_back({ids_[i], static_cast<uint32_t>(end - i)});
    i = end;
  }
  return TermCounts::FromSortedEntries(std::move(entries));
}

}  // namespace nidc
