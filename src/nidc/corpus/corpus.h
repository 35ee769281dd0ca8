// Corpus: an append-ordered store of documents sharing one vocabulary.
// A long-running owner may release a prefix of it once nothing reads
// those documents again; ids are never reused.

#ifndef NIDC_CORPUS_CORPUS_H_
#define NIDC_CORPUS_CORPUS_H_

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "nidc/corpus/document.h"
#include "nidc/text/analyzer.h"
#include "nidc/text/vocabulary.h"
#include "nidc/util/status.h"

namespace nidc {

/// Owns documents and the vocabulary they are interned against. Documents
/// are expected (and verified on demand) to be in non-decreasing time order,
/// matching the chronological delivery model of the paper.
///
/// Ids are dense and issued in order. ReleaseBefore drops the documents
/// below an id from memory: size() still counts every id ever issued, and
/// the retained documents are ids [first_retained(), size()). Only the
/// accessors that name an id (doc) and the scans (docs, DocsInRange,
/// Topics, TopicCounts, IsChronological) are restricted to the retained
/// ones; MinTime/MaxTime cover every document ever added.
class Corpus {
 public:
  Corpus();

  /// Adds an already-analyzed document; assigns and returns its DocId.
  DocId Add(Document doc);

  /// Analyzes `text` with this corpus's analyzer and adds the document.
  DocId AddText(std::string_view text, DayTime time, TopicId topic = kNoTopic,
                std::string source = {});

  /// Installs documents analyzed earlier (a corpus record) without
  /// re-analyzing them. `new_terms` are interned first and must receive
  /// the ids first_term, first_term + 1, ...; `docs` must start at DocId
  /// `first_doc` and name only known terms. An empty corpus may start at
  /// any `first_doc`: the ids below it count as issued and released, and
  /// MinTime/MaxTime cover only the documents added from then on
  /// (±infinity while there are none). On any mismatch returns
  /// InvalidArgument and leaves the corpus as it was.
  Status Install(TermId first_term,
                 const std::vector<std::string_view>& new_terms,
                 DocId first_doc, std::vector<Document> docs);

  /// Drops every retained document with id < `end` (clamped to size()).
  /// Their ids stay issued: the next Add still gets size().
  void ReleaseBefore(DocId end);

  /// `id` must be retained: first_retained() <= id < size().
  const Document& doc(DocId id) const { return docs_[id - first_retained_]; }
  /// The retained documents, in id order.
  const std::deque<Document>& docs() const { return docs_; }
  /// Ids ever issued, released ones included.
  size_t size() const { return first_retained_ + docs_.size(); }
  bool empty() const { return size() == 0; }
  /// The smallest retained id (size() when none is).
  DocId first_retained() const { return first_retained_; }
  /// Σ terms.size() over the retained documents, kept as a running total.
  size_t retained_term_entries() const { return retained_term_entries_; }

  Vocabulary& vocabulary() { return *vocabulary_; }
  const Vocabulary& vocabulary() const { return *vocabulary_; }
  const Analyzer& analyzer() const { return *analyzer_; }

  /// True if documents are in non-decreasing time order.
  bool IsChronological() const;

  /// Ids of documents with time in [begin, end).
  std::vector<DocId> DocsInRange(DayTime begin, DayTime end) const;

  /// Distinct ground-truth topics present (excluding kNoTopic).
  std::vector<TopicId> Topics() const;

  /// topic -> number of documents carrying that label.
  std::map<TopicId, size_t> TopicCounts() const;

  /// Earliest/latest time of any document ever added, released ones
  /// included; 0 on an empty corpus.
  DayTime MinTime() const { return min_time_; }
  DayTime MaxTime() const { return max_time_; }

 private:
  std::unique_ptr<Vocabulary> vocabulary_;
  std::unique_ptr<Analyzer> analyzer_;
  std::deque<Document> docs_;
  DocId first_retained_ = 0;
  size_t retained_term_entries_ = 0;
  DayTime min_time_ = 0.0;
  DayTime max_time_ = 0.0;
};

}  // namespace nidc

#endif  // NIDC_CORPUS_CORPUS_H_
