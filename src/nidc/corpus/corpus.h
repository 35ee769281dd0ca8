// Corpus: an append-ordered store of documents sharing one vocabulary.

#ifndef NIDC_CORPUS_CORPUS_H_
#define NIDC_CORPUS_CORPUS_H_

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
class Corpus {
 public:
  Corpus();

  /// Adds an already-analyzed document; assigns and returns its DocId.
  DocId Add(Document doc);

  /// Analyzes `text` with this corpus's analyzer and adds the document.
  DocId AddText(std::string_view text, DayTime time, TopicId topic = kNoTopic,
                std::string source = {});

  /// Installs documents analyzed earlier (a corpus index record) without
  /// re-analyzing them. `new_terms` are interned first and must receive
  /// the ids first_term, first_term + 1, ...; `docs` must start at DocId
  /// `first_doc` and name only known terms. On any mismatch returns
  /// InvalidArgument and leaves the corpus as it was.
  Status Install(TermId first_term, const std::vector<std::string>& new_terms,
                 DocId first_doc, std::vector<Document> docs);

  const Document& doc(DocId id) const { return docs_[id]; }
  const std::vector<Document>& docs() const { return docs_; }
  size_t size() const { return docs_.size(); }
  bool empty() const { return docs_.empty(); }

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

  /// Earliest/latest document time; 0 on an empty corpus.
  DayTime MinTime() const;
  DayTime MaxTime() const;

 private:
  std::unique_ptr<Vocabulary> vocabulary_;
  std::unique_ptr<Analyzer> analyzer_;
  std::vector<Document> docs_;
};

}  // namespace nidc

#endif  // NIDC_CORPUS_CORPUS_H_
