// Corpus: an append-ordered store of documents sharing one vocabulary.
// A long-running owner may release a prefix of it once nothing reads
// those documents again; ids are never reused.

#ifndef NIDC_CORPUS_CORPUS_H_
#define NIDC_CORPUS_CORPUS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <ranges>
#include <string>
#include <string_view>
#include <vector>

#include "nidc/corpus/document.h"
#include "nidc/text/analyzer.h"
#include "nidc/text/vocabulary.h"
#include "nidc/util/status.h"

namespace nidc {

/// Documents in the form a corpus stores them (AppendDocument), viewing
/// bytes someone else owns: `bytes` holds them back to back, and document
/// i ends at offset `ends[i]` of `bytes`.
struct EncodedDocuments {
  std::string_view bytes;
  std::vector<uint32_t> ends;

  size_t size() const { return ends.size(); }
};

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
///
/// The documents live in one byte arena, each in its corpus-record form
/// (AppendDocument), with one end offset per document: no document is a
/// heap object of its own. doc() and docs() decode views of those bytes,
/// which the next Add, AddText, Install or ReleaseBefore invalidates.
/// Released documents stay in the arena until they make up more than half
/// of it, when ReleaseBefore moves the retained ones to its front, or
/// until the arena must grow, when they are left behind. The arena grows
/// by half, and shrinks once it is twice what the retained ones need.
class Corpus {
 public:
  Corpus();

  /// Adds an already-analyzed document; assigns and returns its DocId.
  /// `source` must not view this corpus (a Document of its own), since
  /// adding may move the arena.
  DocId Add(DayTime time, TopicId topic, std::string_view source,
            const TermCounts& terms);

  /// Analyzes `text` with this corpus's analyzer and adds the document.
  DocId AddText(std::string_view text, DayTime time, TopicId topic = kNoTopic,
                std::string_view source = {});

  /// Installs documents analyzed earlier (a corpus record) without
  /// re-analyzing them: their bytes are appended as they are. `new_terms`
  /// are interned first and must receive the ids first_term,
  /// first_term + 1, ...; `docs` must start at DocId `first_doc`. An empty
  /// corpus may start at any `first_doc`: the ids below it count as issued
  /// and released, and MinTime/MaxTime cover only the documents added from
  /// then on (±infinity while there are none). On any mismatch returns
  /// InvalidArgument and leaves the corpus as it was.
  ///
  /// `docs` must be well-formed and name only terms below first_term +
  /// new_terms.size(): DecodeCorpusIndexRecord (corpus_io.h) checks both.
  Status Install(TermId first_term,
                 const std::vector<std::string_view>& new_terms,
                 DocId first_doc, const EncodedDocuments& docs);

  /// Drops every retained document with id < `end` (clamped to size()).
  /// Their ids stay issued: the next Add still gets size().
  void ReleaseBefore(DocId end);

  /// `id` must be retained: first_retained() <= id < size().
  Document doc(DocId id) const {
    return ViewDocument(id, arena_.data() + Begin(id));
  }
  /// The retained documents in id order, each decoded as it is reached.
  auto docs() const {
    return std::views::iota(size_t{first_retained_}, size()) |
           std::views::transform([this](size_t id) {
             return doc(static_cast<DocId>(id));
           });
  }
  /// The stored bytes of documents [begin, end), which must be retained
  /// (or begin == end): what a corpus record carries for them.
  std::string_view DocumentBytes(DocId begin, DocId end) const;
  /// Ids ever issued, released ones included.
  size_t size() const { return arena_first_ + ends_.size(); }
  bool empty() const { return size() == 0; }
  /// The smallest retained id (size() when none is).
  DocId first_retained() const { return first_retained_; }
  /// Σ terms.size() over the retained documents, kept as a running total.
  size_t retained_term_entries() const { return retained_term_entries_; }
  /// Heap bytes the documents take: the arena and the end offsets, counted
  /// from their capacities.
  size_t bytes() const {
    return arena_.capacity() + ends_.capacity() * sizeof(uint32_t);
  }

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
  // Offset in arena_ of document `id`, for arena_first_ <= id <= size().
  uint32_t Begin(DocId id) const {
    const size_t i = id - arena_first_;
    return i == 0 ? 0 : ends_[i - 1];
  }
  // Widens MinTime/MaxTime to `time` and counts `entries` retained.
  void Admit(DayTime time, size_t entries);
  // Makes room for `more` bytes at the end of arena_.
  void Reserve(size_t more);
  // Drops the released documents from arena_ and ends_, leaving room for
  // `more` bytes.
  void Compact(size_t more);

  // Documents [arena_first_, size()) back to back; those below
  // first_retained_ are released.
  std::string arena_;
  // ends_[i]: the end offset in arena_ of document arena_first_ + i.
  std::vector<uint32_t> ends_;
  DocId arena_first_ = 0;
  DocId first_retained_ = 0;
  size_t retained_term_entries_ = 0;
  DayTime min_time_ = 0.0;
  DayTime max_time_ = 0.0;
};

}  // namespace nidc

#endif  // NIDC_CORPUS_CORPUS_H_
