// Inverted index over term-frequency vectors: TermId → postings. The
// candidate-pruning structure classic TDT systems pair with single-pass
// methods — two documents can only have non-zero (novelty or cosine)
// similarity when they share at least one term, so similarity search needs
// to touch only the union of the query's posting lists, not the corpus.
//
// Supports removal (documents expire under the forgetting model) via
// tombstoning with amortized compaction: posting lists are append-only
// vectors; dead entries are filtered on read and physically dropped once
// they outnumber live ones.

#ifndef NIDC_TEXT_INVERTED_INDEX_H_
#define NIDC_TEXT_INVERTED_INDEX_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "nidc/corpus/document.h"

namespace nidc {

/// One posting: a document and the term's frequency in it.
struct Posting {
  DocId doc = 0;
  double tf = 0.0;
  bool operator==(const Posting& other) const = default;
};

/// Append/remove inverted index over Document term vectors.
class InvertedIndex {
 public:
  InvertedIndex() = default;

  /// Indexes a document (must not already be present).
  void Add(const Document& doc);

  /// Unindexes a document (must be present). O(1) amortized: entries are
  /// tombstoned and compacted lazily.
  void Remove(const Document& doc);

  bool Contains(DocId id) const { return alive_.contains(id); }
  size_t num_docs() const { return alive_.size(); }
  size_t num_terms() const { return postings_.size(); }

  /// Live postings of a term, materialized (compacts the list if stale).
  std::vector<Posting> Postings(TermId term) const;

  /// Distinct live documents sharing at least one term with `query`,
  /// excluding `exclude` (pass the query doc's own id; kInvalidDocId-like
  /// behaviour via any id not in the index is fine).
  std::vector<DocId> Candidates(const TermCounts& query,
                                DocId exclude) const;

  /// Document frequency (live) of a term.
  size_t DocumentFrequency(TermId term) const;

  /// Drops everything.
  void Clear();

 private:
  // Internal entries carry the document's add-epoch so that a document
  // removed and re-added does not resurrect its stale entries: an entry is
  // live iff its document is alive AND it was written by the latest Add.
  struct Entry {
    DocId doc = 0;
    double tf = 0.0;
    uint32_t epoch = 0;
  };
  struct PostingList {
    std::vector<Entry> entries;  // may contain tombstoned entries
    size_t dead = 0;
  };

  bool IsLive(const Entry& entry) const;

  /// Physically removes tombstoned entries when they dominate.
  void MaybeCompact(PostingList* list) const;

  mutable std::unordered_map<TermId, PostingList> postings_;
  std::unordered_set<DocId> alive_;
  std::unordered_map<DocId, uint32_t> epoch_;
};

}  // namespace nidc

#endif  // NIDC_TEXT_INVERTED_INDEX_H_
