#include "nidc/corpus/corpus.h"

#include <algorithm>
#include <limits>

#include "nidc/util/logging.h"

namespace nidc {

Corpus::Corpus()
    : vocabulary_(std::make_unique<Vocabulary>()),
      analyzer_(std::make_unique<Analyzer>(vocabulary_.get())) {}

void Corpus::Admit(DayTime time, size_t entries) {
  if (empty()) {
    min_time_ = max_time_ = time;
  } else {
    min_time_ = std::min(min_time_, time);
    max_time_ = std::max(max_time_, time);
  }
  retained_term_entries_ += entries;
}

DocId Corpus::Add(DayTime time, TopicId topic, std::string_view source,
                  const TermCounts& terms) {
  const auto id = static_cast<DocId>(size());
  Admit(time, terms.size());
  Reserve(EncodedSizeBound(source, terms));
  AppendDocument(&arena_, time, topic, source, terms);
  ends_.push_back(static_cast<uint32_t>(arena_.size()));
  return id;
}

void Corpus::ReleaseBefore(DocId end) {
  end = static_cast<DocId>(std::min<size_t>(end, size()));
  for (; first_retained_ < end; ++first_retained_) {
    retained_term_entries_ -= doc(first_retained_).terms.size();
  }
  const uint32_t dead = Begin(first_retained_);
  const size_t live = arena_.size() - dead;
  if (dead > arena_.size() / 2 || live < arena_.capacity() / 2) Compact(0);
}

void Corpus::Reserve(size_t more) {
  NIDC_CHECK(more <= std::numeric_limits<uint32_t>::max() - arena_.size())
      << "corpus document arena passed 4 GiB";
  if (arena_.size() + more > arena_.capacity()) Compact(more);
}

void Corpus::Compact(size_t more) {
  const uint32_t dead = Begin(first_retained_);
  const size_t live = arena_.size() - dead;
  const size_t released = first_retained_ - arena_first_;
  const size_t need = live + more;
  if (need <= arena_.capacity() && dead >= arena_.size() / 4 &&
      need >= arena_.capacity() / 2) {
    // In place: it frees at least a quarter of the arena, and the arena
    // is not twice what it has to hold.
    arena_.erase(0, dead);
    ends_.erase(ends_.begin(), ends_.begin() + released);
  } else {
    // Grow, or shrink, into a fresh arena half again as large as what it
    // must hold; the released documents stay behind.
    std::string arena;
    arena.reserve(need + need / 2);
    arena.append(arena_, dead, live);
    arena_.swap(arena);
    const size_t retained = ends_.size() - released;
    std::vector<uint32_t> ends;
    ends.reserve(retained + retained / 2);
    ends.assign(ends_.begin() + released, ends_.end());
    ends_.swap(ends);
  }
  for (uint32_t& e : ends_) e -= dead;
  arena_first_ = first_retained_;
}

std::string_view Corpus::DocumentBytes(DocId begin, DocId end) const {
  if (begin == end) return {};
  const uint32_t from = Begin(begin);
  return std::string_view(arena_).substr(from, Begin(end) - from);
}

DocId Corpus::AddText(std::string_view text, DayTime time, TopicId topic,
                      std::string_view source) {
  return Add(time, topic, source, analyzer_->Analyze(text));
}

Status Corpus::Install(TermId first_term,
                       const std::vector<std::string_view>& new_terms,
                       DocId first_doc, const EncodedDocuments& docs) {
  if (first_term != vocabulary_->size() ||
      (first_doc != size() && !empty())) {
    return Status::InvalidArgument("corpus record does not follow the corpus");
  }
  size_t term_bytes = 0;
  for (std::string_view term : new_terms) term_bytes += term.size();
  vocabulary_->Reserve(new_terms.size(), term_bytes);
  TermId expected = first_term;
  for (std::string_view term : new_terms) {
    if (vocabulary_->GetOrAdd(term) != expected++) {
      vocabulary_->Truncate(first_term);
      return Status::InvalidArgument("corpus record term \"" +
                                     std::string(term) +
                                     "\" does not get its recorded id");
    }
  }
  if (first_doc > size()) {
    // Nothing is known of the documents before first_doc.
    arena_first_ = first_retained_ = first_doc;
    min_time_ = std::numeric_limits<DayTime>::infinity();
    max_time_ = -min_time_;
  }
  Reserve(docs.bytes.size());
  const auto base = static_cast<uint32_t>(arena_.size());
  arena_.append(docs.bytes);
  uint32_t begin = 0;
  for (const uint32_t end : docs.ends) {
    const Document doc = ViewDocument(0, docs.bytes.data() + begin);
    Admit(doc.time, doc.terms.size());
    ends_.push_back(base + end);
    begin = end;
  }
  return Status::OK();
}

bool Corpus::IsChronological() const {
  DayTime previous = -std::numeric_limits<DayTime>::infinity();
  for (const Document& doc : docs()) {
    if (doc.time < previous) return false;
    previous = doc.time;
  }
  return true;
}

std::vector<DocId> Corpus::DocsInRange(DayTime begin, DayTime end) const {
  std::vector<DocId> out;
  for (const Document& doc : docs()) {
    if (doc.time >= begin && doc.time < end) out.push_back(doc.id);
  }
  return out;
}

std::vector<TopicId> Corpus::Topics() const {
  std::vector<TopicId> out;
  for (const auto& [topic, count] : TopicCounts()) out.push_back(topic);
  return out;
}

std::map<TopicId, size_t> Corpus::TopicCounts() const {
  std::map<TopicId, size_t> counts;
  for (const Document& doc : docs()) {
    if (doc.topic != kNoTopic) ++counts[doc.topic];
  }
  return counts;
}

}  // namespace nidc
