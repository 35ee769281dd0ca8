#include "nidc/corpus/corpus.h"

#include <algorithm>
#include <limits>

namespace nidc {

Corpus::Corpus()
    : vocabulary_(std::make_unique<Vocabulary>()),
      analyzer_(std::make_unique<Analyzer>(vocabulary_.get())) {}

DocId Corpus::Add(Document doc) {
  doc.id = static_cast<DocId>(size());
  if (empty()) {
    min_time_ = max_time_ = doc.time;
  } else {
    min_time_ = std::min(min_time_, doc.time);
    max_time_ = std::max(max_time_, doc.time);
  }
  retained_term_entries_ += doc.terms.size();
  docs_.push_back(std::move(doc));
  return docs_.back().id;
}

void Corpus::ReleaseBefore(DocId end) {
  while (first_retained_ < end && !docs_.empty()) {
    retained_term_entries_ -= docs_.front().terms.size();
    docs_.pop_front();
    ++first_retained_;
  }
}

DocId Corpus::AddText(std::string_view text, DayTime time, TopicId topic,
                      std::string source) {
  Document doc;
  doc.time = time;
  doc.topic = topic;
  doc.source = std::move(source);
  doc.terms = analyzer_->Analyze(text);
  return Add(std::move(doc));
}

Status Corpus::Install(TermId first_term,
                       const std::vector<std::string_view>& new_terms,
                       DocId first_doc, std::vector<Document> docs) {
  if (first_term != vocabulary_->size() ||
      (first_doc != size() && !empty())) {
    return Status::InvalidArgument("corpus record does not follow the corpus");
  }
  const size_t vocabulary_size = first_term + new_terms.size();
  for (const Document& doc : docs) {
    const auto& entries = doc.terms.entries();
    if (!entries.empty() && entries.back().id >= vocabulary_size) {
      return Status::InvalidArgument("corpus record names an unknown term");
    }
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
    first_retained_ = first_doc;
    min_time_ = std::numeric_limits<DayTime>::infinity();
    max_time_ = -min_time_;
  }
  for (Document& doc : docs) Add(std::move(doc));
  return Status::OK();
}

bool Corpus::IsChronological() const {
  return std::is_sorted(docs_.begin(), docs_.end(),
                        [](const Document& a, const Document& b) {
                          return a.time < b.time;
                        });
}

std::vector<DocId> Corpus::DocsInRange(DayTime begin, DayTime end) const {
  std::vector<DocId> out;
  for (const Document& doc : docs_) {
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
  for (const Document& doc : docs_) {
    if (doc.topic != kNoTopic) ++counts[doc.topic];
  }
  return counts;
}

}  // namespace nidc
