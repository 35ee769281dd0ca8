#include "nidc/corpus/document.h"

#include <cstring>

namespace nidc {

void AppendDocument(std::string* out, DayTime time, TopicId topic,
                    std::string_view source, const TermCounts& terms) {
  uint64_t time_bits = 0;
  std::memcpy(&time_bits, &time, sizeof(time_bits));
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>(time_bits >> (8 * i)));
  }
  const auto unsigned_topic = static_cast<uint32_t>(topic);
  PutVarint(out, (unsigned_topic << 1) ^ static_cast<uint32_t>(topic >> 31));
  PutVarint(out, source.size());
  out->append(source);
  PutVarint(out, terms.size());
  AppendTermCounts(out, terms);
}

Document ViewDocument(DocId id, const char* data) {
  Document doc;
  doc.id = id;
  uint64_t time_bits = 0;
  for (int i = 0; i < 8; ++i) {
    time_bits |= static_cast<uint64_t>(static_cast<unsigned char>(data[i]))
                 << (8 * i);
  }
  std::memcpy(&doc.time, &time_bits, sizeof(doc.time));
  const char* p = data + 8;
  const uint64_t zigzag = GetVarint(&p);
  doc.topic = static_cast<TopicId>((zigzag >> 1) ^ (~(zigzag & 1) + 1));
  const uint64_t source_size = GetVarint(&p);
  doc.source = std::string_view(p, source_size);
  p += source_size;
  const uint64_t num_entries = GetVarint(&p);
  doc.terms = TermCountsView(p, num_entries);
  return doc;
}

}  // namespace nidc
