// A document's term-frequency bag f_ik: (term id, count) entries sorted by
// id. Counts are integers; every weight derived from them (ψ_i, Pr(t_k),
// tf·idf) converts the count to double where it is used.
//
// TermCounts owns its entries (the Analyzer's output). TermCountsView reads
// the same entries from the varint bytes a corpus stores them in (see
// corpus_io.cc for the record layout): per entry the id's delta from the
// previous id (the first one's from 0) and the count.

#ifndef NIDC_TEXT_TERM_COUNTS_H_
#define NIDC_TEXT_TERM_COUNTS_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "nidc/text/sparse_vector.h"

namespace nidc {

/// Sorted, unique-id term counts. Every count is at least 1.
class TermCounts {
 public:
  struct Entry {
    TermId id;
    uint32_t count;
    bool operator==(const Entry& other) const = default;
  };
  static_assert(sizeof(Entry) == 8);

  TermCounts() = default;

  /// Adopts entries whose ids strictly increase and whose counts are at
  /// least 1 (checked in debug builds only).
  static TermCounts FromSortedEntries(std::vector<Entry> entries);

  const std::vector<Entry>& entries() const { return entries_; }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  bool operator==(const TermCounts& other) const = default;

 private:
  std::vector<Entry> entries_;  // sorted by id, unique ids
};

/// Appends `v` as a LEB128 varint (7 bits a byte, low bits first).
void PutVarint(std::string* out, uint64_t v);

/// Reads the varint PutVarint wrote at `*p` and moves `*p` past it. The
/// bytes must already be known to hold one: nothing is bounds-checked.
inline uint64_t GetVarint(const char** p) {
  // Counts and most lengths take one byte, most id deltas two.
  const auto* bytes = reinterpret_cast<const unsigned char*>(*p);
  if (bytes[0] < 0x80) {
    *p += 1;
    return bytes[0];
  }
  if (bytes[1] < 0x80) {
    *p += 2;
    return (bytes[0] & 0x7Fu) | (static_cast<uint64_t>(bytes[1]) << 7);
  }
  uint64_t v = (bytes[0] & 0x7Fu) | ((bytes[1] & 0x7Fu) << 7);
  for (int i = 2, shift = 14;; ++i, shift += 7) {
    v |= static_cast<uint64_t>(bytes[i] & 0x7F) << shift;
    if (bytes[i] < 0x80) {
      *p += i + 1;
      return v;
    }
  }
}

/// Appends the entries of `counts` in the varint form TermCountsView reads
/// (without their number, which the corpus record writes before them).
void AppendTermCounts(std::string* out, const TermCounts& counts);

/// The entries of one document's term counts, decoded from their varint
/// bytes on each pass. The view neither owns nor bounds-checks the bytes:
/// whoever makes it vouches that `data` holds `size` well-formed entries
/// (a Corpus, for the documents it stores).
class TermCountsView {
 public:
  using Entry = TermCounts::Entry;

  class iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = Entry;
    using difference_type = std::ptrdiff_t;
    using pointer = const Entry*;
    using reference = Entry;

    iterator() = default;
    iterator(const char* p, size_t remaining) : p_(p), remaining_(remaining) {
      if (remaining_ > 0) Decode();
    }
    Entry operator*() const { return entry_; }
    const Entry* operator->() const { return &entry_; }
    iterator& operator++() {
      if (--remaining_ > 0) Decode();
      return *this;
    }
    iterator operator++(int) {
      iterator before = *this;
      ++*this;
      return before;
    }
    bool operator==(const iterator& other) const {
      return remaining_ == other.remaining_;
    }

   private:
    void Decode() {
      entry_.id += static_cast<TermId>(GetVarint(&p_));
      entry_.count = static_cast<uint32_t>(GetVarint(&p_));
    }

    const char* p_ = nullptr;
    size_t remaining_ = 0;
    Entry entry_{0, 0};
  };

  TermCountsView() = default;
  TermCountsView(const char* data, size_t size) : data_(data), size_(size) {}

  iterator begin() const { return iterator(data_, size_); }
  iterator end() const { return iterator(); }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Σ of the counts as a double: the integer total, converted once. Each
  /// partial sum is an integer, exact in a double below 2⁵³, so this is
  /// the value an in-order double fold gives.
  double Sum() const;

  /// The entries, owned.
  TermCounts ToTermCounts() const;

  /// Equal entries (the bytes may lie in different stores).
  bool operator==(const TermCountsView& other) const;

 private:
  const char* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace nidc

#endif  // NIDC_TEXT_TERM_COUNTS_H_
