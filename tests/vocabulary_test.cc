#include "nidc/text/vocabulary.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "nidc/corpus/corpus.h"
#include "nidc/util/random.h"
#include "vocabulary_terms.h"

namespace nidc {
namespace {

TEST(VocabularyTest, AssignsDenseIdsInFirstSeenOrder) {
  Vocabulary v;
  EXPECT_EQ(v.GetOrAdd("alpha"), 0u);
  EXPECT_EQ(v.GetOrAdd("beta"), 1u);
  EXPECT_EQ(v.GetOrAdd("gamma"), 2u);
  EXPECT_EQ(v.size(), 3u);
}

TEST(VocabularyTest, GetOrAddIsIdempotent) {
  Vocabulary v;
  const TermId id = v.GetOrAdd("term");
  EXPECT_EQ(v.GetOrAdd("term"), id);
  EXPECT_EQ(v.size(), 1u);
}

TEST(VocabularyTest, LookupWithoutInterning) {
  Vocabulary v;
  v.GetOrAdd("known");
  EXPECT_EQ(v.Lookup("known"), 0u);
  EXPECT_EQ(v.Lookup("unknown"), kInvalidTermId);
  EXPECT_EQ(v.size(), 1u);  // Lookup never grows
}

TEST(VocabularyTest, TermOfRoundTrips) {
  Vocabulary v;
  const TermId id = v.GetOrAdd("roundtrip");
  Result<std::string> term = v.TermOf(id);
  ASSERT_TRUE(term.ok());
  EXPECT_EQ(term.value(), "roundtrip");
}

TEST(VocabularyTest, TermOfOutOfRange) {
  Vocabulary v;
  EXPECT_EQ(v.TermOf(0).status().code(), StatusCode::kOutOfRange);
  v.GetOrAdd("x");
  EXPECT_EQ(v.TermOf(1).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(v.TermOf(5).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(v.TermOf(kInvalidTermId).status().code(),
            StatusCode::kOutOfRange);
}

TEST(VocabularyTest, TermViewsMatchIds) {
  Vocabulary v;
  v.GetOrAdd("a");
  v.GetOrAdd("bc");
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v.term(0), "a");
  EXPECT_EQ(v.term(1), "bc");
}

TEST(VocabularyTest, EmptyVocabulary) {
  Vocabulary v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.Lookup("anything"), kInvalidTermId);
  EXPECT_EQ(v.Lookup(""), kInvalidTermId);
}

TEST(VocabularyTest, EmptyTermIsATerm) {
  Vocabulary v;
  EXPECT_EQ(v.GetOrAdd(""), 0u);
  EXPECT_EQ(v.GetOrAdd("x"), 1u);
  EXPECT_EQ(v.GetOrAdd(""), 0u);
  Vocabulary w;
  w.GetOrAdd("x");
  EXPECT_EQ(w.Lookup(""), kInvalidTermId);
  EXPECT_EQ(w.GetOrAdd(""), 1u);
  EXPECT_EQ(w.GetOrAdd("y"), 2u);
  for (const Vocabulary* vocabulary : {&v, &w}) {
    const TermId id = vocabulary->Lookup("");
    ASSERT_NE(id, kInvalidTermId);
    EXPECT_EQ(vocabulary->term(id), "");
    EXPECT_EQ(vocabulary->TermOf(id).value(), "");
  }
  EXPECT_EQ(Terms(w), (std::vector<std::string>{"x", "", "y"}));
}

TEST(VocabularyTest, ManyTermsStayConsistent) {
  Vocabulary v;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(v.GetOrAdd("term" + std::to_string(i)),
              static_cast<TermId>(i));
  }
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(v.Lookup("term" + std::to_string(i)),
              static_cast<TermId>(i));
  }
}

// A seeded stream of repeats and new terms of mixed lengths, long enough
// to grow the id table many times over, against a hash-map reference.
TEST(VocabularyTest, MatchesAReferenceMapAcrossTableGrowths) {
  Rng rng(20061);
  Vocabulary v;
  std::unordered_map<std::string, TermId> reference;
  std::vector<std::string> reference_terms;
  for (int i = 0; i < 40000; ++i) {
    const std::string token =
        std::string(rng.NextBounded(12), 'q') +
        std::to_string(rng.NextZipf(8000, 0.8));
    const auto [it, added] = reference.emplace(
        token, static_cast<TermId>(reference_terms.size()));
    if (added) reference_terms.push_back(token);
    ASSERT_EQ(v.GetOrAdd(token), it->second) << "token " << i;
    ASSERT_EQ(v.size(), reference_terms.size());
  }
  ASSERT_GT(v.size(), 4096u);  // the table grew from 16 slots to 16,384+
  EXPECT_EQ(Terms(v), reference_terms);
  for (TermId id = 0; id < reference_terms.size(); ++id) {
    EXPECT_EQ(v.Lookup(reference_terms[id]), id);
    EXPECT_EQ(v.term(id), reference_terms[id]);
    EXPECT_EQ(v.TermOf(id).value(), reference_terms[id]);
  }
  for (int i = 0; i < 1000; ++i) {
    const std::string unseen = "z" + std::to_string(i);
    EXPECT_EQ(v.Lookup(unseen), kInvalidTermId) << unseen;
  }
}

TEST(VocabularyTest, TruncateDropsTheTailAndReAddingRestoresIt) {
  Vocabulary v;
  std::vector<std::string> terms;
  for (int i = 0; i < 300; ++i) {
    terms.push_back("t" + std::to_string(i * 7919));
    v.GetOrAdd(terms.back());
  }
  v.Truncate(v.size());  // no-ops
  v.Truncate(1000);
  ASSERT_EQ(v.size(), 300u);

  v.Truncate(37);
  ASSERT_EQ(v.size(), 37u);
  EXPECT_EQ(Terms(v), std::vector<std::string>(terms.begin(),
                                                terms.begin() + 37));
  for (TermId id = 0; id < terms.size(); ++id) {
    EXPECT_EQ(v.Lookup(terms[id]), id < 37 ? id : kInvalidTermId) << id;
  }
  EXPECT_EQ(v.TermOf(37).status().code(), StatusCode::kOutOfRange);

  // The dropped terms come back under the same ids.
  for (TermId id = 37; id < terms.size(); ++id) {
    EXPECT_EQ(v.GetOrAdd(terms[id]), id);
  }
  EXPECT_EQ(Terms(v), terms);

  v.Truncate(0);
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.Lookup(terms[0]), kInvalidTermId);
  EXPECT_EQ(v.GetOrAdd(terms[5]), 0u);
  EXPECT_EQ(v.term(0), terms[5]);
}

// A corpus record whose last term already holds another id: Install
// interns the terms before it, finds the clash and rolls back.
TEST(VocabularyTest, CollidingInstallLeavesTheVocabularyAsItWas) {
  Corpus corpus;
  corpus.AddText("zebra crossing at the river bank", 0.0);
  const Vocabulary& vocabulary = corpus.vocabulary();
  const std::vector<std::string> before = Terms(vocabulary);
  ASSERT_GE(before.size(), 3u);

  std::vector<std::string> fresh;
  for (int i = 0; i < 100; ++i) fresh.push_back("fresh" + std::to_string(i));
  std::vector<std::string_view> record(fresh.begin(), fresh.end());
  record.push_back(before[1]);
  EXPECT_FALSE(corpus
                   .Install(static_cast<TermId>(before.size()), record,
                            corpus.size(), {})
                   .ok());

  EXPECT_EQ(Terms(vocabulary), before);
  for (TermId id = 0; id < before.size(); ++id) {
    EXPECT_EQ(vocabulary.Lookup(before[id]), id);
  }
  for (const std::string& term : fresh) {
    EXPECT_EQ(vocabulary.Lookup(term), kInvalidTermId) << term;
  }
  EXPECT_EQ(corpus.vocabulary().GetOrAdd(fresh[0]), before.size());
}

// The memory gate: interning distinct short terms, as a tenant's
// vocabulary does, costs at most kMaxBytesPerTerm heap bytes per term at
// every size from 1,000 terms on, by Vocabulary::bytes(). The worst case
// follows a growth of the id table (four slots per term, then) or of the
// arena; this stream measured 37.3 at worst and 25.6 at its end. The
// earlier vector of strings plus hash map of strings took 108-125 heap
// bytes per term on it, by mallinfo2.
TEST(VocabularyTest, HeapBytesPerShortTermStayBounded) {
  constexpr double kMaxBytesPerTerm = 40.0;
  Vocabulary v;
  Rng rng(36);
  double worst = 0.0;
  for (int i = 0; i < 50000; ++i) {
    std::string term = std::to_string(i);
    term.append(rng.NextBounded(6), 'a');  // 1-10 bytes, mean 7.3
    v.GetOrAdd(term);
    if (v.size() >= 1000) {
      worst = std::max(worst, static_cast<double>(v.bytes()) / v.size());
    }
  }
  ASSERT_EQ(v.size(), 50000u);
  EXPECT_LE(worst, kMaxBytesPerTerm);
  RecordProperty("worst_bytes_per_term", std::to_string(worst));
  RecordProperty("final_bytes_per_term",
                 std::to_string(static_cast<double>(v.bytes()) / v.size()));
}

}  // namespace
}  // namespace nidc
