// Corpus records, a tenant's one commit point: the record codec and
// Corpus::Install, then tenant reopen from the store alone — after a
// clean close and after a crash, with the corpus.tsv archive gone, and at
// every kill point of one ingest, where the batch is kept whole or not at
// all. Last, a tenant that releases its expired documents over several
// life spans, across a reopen.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "nidc/core/incremental_clusterer.h"
#include "nidc/core/state_io.h"
#include "nidc/corpus/corpus_io.h"
#include "nidc/corpus/stream.h"
#include "nidc/shard/ingest.h"
#include "nidc/shard/tenant.h"
#include "nidc/store/manifest.h"
#include "nidc/store/wal.h"
#include "nidc/util/fault_env.h"
#include "temp_path.h"
#include "vocabulary_terms.h"

namespace nidc::shard {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = TestTempPath("nidc_corpus_index_" + name);
  std::filesystem::remove_all(dir);
  return dir;
}

std::string CopyDir(const std::string& from, const std::string& name) {
  const std::string to = FreshDir(name);
  std::filesystem::copy(from, to, std::filesystem::copy_options::recursive);
  return to;
}

TenantConfig SmallConfig() {
  TenantConfig config;
  config.params.half_life_days = 7.0;
  config.params.life_span_days = 30.0;
  config.k = 3;
  config.step_days = 1.0;
  config.seed = 42;
  return config;
}

// `days` days of `per_day` documents each, with vocabulary that keeps
// growing (new terms in later batches) and a salt so feeds differ.
std::vector<RawDocument> MakeFeed(const std::string& salt, int first_day,
                                  int days, int per_day) {
  std::vector<RawDocument> docs;
  for (int d = first_day; d < first_day + days; ++d) {
    for (int i = 0; i < per_day; ++i) {
      RawDocument doc;
      doc.time = d + 0.1 + 0.8 * i / per_day;
      doc.topic = i % 3;
      doc.source = i % 2 == 0 ? "wire" : "";
      doc.text = salt + "term" + std::to_string(i % 5) + " " + salt +
                 "word" + std::to_string((i + d) % 7) + " shared common " +
                 salt + "day" + std::to_string(d) + " running the runs";
      docs.push_back(std::move(doc));
    }
  }
  auto parsed = ParseIngestJsonl(FormatIngestJsonl(docs));
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return std::move(parsed).value();
}

std::vector<std::vector<RawDocument>> InBatches(
    const std::vector<RawDocument>& docs, size_t batch_docs) {
  std::vector<std::vector<RawDocument>> batches;
  for (size_t off = 0; off < docs.size(); off += batch_docs) {
    const size_t n = std::min(batch_docs, docs.size() - off);
    batches.emplace_back(docs.begin() + off, docs.begin() + off + n);
  }
  return batches;
}

std::unique_ptr<Tenant> MustOpen(const std::string& dir,
                                 const TenantRuntime& runtime = {}) {
  auto tenant = Tenant::Open("t", dir, runtime);
  EXPECT_TRUE(tenant.ok()) << dir << ": " << tenant.status().ToString();
  return tenant.ok() ? std::move(tenant).value() : nullptr;
}

// The retained documents of `actual` equal the same ids of `full`, and
// the vocabularies are equal.
void ExpectRetainedMatch(const Corpus& actual, const Corpus& full) {
  EXPECT_EQ(Terms(actual.vocabulary()), Terms(full.vocabulary()));
  ASSERT_EQ(actual.size(), full.size());
  for (DocId id = actual.first_retained(); id < actual.size(); ++id) {
    const Document& a = actual.doc(id);
    const Document& e = full.doc(id);
    EXPECT_EQ(a.id, e.id);
    EXPECT_EQ(a.time, e.time) << "doc " << id;
    EXPECT_EQ(a.topic, e.topic) << "doc " << id;
    EXPECT_EQ(a.source, e.source) << "doc " << id;
    EXPECT_EQ(a.terms, e.terms) << "doc " << id;
  }
}

// ---------------------------------------------------------------------------
// Record codec and Corpus::Install.

Corpus AnalyzedCorpus() {
  Corpus corpus;
  corpus.AddText("Running runners ran the race", 0.5, 2, "wire");
  corpus.AddText("the race runs again, racing", 1.25, kNoTopic, "");
  corpus.AddText("a fresh topic entirely", 2.0, -7, "feed\x01");
  return corpus;
}

TEST(CorpusIndexRecordTest, RoundTripsIntoAnIdenticalCorpus) {
  const Corpus source = AnalyzedCorpus();
  // Two records: the first document, then the other two.
  Corpus first_only;
  first_only.AddText("Running runners ran the race", 0.5, 2, "wire");
  const auto split_term =
      static_cast<TermId>(first_only.vocabulary().size());

  const std::string head =
      EncodeCorpusIndexRecord(first_only, {0, split_term, 0, 1});
  const std::string tail = EncodeCorpusIndexRecord(
      source,
      {split_term, static_cast<TermId>(source.vocabulary().size()), 1, 3});
  Result<CorpusIndexRecord> a = DecodeCorpusIndexRecord(head);
  Result<CorpusIndexRecord> b = DecodeCorpusIndexRecord(tail);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(b->first_term, split_term);
  EXPECT_EQ(b->first_doc, 1u);
  EXPECT_EQ(b->docs.size(), 2u);
  EXPECT_EQ(b->docs.bytes, source.DocumentBytes(1, 3));

  Corpus installed;
  ASSERT_TRUE(installed
                  .Install(a->first_term, a->terms, a->first_doc,
                           a->docs)
                  .ok());
  ASSERT_TRUE(installed
                  .Install(b->first_term, b->terms, b->first_doc,
                           b->docs)
                  .ok());
  ExpectRetainedMatch(installed, source);
}

TEST(CorpusIndexRecordTest, EveryTruncationAndForeignPayloadIsRejected) {
  const Corpus source = AnalyzedCorpus();
  const std::string payload = EncodeCorpusIndexRecord(
      source, {0, static_cast<TermId>(source.vocabulary().size()), 0, 3});
  EXPECT_TRUE(IsCorpusIndexRecord(payload));
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_FALSE(
        DecodeCorpusIndexRecord(std::string_view(payload).substr(0, cut))
            .ok())
        << cut;
  }
  const std::string padded = payload + '\0';
  EXPECT_FALSE(DecodeCorpusIndexRecord(padded).ok());
  // A step record shares the WAL and is told apart by the tag.
  EXPECT_FALSE(IsCorpusIndexRecord("step 0x1p+0 0"));
  EXPECT_FALSE(DecodeCorpusIndexRecord("step 0x1p+0 0").ok());
}

// A record's contents as plain values, for writing one by hand.
struct HandDocument {
  DayTime time = 0.0;
  TopicId topic = kNoTopic;
  std::string source;
  std::vector<TermCounts::Entry> entries;
};
struct HandRecord {
  TermId first_term = 0;
  std::vector<std::string> terms;
  DocId first_doc = 0;
  std::vector<HandDocument> docs;
};

// The whole vocabulary and the retained documents of `corpus`.
HandRecord WholeCorpus(const Corpus& corpus) {
  HandRecord record;
  record.terms = Terms(corpus.vocabulary());
  record.first_doc = corpus.first_retained();
  for (const Document& doc : corpus.docs()) {
    record.docs.push_back({doc.time, doc.topic, std::string(doc.source),
                           doc.terms.ToTermCounts().entries()});
  }
  return record;
}

// The record layout written out field by field from its description in
// corpus_io.cc, independent of EncodeCorpusIndexRecord and of how a
// corpus stores a document. The first entry of the first document gets
// the frequency `first_count` instead of its own, which lets a test write
// counts TermCounts cannot hold.
void PutVarintByHand(std::string* out, uint64_t v) {
  for (; v >= 0x80; v >>= 7) out->push_back(static_cast<char>(v | 0x80));
  out->push_back(static_cast<char>(v));
}

void PutFixedByHand(std::string* out, uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) out->push_back(static_cast<char>(v >> 8 * i));
}

std::string EncodeByHand(const HandRecord& record, uint64_t first_count) {
  std::string out = "CDR1";
  PutVarintByHand(&out, record.first_term);
  PutVarintByHand(&out, record.terms.size());
  for (const std::string& term : record.terms) {
    PutVarintByHand(&out, term.size());
    out += term;
  }
  PutVarintByHand(&out, record.first_doc);
  PutVarintByHand(&out, record.docs.size());
  bool first = true;
  for (const HandDocument& doc : record.docs) {
    uint64_t time_bits = 0;
    std::memcpy(&time_bits, &doc.time, sizeof(time_bits));
    PutFixedByHand(&out, time_bits, 8);
    const int64_t topic = doc.topic;
    PutVarintByHand(&out, static_cast<uint64_t>(topic < 0 ? -2 * topic - 1
                                                          : 2 * topic));
    PutVarintByHand(&out, doc.source.size());
    out += doc.source;
    PutVarintByHand(&out, doc.entries.size());
    TermId previous = 0;
    for (const TermCounts::Entry& entry : doc.entries) {
      PutVarintByHand(&out, entry.id - previous);
      PutVarintByHand(&out, first ? first_count : entry.count);
      first = false;
      previous = entry.id;
    }
  }
  return out;
}

// One document at day 1.5 holding term 0 ("zebra") `count` times.
std::string OneTermRecord(uint64_t count) {
  HandRecord record;
  record.terms = {"zebra"};
  record.docs.push_back({1.5, kNoTopic, "", {{0, 1}}});
  return EncodeByHand(record, count);
}

TEST(CorpusIndexRecordTest, HandEncodingMatchesTheEncoder) {
  const Corpus source = AnalyzedCorpus();
  const std::string payload = EncodeCorpusIndexRecord(
      source, {0, static_cast<TermId>(source.vocabulary().size()), 0, 3});
  ASSERT_TRUE(DecodeCorpusIndexRecord(payload).ok());
  const HandRecord record = WholeCorpus(source);
  EXPECT_EQ(EncodeByHand(record, record.docs[0].entries[0].count), payload);
}

TEST(CorpusIndexRecordTest, CountsAboveThirtyTwoBitsAreDamaged) {
  const uint64_t max = std::numeric_limits<uint32_t>::max();
  for (uint64_t count : {max + 1, uint64_t{1} << 40,
                         std::numeric_limits<uint64_t>::max()}) {
    const std::string payload = OneTermRecord(count);
    const Result<CorpusIndexRecord> record = DecodeCorpusIndexRecord(payload);
    ASSERT_FALSE(record.ok()) << count;
    EXPECT_NE(record.status().ToString().find("bad term vector"),
              std::string::npos)
        << record.status().ToString();
  }
  const std::string zero = OneTermRecord(0);
  EXPECT_FALSE(DecodeCorpusIndexRecord(zero).ok());
}

TEST(CorpusIndexRecordTest, WrappingIdDeltaIsDamaged) {
  // Ids 5 and 6; the payload ends with the second entry, delta 1, count 1.
  Corpus corpus;
  for (const char* term : {"a", "b", "c", "d", "e", "f", "g"}) {
    corpus.vocabulary().GetOrAdd(term);
  }
  corpus.Add(0.0, kNoTopic, "",
             TermCounts::FromSortedEntries({{5, 1}, {6, 1}}));
  std::string payload = EncodeCorpusIndexRecord(corpus, {0, 7, 0, 1});
  ASSERT_EQ(payload.substr(payload.size() - 2), std::string("\x01\x01"));
  ASSERT_TRUE(DecodeCorpusIndexRecord(payload).ok());
  // A delta of 2⁶⁴−2 wraps 5 around to 3: a descending id.
  payload.resize(payload.size() - 2);
  PutVarintByHand(&payload, std::numeric_limits<uint64_t>::max() - 1);
  PutVarintByHand(&payload, 1);
  const Result<CorpusIndexRecord> record = DecodeCorpusIndexRecord(payload);
  ASSERT_FALSE(record.ok());
  EXPECT_NE(record.status().ToString().find("bad term vector"),
            std::string::npos);
}

TEST(CorpusIndexRecordTest, LargestThirtyTwoBitCountInstalls) {
  const uint32_t max = std::numeric_limits<uint32_t>::max();
  const std::string payload = OneTermRecord(max);
  Result<CorpusIndexRecord> record = DecodeCorpusIndexRecord(payload);
  ASSERT_TRUE(record.ok()) << record.status().ToString();
  Corpus corpus;
  ASSERT_TRUE(corpus
                  .Install(record->first_term, record->terms,
                           record->first_doc, record->docs)
                  .ok());
  ASSERT_EQ(corpus.size(), 1u);
  EXPECT_EQ(corpus.doc(0).terms.ToTermCounts(),
            TermCounts::FromSortedEntries({{0, max}}));
  EXPECT_EQ(corpus.doc(0).Length(), 4294967295.0);
  EXPECT_EQ(corpus.vocabulary().Lookup("zebra"), 0u);
}

TEST(CorpusIndexRecordTest, MismatchedInstallLeavesTheCorpusUnchanged) {
  const Corpus source = AnalyzedCorpus();
  const std::string payload = EncodeCorpusIndexRecord(
      source, {0, static_cast<TermId>(source.vocabulary().size()), 0, 3});
  Result<CorpusIndexRecord> record = DecodeCorpusIndexRecord(payload);
  ASSERT_TRUE(record.ok());

  Corpus corpus;
  corpus.AddText("race", 0.0);  // "race" now holds id 0
  const size_t vocabulary = corpus.vocabulary().size();
  // Out of place: the record starts at term 0 and document 0.
  EXPECT_FALSE(
      corpus.Install(0, record->terms, 1, record->docs).ok());
  EXPECT_FALSE(
      corpus.Install(1, record->terms, 0, record->docs).ok());
  // In place, but a recorded term already exists under another id.
  std::vector<std::string_view> clash = {"zebra", "race"};
  EXPECT_FALSE(corpus.Install(1, clash, 1, {}).ok());
  // A duplicate inside the record.
  std::vector<std::string_view> twice = {"zebra", "zebra"};
  EXPECT_FALSE(corpus.Install(1, twice, 1, {}).ok());
  // A document naming a term past the record's vocabulary is damage the
  // decoder refuses before anything is installed.
  HandRecord unknown;
  unknown.first_term = 1;
  unknown.terms = {"zebra"};
  unknown.first_doc = 1;
  unknown.docs.push_back({1.0, kNoTopic, "", {{1, 1}}});
  const std::string known_payload = EncodeByHand(unknown, 1);
  EXPECT_TRUE(DecodeCorpusIndexRecord(known_payload).ok());
  unknown.docs[0].entries = {{2, 1}};
  const std::string past_payload = EncodeByHand(unknown, 1);
  const Result<CorpusIndexRecord> past = DecodeCorpusIndexRecord(past_payload);
  ASSERT_FALSE(past.ok());
  EXPECT_NE(past.status().ToString().find("bad term vector"),
            std::string::npos);

  EXPECT_EQ(corpus.vocabulary().size(), vocabulary);
  EXPECT_EQ(corpus.size(), 1u);
  EXPECT_EQ(corpus.vocabulary().Lookup("zebra"), kInvalidTermId);
  EXPECT_EQ(corpus.vocabulary().Lookup("race"), 0u);
}

TEST(CorpusIndexRecordTest, InstallStartsAnEmptyCorpusAtAnyId) {
  // A snapshot's record: the whole vocabulary and the retained documents
  // of a corpus that released its first one.
  Corpus source = AnalyzedCorpus();
  source.ReleaseBefore(1);
  const std::string payload = EncodeCorpusIndexRecord(
      source, {0, static_cast<TermId>(source.vocabulary().size()), 1, 3});
  Result<CorpusIndexRecord> record = DecodeCorpusIndexRecord(payload);
  ASSERT_TRUE(record.ok()) << record.status().ToString();
  Corpus restored;
  ASSERT_TRUE(restored
                  .Install(record->first_term, record->terms,
                           record->first_doc, record->docs)
                  .ok());
  EXPECT_EQ(restored.first_retained(), 1u);
  ExpectRetainedMatch(restored, source);
  EXPECT_EQ(restored.retained_term_entries(), source.retained_term_entries());
  EXPECT_EQ(restored.MinTime(), 1.25);
  EXPECT_EQ(restored.MaxTime(), 2.0);
  EXPECT_EQ(restored.AddText("race", 3.0), 3u);

  // With no documents the next id still survives.
  Corpus bare;
  ASSERT_TRUE(bare.Install(0, {"zebra"}, 7, {}).ok());
  EXPECT_EQ(bare.size(), 7u);
  EXPECT_EQ(bare.first_retained(), 7u);
  EXPECT_TRUE(bare.docs().empty());
  EXPECT_EQ(bare.AddText("zebra crossing", 4.0), 7u);
  EXPECT_EQ(bare.MinTime(), 4.0);
  EXPECT_EQ(bare.MaxTime(), 4.0);
  EXPECT_EQ(bare.doc(7).terms.size(), 2u);
}

// ---------------------------------------------------------------------------
// Tenant reopen.

// The feed a tenant is sent, replayed into a plain IncrementalClusterer
// over a corpus that releases nothing, through the same windows.
class UnreleasedReplay {
 public:
  explicit UnreleasedReplay(const TenantConfig& config)
      : batcher_(config.start_time, config.step_days),
        clusterer_(&corpus_, config.params, Options(config)) {}

  void Ingest(const std::vector<RawDocument>& docs) {
    std::vector<DocumentBatch> closed;
    for (const RawDocument& doc : docs) {
      const DocId id =
          corpus_.AddText(doc.text, doc.time, doc.topic, doc.source);
      ASSERT_TRUE(batcher_.Add(id, doc.time, &closed).ok());
    }
    Step(closed);
  }

  void FlushUntil(DayTime until) {
    std::vector<DocumentBatch> closed;
    batcher_.FlushUntil(until, &closed);
    Step(closed);
  }

  std::string Digest() const {
    return SerializeState(CaptureState(clusterer_));
  }
  const Corpus& corpus() const { return corpus_; }

 private:
  static IncrementalOptions Options(const TenantConfig& config) {
    IncrementalOptions options;
    options.kmeans.k = config.k;
    options.kmeans.seed = config.seed;
    return options;
  }

  void Step(const std::vector<DocumentBatch>& closed) {
    for (const DocumentBatch& window : closed) {
      Result<StepResult> result = clusterer_.Step(window.docs, window.end);
      // The tenant skips an empty window with nothing active the same way.
      if (!result.ok()) {
        EXPECT_TRUE(window.docs.empty()) << result.status().ToString();
        EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
      }
    }
  }

  Corpus corpus_;
  TimeBatcher batcher_;
  IncrementalClusterer clusterer_;
};


class CorpusIndexTenantTest : public testing::Test {
 protected:
  void SetUp() override {
    feed_ = InBatches(MakeFeed("idx", 0, 6, 7), 5);
    more_ = InBatches(MakeFeed("idx", 6, 4, 4), 4);
    ASSERT_GE(feed_.size(), 8u);
    ASSERT_EQ(more_.size(), 4u);
    base_ = FreshDir("base");
    auto tenant = Tenant::Create("t", base_, SmallConfig(), TenantRuntime());
    ASSERT_TRUE(tenant.ok()) << tenant.status().ToString();
    for (const auto& batch : feed_) {
      ASSERT_TRUE((*tenant)->Ingest(batch).ok());
    }
    ASSERT_TRUE((*tenant)->Close().ok());
  }

  size_t TotalDocs() const {
    size_t docs = 0;
    for (const auto& batch : feed_) docs += batch.size();
    return docs;
  }

  // The tenant that never stopped: feed_ through a replay that releases
  // nothing.
  std::unique_ptr<UnreleasedReplay> Reference() const {
    auto reference = std::make_unique<UnreleasedReplay>(SmallConfig());
    for (const auto& batch : feed_) reference->Ingest(batch);
    return reference;
  }

  // Checks that `tenant` and `reference` agree on the state and the
  // retained documents, now and after each of the next three ingests,
  // more_[first_more] on.
  void ExpectMatches(Tenant& tenant, UnreleasedReplay& reference,
                     size_t first_more = 0) {
    EXPECT_EQ(tenant.StateDigest(), reference.Digest());
    ExpectRetainedMatch(tenant.corpus(), reference.corpus());
    for (size_t i = first_more; i < first_more + 3; ++i) {
      EXPECT_TRUE(tenant.Ingest(more_[i]).ok());
      reference.Ingest(more_[i]);
      EXPECT_EQ(tenant.StateDigest(), reference.Digest()) << "ingest " << i;
      ExpectRetainedMatch(tenant.corpus(), reference.corpus());
    }
  }

  std::vector<std::vector<RawDocument>> feed_;
  std::vector<std::vector<RawDocument>> more_;
  std::string base_;
};

TEST_F(CorpusIndexTenantTest, ReopenAfterCloseNeedsNoCorpusFile) {
  const std::string dir = CopyDir(base_, "closed");
  ASSERT_TRUE(std::filesystem::remove(dir + "/corpus.tsv"));
  auto tenant = MustOpen(dir);
  ASSERT_NE(tenant, nullptr);
  EXPECT_EQ(tenant->docs_ingested(), TotalDocs());
  EXPECT_EQ(tenant->recovery().replayed_records, 0u);
  // The chronological floor survives too: the open window starts at day
  // 5, but nothing may come before the newest document.
  RawDocument stale = feed_.back().back();
  stale.time -= 0.01;
  EXPECT_EQ(tenant->Ingest({stale}).code(), StatusCode::kInvalidArgument);
  ExpectMatches(*tenant, *Reference());
}

TEST_F(CorpusIndexTenantTest, ReopenAfterCrashNeedsNoCorpusFile) {
  // A process kill in mid-generation: a snapshot, then corpus and step
  // records in the WAL tail.
  const std::string dir = FreshDir("crashed");
  uint64_t generation = 0;
  {
    FaultInjectionEnv env(Env::Default());
    TenantRuntime runtime;
    runtime.env = &env;
    auto tenant = Tenant::Create("t", dir, SmallConfig(), runtime);
    ASSERT_TRUE(tenant.ok()) << tenant.status().ToString();
    for (size_t b = 0; b < feed_.size(); ++b) {
      if (b == feed_.size() / 2) {
        ASSERT_TRUE((*tenant)->Checkpoint().ok());
      }
      ASSERT_TRUE((*tenant)->Ingest(feed_[b]).ok());
    }
    generation = (*tenant)->durable().generation();
    env.ArmCrashAtOp(1, CrashFlush::kKeepUnsynced);
  }
  Result<WalReadResult> tail =
      ReadWal(Env::Default(), dir + "/store/" + WalFileName(generation));
  ASSERT_TRUE(tail.ok());
  size_t corpus_records = 0;
  for (const std::string& record : tail->records) {
    corpus_records += IsCorpusIndexRecord(record) ? 1 : 0;
  }
  EXPECT_GT(corpus_records, 0u);
  EXPECT_GT(tail->records.size(), corpus_records);

  ASSERT_TRUE(std::filesystem::remove(dir + "/corpus.tsv"));
  auto tenant = MustOpen(dir);
  ASSERT_NE(tenant, nullptr);
  EXPECT_EQ(tenant->recovery().source_generation, generation);
  EXPECT_EQ(tenant->recovery().replayed_records,
            tail->records.size() - corpus_records);
  EXPECT_EQ(tenant->docs_ingested(), TotalDocs());
  ExpectMatches(*tenant, *Reference());
}

TEST_F(CorpusIndexTenantTest, OldLayoutIsRefusedAndLeftUntouched) {
  // A TENANT.json as the corpus index layout wrote it: no layout key.
  const std::string dir = CopyDir(base_, "old_layout");
  WriteFile(dir + "/TENANT.json",
            "{\"half_life_days\":7,\"life_span_days\":30,\"k\":3,"
            "\"step_days\":1,\"start_time\":0,\"seed\":42}");
  const auto listing = [&dir] {
    std::vector<std::pair<std::string, std::string>> files;
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(dir)) {
      files.emplace_back(entry.path().string(),
                         entry.is_regular_file()
                             ? ReadFile(entry.path().string())
                             : std::string());
    }
    std::sort(files.begin(), files.end());
    return files;
  };
  const auto before = listing();
  Result<std::unique_ptr<Tenant>> opened =
      Tenant::Open("t", dir, TenantRuntime());
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(opened.status().message().find("old corpus index layout"),
            std::string::npos)
      << opened.status().ToString();
  EXPECT_EQ(listing(), before);
}

// Kill the process at every mutating file operation of one Tenant::Ingest,
// under both a process kill (every written byte survives, the interrupted
// write included) and a power loss (nothing unsynced survives). The
// batch's corpus record is its one commit point: each reopen equals a
// reference fed the whole batch or none of it, both outcomes occur, and
// the next ingests keep matching.
TEST_F(CorpusIndexTenantTest, KillPointSweepAcrossOneIngest) {
  const std::vector<RawDocument>& batch = more_[0];
  uint64_t ingest_ops = 0;
  {
    const std::string dir = CopyDir(base_, "sweep_count");
    FaultInjectionEnv env(Env::Default());
    TenantRuntime runtime;
    runtime.env = &env;
    auto tenant = MustOpen(dir, runtime);
    ASSERT_NE(tenant, nullptr);
    const uint64_t before = env.ops_issued();
    ASSERT_TRUE(tenant->Ingest(batch).ok());
    ingest_ops = env.ops_issued() - before;
  }
  // Corpus record; archive append + flush; step record + sync.
  ASSERT_GE(ingest_ops, 5u);

  size_t whole = 0;
  size_t none = 0;
  for (CrashFlush flush :
       {CrashFlush::kKeepUnsynced, CrashFlush::kDropUnsynced}) {
    for (uint64_t kill = 1; kill <= ingest_ops; ++kill) {
      const std::string name =
          "sweep_" + std::to_string(static_cast<int>(flush)) + "_" +
          std::to_string(kill);
      SCOPED_TRACE(name);
      const std::string dir = CopyDir(base_, name);
      {
        FaultInjectionEnv env(Env::Default());
        TenantRuntime runtime;
        runtime.env = &env;
        auto tenant = MustOpen(dir, runtime);
        ASSERT_NE(tenant, nullptr);
        env.ArmCrashAtOp(kill, flush);
        (void)tenant->Ingest(batch);
        EXPECT_TRUE(env.crashed());
      }
      auto tenant = MustOpen(dir);
      ASSERT_NE(tenant, nullptr);
      std::unique_ptr<UnreleasedReplay> reference = Reference();
      if (tenant->docs_ingested() == TotalDocs() + batch.size()) {
        reference->Ingest(batch);
        ++whole;
      } else {
        EXPECT_EQ(tenant->docs_ingested(), TotalDocs());
        ++none;
      }
      // The next ingests start after the batch either way.
      ExpectMatches(*tenant, *reference, /*first_more=*/1);
    }
  }
  EXPECT_GT(whole, 0u);
  EXPECT_GT(none, 0u);
}

// ---------------------------------------------------------------------------
// Release: a tenant keeps in memory only its active and unstepped documents.

// Retained = active + unstepped, exactly: nothing either is released,
// and every document expired before the oldest active one is.
void ExpectRetainsActiveAndUnstepped(Tenant& tenant,
                                     const std::vector<DayTime>& times) {
  const Corpus& corpus = tenant.corpus();
  ASSERT_EQ(corpus.size(), times.size());
  size_t unstepped = 0;
  for (DayTime time : times) unstepped += time >= tenant.now() ? 1 : 0;
  ASSERT_GE(corpus.size() - unstepped, corpus.first_retained());
  const std::vector<DocId>& active =
      tenant.durable().clusterer().model().active_docs();
  for (DocId id : active) EXPECT_GE(id, corpus.first_retained());
  EXPECT_EQ(corpus.docs().size(), active.size() + unstepped);
  EXPECT_EQ(
      tenant.metrics().GetGauge("shard.tenant.corpus_retained_docs")->Value(),
      static_cast<double>(corpus.docs().size()));
}

TEST(ReleasedCorpusTest, StaysBitIdenticalOverSeveralLifeSpans) {
  TenantConfig config = SmallConfig();
  config.params.half_life_days = 2.0;
  config.params.life_span_days = 4.0;
  // 16 days, four life spans, in batches that straddle the day borders.
  constexpr int kDays = 16;
  constexpr int kPerDay = 6;
  constexpr size_t kBatch = 4;
  const auto feed = InBatches(MakeFeed("rel", 0, kDays, kPerDay), kBatch);
  const size_t reopen_after = feed.size() / 2;
  ASSERT_NE((reopen_after + 1) * kBatch % kPerDay, 0u);  // mid-window

  const std::string dir = FreshDir("tenant");
  obs::MetricsRegistry shared;
  TenantRuntime runtime;
  runtime.shared_metrics = &shared;
  auto created = Tenant::Create("t", dir, config, runtime);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<Tenant> tenant = std::move(created).value();
  UnreleasedReplay reference(config);
  std::vector<DayTime> times;
  size_t max_retained = 0;

  for (size_t b = 0; b < feed.size(); ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    ASSERT_TRUE(tenant->Ingest(feed[b]).ok());
    reference.Ingest(feed[b]);
    for (const RawDocument& doc : feed[b]) times.push_back(doc.time);
    // Flush whenever a batch ends a day.
    if (const size_t fed = (b + 1) * kBatch; fed % kPerDay == 0) {
      const auto until = static_cast<DayTime>(fed / kPerDay);
      ASSERT_TRUE(tenant->FlushUntil(until).ok());
      reference.FlushUntil(until);
    }
    EXPECT_EQ(tenant->StateDigest(), reference.Digest());
    ExpectRetainsActiveAndUnstepped(*tenant, times);
    ExpectRetainedMatch(tenant->corpus(), reference.corpus());
    EXPECT_EQ(shared.GetGauge("shard.corpus.retained_docs")->Value(),
              static_cast<double>(tenant->corpus().docs().size()));
    max_retained = std::max(max_retained, tenant->corpus().docs().size());

    if (b == reopen_after) {
      // Evict and reopen with the archive gone: Open restores the live
      // window from the store alone.
      const std::string digest = tenant->StateDigest();
      ASSERT_TRUE(tenant->Close().ok());
      EXPECT_EQ(shared.GetGauge("shard.corpus.retained_docs")->Value(), 0.0);
      tenant.reset();
      std::filesystem::remove(dir + "/corpus.tsv");
      tenant = MustOpen(dir, runtime);
      ASSERT_NE(tenant, nullptr);
      EXPECT_EQ(tenant->StateDigest(), digest);
      ExpectRetainsActiveAndUnstepped(*tenant, times);
      ExpectRetainedMatch(tenant->corpus(), reference.corpus());
    }
  }
  // The memory bound holds: far fewer documents than were fed.
  EXPECT_GT(tenant->corpus().first_retained(), times.size() / 2);
  EXPECT_LT(max_retained, times.size() / 2);

  // The final snapshot carries the live window and the next id.
  const std::string digest = tenant->StateDigest();
  ASSERT_TRUE(tenant->Close().ok());
  tenant.reset();
  auto again = MustOpen(dir);
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(again->StateDigest(), digest);
  ExpectRetainsActiveAndUnstepped(*again, times);
}

}  // namespace
}  // namespace nidc::shard
