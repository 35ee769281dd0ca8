// Seeded mutation fuzzing of the parsers the sharded service feeds with
// bytes from the network or from a tenant directory: ParseIngestJsonl
// (POST /ingest bodies), TraceContext::FromTraceparent (the traceparent
// header), TenantConfig::FromJson (TENANT.json) and ParseJson beneath
// them, and repl::FrameParser (a follower's replication stream). Each
// starts from a real input and tries truncations, byte flips and token
// splices (see fuzz_mutate.h). Nothing may crash; whatever parses must be
// a valid value, and where the parser has an encoder, encoding it is a
// fixed point.

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "fuzz_mutate.h"
#include "nidc/core/state_io.h"
#include "nidc/obs/json_util.h"
#include "nidc/obs/reqtrace.h"
#include "nidc/repl/wire.h"
#include "nidc/serve/http_server.h"
#include "nidc/shard/ingest.h"
#include "nidc/shard/tenant.h"
#include "nidc/store/torture.h"
#include "nidc/store/wal.h"
#include "nidc/util/random.h"

namespace nidc {
namespace {

constexpr int kMutationsPerKind = 1500;

// Tokens that stress a JSON parser and the numbers it hands on.
constexpr const char* kHostileJsonTokens[] = {
    "{",          "}",           "[",         "]",
    "\"",         ":",           ",",         "\\",
    "\"\\u\"",    "\"\\u-7f0\"", "\"\\u+07f\"", "\"\\u00ff\"",
    "\"\\u0000\"", "1e400",      "-1e400",    "-1",
    "2.5",        "4294967296",  "-2147483649", "18446744073709551616",
    "9007199254740993", "-0",    "null",      "true",
    "nan",        "inf",         "0x10",      ""};

// `json` with a space after each ':' and ',', so that token splices move
// whole keys and values.
std::string Spaced(const std::string& json) {
  std::string out;
  for (char c : json) {
    out += c;
    if (c == ':' || c == ',') out += ' ';
  }
  return out;
}

// Mutation `kind` of `seed`, spliced as text with JSON-hostile tokens.
std::string MutateJson(const std::string& seed, int kind, Rng& rng) {
  return Mutate(seed, kind, /*text=*/true, rng, kHostileJsonTokens);
}

bool SameDocuments(const std::vector<RawDocument>& a,
                   const std::vector<RawDocument>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].time != b[i].time || a[i].topic != b[i].topic ||
        a[i].source != b[i].source || a[i].text != b[i].text) {
      return false;
    }
  }
  return true;
}

TEST(ParserFuzzTest, MutatedIngestBodiesParseToAFixedPoint) {
  RawDocument first;
  first.time = 12.5;
  first.text = "raw document text with \"quotes\"";
  first.topic = 3;
  first.source = "ap";
  RawDocument second;
  second.time = 0.25;
  second.text = "tobacco settlement senate lawsuit";
  const std::string seed =
      Spaced(shard::FormatIngestJsonl({first, second}));
  ASSERT_TRUE(shard::ParseIngestJsonl(seed).ok());
  Rng rng(41);
  size_t parsed = 0;
  for (int kind = 0; kind < 3; ++kind) {
    for (int i = 0; i < kMutationsPerKind; ++i) {
      const std::string body = MutateJson(seed, kind, rng);
      Result<std::vector<RawDocument>> docs = shard::ParseIngestJsonl(body);
      if (!docs.ok()) continue;
      ++parsed;
      for (const RawDocument& doc : *docs) {
        ASSERT_TRUE(std::isfinite(doc.time)) << body;
        ASSERT_NE(doc.text.find_first_not_of(' '), std::string::npos)
            << body;
      }
      const std::string encoded = shard::FormatIngestJsonl(*docs);
      Result<std::vector<RawDocument>> again =
          shard::ParseIngestJsonl(encoded);
      ASSERT_TRUE(again.ok()) << again.status().ToString() << "\n" << body;
      ASSERT_TRUE(SameDocuments(*again, *docs)) << body;
    }
  }
  EXPECT_GT(parsed, 0u);
}

TEST(ParserFuzzTest, IngestTopicOutsideInt32IsRefused) {
  for (const char* topic : {"4294967296", "-2147483649", "1e400", "-1e400",
                            "2.5"}) {
    const std::string body =
        std::string(R"({"time": 1, "text": "a b", "topic": )") + topic + "}";
    EXPECT_FALSE(shard::ParseIngestJsonl(body).ok()) << body;
  }
  const Result<std::vector<RawDocument>> edge = shard::ParseIngestJsonl(
      R"({"time": 1, "text": "a b", "topic": -2147483648})");
  ASSERT_TRUE(edge.ok()) << edge.status().ToString();
  EXPECT_EQ(edge->front().topic, -2147483648);
}

TEST(ParserFuzzTest, MutatedTraceparentsYieldValidOrInvalidContexts) {
  const obs::TraceContext context{0x0af7651916cd43ddull,
                                  0x8448eb211c80319cull};
  const std::string seed = context.ToTraceparent();
  ASSERT_EQ(obs::TraceContext::FromTraceparent(seed), context);
  Rng rng(42);
  size_t valid = 0;
  for (int kind = 0; kind < 3; ++kind) {
    for (int i = 0; i < kMutationsPerKind; ++i) {
      const std::string header =
          Mutate(seed, kind, /*text=*/i % 2 == 0, rng, kHostileJsonTokens);
      const obs::TraceContext parsed =
          obs::TraceContext::FromTraceparent(header);
      if (!parsed.valid()) continue;
      ++valid;
      ASSERT_EQ(obs::TraceContext::FromTraceparent(parsed.ToTraceparent()),
                parsed)
          << header;
      ASSERT_EQ(obs::TraceContext::FromHex(parsed.ToHex()), parsed)
          << header;
    }
  }
  EXPECT_GT(valid, 0u);
}

TEST(ParserFuzzTest, MutatedTenantConfigsParseToAFixedPoint) {
  shard::TenantConfig config;
  config.params.half_life_days = 7.0;
  config.params.life_span_days = 14.0;
  config.k = 24;
  config.step_days = 0.5;
  config.start_time = 3.25;
  config.seed = 1234;
  const std::string seed = Spaced(config.ToJson());
  ASSERT_TRUE(shard::TenantConfig::FromJson(seed).ok());
  Rng rng(43);
  size_t parsed = 0;
  for (int kind = 0; kind < 3; ++kind) {
    for (int i = 0; i < kMutationsPerKind; ++i) {
      const std::string json = MutateJson(seed, kind, rng);
      Result<shard::TenantConfig> mutated = shard::TenantConfig::FromJson(json);
      if (!mutated.ok()) continue;
      ++parsed;
      ASSERT_TRUE(mutated->Validate().ok()) << json;
      const std::string encoded = mutated->ToJson();
      Result<shard::TenantConfig> again =
          shard::TenantConfig::FromJson(encoded);
      ASSERT_TRUE(again.ok()) << again.status().ToString() << "\n" << json;
      ASSERT_EQ(again->ToJson(), encoded) << json;
    }
  }
  EXPECT_GT(parsed, 0u);
}

TEST(ParserFuzzTest, TenantConfigIntegersOutOfRangeAreRefused) {
  shard::TenantConfig config;
  const std::string json = config.ToJson();
  const std::string k = "\"k\":" + std::to_string(config.k);
  const std::string seed = "\"seed\":" + std::to_string(config.seed);
  ASSERT_NE(json.find(k), std::string::npos);
  ASSERT_NE(json.find(seed), std::string::npos);
  for (const char* value : {"-1", "2.5", "1e400", "18446744073709551616"}) {
    for (const std::string& field : {k, seed}) {
      std::string mutated = json;
      const std::string key = field.substr(0, field.find(':') + 1);
      mutated.replace(mutated.find(field), field.size(), key + value);
      EXPECT_FALSE(shard::TenantConfig::FromJson(mutated).ok()) << mutated;
    }
  }
}

TEST(ParserFuzzTest, TenantSeedsRoundTripExactlyUpTo2To53) {
  shard::TenantConfig config;
  config.seed = shard::TenantConfig::kMaxSeed;
  ASSERT_TRUE(config.Validate().ok());
  Result<shard::TenantConfig> again =
      shard::TenantConfig::FromJson(config.ToJson());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->seed, config.seed);
  EXPECT_EQ(again->k, config.k);
  EXPECT_EQ(again->ToJson(), config.ToJson());
  // 2^53 + 1 is the first seed a JSON number reads back as another one.
  config.seed = shard::TenantConfig::kMaxSeed + 1;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ParserFuzzTest, MutatedJsonDocumentsParseOrFail) {
  const std::string seed = Spaced(
      R"({"a":[1,2.5,-3e2,true,false,null],"s":"x\"y\\\u0041\n",)"
      R"("o":{"k":[],"n":{"m":[{"z":0}]}},"e":{}})");
  ASSERT_TRUE(obs::ParseJson(seed).ok());
  Rng rng(44);
  size_t parsed = 0;
  for (int kind = 0; kind < 3; ++kind) {
    for (int i = 0; i < kMutationsPerKind; ++i) {
      const std::string text = MutateJson(seed, kind, rng);
      Result<obs::JsonValue> value = obs::ParseJson(text);
      if (value.ok()) ++parsed;
    }
  }
  EXPECT_GT(parsed, 0u);
}

TEST(ParserFuzzTest, UnicodeEscapesNeedFourHexDigits) {
  for (const char* text : {R"("\u-7f0")", R"("\u+07f")", R"("\u 7f0")",
                           R"("\u00ff")", R"("\u7")"}) {
    EXPECT_FALSE(obs::ParseJson(text).ok()) << text;
  }
  const Result<obs::JsonValue> value = obs::ParseJson(R"("\u004a\u007F")");
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_EQ(value->string_value, "J\x7f");
}

TEST(ParserFuzzTest, DeepNestingIsRefusedNotRecursedInto) {
  // Largest-possible request bodies of brackets: each level recursed into
  // costs stack, so nesting is bounded.
  const std::string arrays(serve::kMaxBodyBytes, '[');
  std::string objects;  // {"":{"":{... — an object nests through a key.
  while (objects.size() + 4 <= serve::kMaxBodyBytes) objects += "{\"\":";
  for (const std::string& text : {arrays, objects}) {
    const Result<obs::JsonValue> value = obs::ParseJson(text);
    ASSERT_FALSE(value.ok());
    EXPECT_NE(value.status().ToString().find("nested"), std::string::npos)
        << value.status().ToString();
    EXPECT_FALSE(shard::ParseIngestJsonl(text).ok());
  }
  std::string shallow;
  for (int i = 0; i < 64; ++i) shallow += '[';
  for (int i = 0; i < 64; ++i) shallow += ']';
  EXPECT_TRUE(obs::ParseJson(shallow).ok());
}

// A replication stream of one frame of each type, as a leader ships it:
// the snapshot frame carries a serialized ClustererState and the WAL
// record frame a step record, both from a real clustering run.
std::string ReplicationStream() {
  TortureOptions shape;
  shape.num_steps = 8;
  const TortureStream stream = BuildTortureStream(shape);
  IncrementalOptions options;
  options.kmeans.k = shape.k;
  IncrementalClusterer clusterer(stream.corpus.get(), shape.params, options);
  for (size_t i = 0; i < stream.batches.size(); ++i) {
    (void)clusterer.Step(stream.batches[i], stream.taus[i]);
  }
  const size_t last = stream.batches.size() - 1;
  const uint64_t steps = stream.batches.size();
  const auto frame = [](repl::FrameType type, uint64_t generation,
                        uint64_t sequence, uint64_t leader_steps,
                        std::string payload) {
    return repl::EncodeFrame(
        {type, generation, sequence, leader_steps, std::move(payload)});
  };
  return frame(repl::FrameType::kHello, 1, 0, 0, "") +
         frame(repl::FrameType::kSnapshot, 2, 0, steps,
               SerializeState(CaptureState(clusterer))) +
         frame(repl::FrameType::kWalRecord, 2, 1, steps,
               EncodeStepRecord({stream.taus[last], stream.batches[last]})) +
         frame(repl::FrameType::kSeal, 2, 1, steps, "") +
         frame(repl::FrameType::kHeartbeat, 3, 0, steps, "");
}

// What a FrameParser yields from `bytes` up to its first error: each
// frame as the bytes it consumed, and the error (empty when none).
struct ParsedStream {
  std::vector<std::string> frames;
  std::string error;
};

// Feeds `bytes` to a fresh FrameParser all at once when `chunks` is null,
// else in chunks of random size, draining Next() after every Feed. Every
// frame must re-encode to exactly the bytes it consumed.
ParsedStream ParseFrames(const std::string& bytes, Rng* chunks) {
  repl::FrameParser parser;
  ParsedStream out;
  size_t fed = 0;
  size_t consumed = 0;
  for (;;) {
    for (;;) {
      Result<std::optional<repl::ReplFrame>> next = parser.Next();
      if (!next.ok()) {
        out.error = next.status().ToString();
        return out;
      }
      if (!next->has_value()) break;
      const size_t end = fed - parser.buffered_bytes();
      const std::string frame_bytes = bytes.substr(consumed, end - consumed);
      EXPECT_EQ(repl::EncodeFrame(**next), frame_bytes)
          << "frame " << out.frames.size();
      out.frames.push_back(frame_bytes);
      consumed = end;
    }
    if (fed == bytes.size()) return out;
    size_t n = bytes.size() - fed;
    if (chunks != nullptr) {
      // Mostly short chunks, which split headers, sometimes long ones.
      n = std::min<size_t>(
          n, 1 + chunks->NextBounded(1 + chunks->NextBounded(bytes.size())));
    }
    parser.Feed(std::string_view(bytes).substr(fed, n));
    fed += n;
  }
}

TEST(ParserFuzzTest, MutatedReplicationStreamsFrameAlikeInAnyChunking) {
  const std::string seed = ReplicationStream();
  Rng chunks(52);
  const ParsedStream whole = ParseFrames(seed, nullptr);
  ASSERT_EQ(whole.frames.size(), 5u);
  ASSERT_EQ(whole.error, "");
  const ParsedStream chunked = ParseFrames(seed, &chunks);
  ASSERT_EQ(chunked.frames, whole.frames);
  ASSERT_EQ(chunked.error, "");

  Rng rng(51);
  size_t failed = 0;
  size_t truncated = 0;
  for (int kind = 0; kind < 3; ++kind) {
    for (int i = 0; i < kMutationsPerKind; ++i) {
      const std::string bytes = Mutate(seed, kind, /*text=*/false, rng);
      const ParsedStream at_once = ParseFrames(bytes, nullptr);
      const ParsedStream in_chunks = ParseFrames(bytes, &chunks);
      ASSERT_EQ(in_chunks.frames, at_once.frames) << "kind " << kind;
      ASSERT_EQ(in_chunks.error, at_once.error) << "kind " << kind;
      failed += at_once.error.empty() ? 0 : 1;
      truncated += at_once.error.empty() && at_once.frames.size() < 5 ? 1 : 0;
    }
  }
  // Damage is refused, and a cut stream yields its whole frames.
  EXPECT_GT(failed, 0u);
  EXPECT_GT(truncated, 0u);
}

}  // namespace
}  // namespace nidc
