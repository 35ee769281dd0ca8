#include "nidc/core/state_io.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <type_traits>

#include "nidc/util/string_util.h"

namespace nidc {

namespace {

template <typename T>
void AppendNumber(std::string* out, T value) {
  char buf[24];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), value);
  out->append(buf, r.ptr);
}

// "<tag> <n> <id>*n\n"
void AppendIds(std::string* out, const char* tag,
               const std::vector<DocId>& ids) {
  out->append(tag);
  out->push_back(' ');
  AppendNumber(out, ids.size());
  for (DocId id : ids) {
    out->push_back(' ');
    AppendNumber(out, id);
  }
  out->push_back('\n');
}

// "<tag> <n> (<id> <hex value>)*n\n"
template <typename Id>
void AppendExactPairs(std::string* out, const char* tag,
                      const std::vector<std::pair<Id, double>>& pairs) {
  out->append(tag);
  out->push_back(' ');
  AppendNumber(out, pairs.size());
  for (const auto& [id, value] : pairs) {
    out->push_back(' ');
    AppendNumber(out, id);
    out->push_back(' ');
    AppendHexDouble(value, out);
  }
  out->push_back('\n');
}

bool IsSpace(char c) {
  return c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' ||
         c == '\f';
}

// Whitespace-separated tokens of a state text, read in place: nothing is
// copied, and every read says whether it found what it expected.
class TokenCursor {
 public:
  explicit TokenCursor(std::string_view text) : rest_(text) {}

  // The next token; empty at the end of the text.
  std::string_view Next() {
    size_t begin = 0;
    while (begin < rest_.size() && IsSpace(rest_[begin])) ++begin;
    size_t end = begin;
    while (end < rest_.size() && !IsSpace(rest_[end])) ++end;
    const std::string_view token = rest_.substr(begin, end - begin);
    rest_.remove_prefix(end);
    return token;
  }

  bool Word(std::string_view expected) { return Next() == expected; }

  // An integer, or a finite decimal double, that is the whole next token.
  template <typename T>
  bool Number(T* value) {
    const std::optional<T> parsed = ParseNumber<T>(Next());
    if (!parsed) return false;
    if constexpr (std::is_floating_point_v<T>) {
      if (!std::isfinite(*parsed)) return false;
    }
    *value = *parsed;
    return true;
  }

  bool HexDouble(double* value) {
    const std::optional<double> parsed = ParseHexDouble(Next());
    if (parsed) *value = *parsed;
    return parsed.has_value();
  }

  // `token` as a count of items each at least `min_chars` long: a count
  // the rest of the text cannot hold is damage, not an allocation request.
  bool Count(std::string_view token, size_t min_chars, size_t* n) const {
    const std::optional<size_t> parsed = ParseNumber<size_t>(token);
    if (!parsed || *parsed > rest_.size() / min_chars) return false;
    *n = *parsed;
    return true;
  }
  bool Count(size_t min_chars, size_t* n) {
    return Count(Next(), min_chars, n);
  }

  bool AtEnd() { return Next().empty(); }

 private:
  std::string_view rest_;
};

// Reads "<tag> <n> <id>*n"; each id takes a separator and a digit.
bool ReadIds(TokenCursor& in, std::string_view tag, std::vector<DocId>* ids) {
  size_t n = 0;
  if (!in.Word(tag) || !in.Count(2, &n)) return false;
  ids->resize(n);
  for (DocId& id : *ids) {
    if (!in.Number(&id)) return false;
  }
  return true;
}

// Reads "<tag> <n> (<id> <hex value>)*n"; a pair takes at least 4 chars.
template <typename Id>
bool ReadExactPairs(TokenCursor& in, std::string_view tag,
                    std::vector<std::pair<Id, double>>* pairs) {
  size_t n = 0;
  if (!in.Word(tag) || !in.Count(4, &n)) return false;
  pairs->resize(n);
  for (auto& [id, value] : *pairs) {
    if (!in.Number(&id) || !in.HexDouble(&value)) return false;
  }
  return true;
}

Status ParseExactSection(TokenCursor& in, ExactModelState* exact) {
  if (!in.Word("now") || !in.HexDouble(&exact->now)) {
    return Status::InvalidArgument("malformed exact now field");
  }
  if (!in.Word("tdw") || !in.HexDouble(&exact->tdw)) {
    return Status::InvalidArgument("malformed exact tdw field");
  }
  if (!ReadExactPairs(in, "weights", &exact->weights)) {
    return Status::InvalidArgument("malformed exact weights list");
  }
  if (!in.Word("scale") || !in.HexDouble(&exact->term_scale)) {
    return Status::InvalidArgument("malformed exact scale field");
  }
  if (!ReadExactPairs(in, "terms", &exact->term_sums)) {
    return Status::InvalidArgument("malformed exact terms list");
  }
  return Status::OK();
}

// The result section after its "clusters" word; `count_token` is the
// cluster count that follows it. A cluster line takes at least 10 chars.
Status ParseResultBody(TokenCursor& in, std::string_view count_token,
                       ClusteringResult* result) {
  size_t num_clusters = 0;
  if (!in.Count(count_token, 10, &num_clusters)) {
    return Status::InvalidArgument("bad cluster count: " +
                                   std::string(count_token));
  }
  result->clusters.resize(num_clusters);
  for (std::vector<DocId>& members : result->clusters) {
    if (!ReadIds(in, "cluster", &members)) {
      return Status::InvalidArgument("malformed cluster member list");
    }
  }
  if (!ReadIds(in, "outliers", &result->outliers)) {
    return Status::InvalidArgument("malformed outlier list");
  }
  if (!in.Word("g") || !in.Number(&result->g)) {
    return Status::InvalidArgument("malformed g line");
  }
  int converged = 0;
  if (!in.Word("iterations") || !in.Number(&result->iterations) ||
      !in.Number(&converged)) {
    return Status::InvalidArgument("malformed iterations line");
  }
  result->converged = converged != 0;
  return Status::OK();
}

}  // namespace

void AppendResultSection(const ClusteringResult& result, std::string* out) {
  out->append("clusters ");
  AppendNumber(out, result.clusters.size());
  out->push_back('\n');
  for (const auto& members : result.clusters) {
    AppendIds(out, "cluster", members);
  }
  AppendIds(out, "outliers", result.outliers);
  out->append("g ");
  AppendDouble17(result.g, out);
  out->append("\niterations ");
  AppendNumber(out, result.iterations);
  out->append(result.converged ? " 1\n" : " 0\n");
}

Result<ClusteringResult> ParseResultSection(std::string_view text) {
  TokenCursor in(text);
  if (!in.Word("clusters")) {
    return Status::InvalidArgument("malformed clusters header");
  }
  ClusteringResult result;
  NIDC_RETURN_NOT_OK(ParseResultBody(in, in.Next(), &result));
  if (!in.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after result section");
  }
  return result;
}

ClustererState CaptureState(const IncrementalClusterer& clusterer) {
  ClustererState state;
  state.params = clusterer.model().params();
  state.now = clusterer.model().now();
  state.active_docs = clusterer.model().active_docs();
  state.last_result = clusterer.last_result();
  state.step_count = clusterer.step_count();
  state.exact = clusterer.model().CaptureExact();
  return state;
}

std::string SerializeState(const ClustererState& state) {
  // The active ids appear twice (clusters and outliers hold them again),
  // an id with its separator rarely takes over 8 characters and an exact
  // pair over 32: the text grows in place once, if at all.
  const size_t exact_pairs =
      state.exact.weights.size() + state.exact.term_sums.size();
  std::string out;
  out.reserve(256 + 16 * state.active_docs.size() + 32 * exact_pairs);
  out.append("nidc-state v2\nparams ");
  AppendDouble17(state.params.half_life_days, &out);
  out.push_back(' ');
  AppendDouble17(state.params.life_span_days, &out);
  out.append("\nnow ");
  AppendDouble17(state.now, &out);
  out.append("\nsteps ");
  AppendNumber(&out, state.step_count);
  out.push_back('\n');
  AppendIds(&out, "active", state.active_docs);
  if (!state.last_result) {
    out.append("clusters none\n");
  } else {
    AppendResultSection(*state.last_result, &out);
  }
  const ExactModelState& exact = state.exact;
  out.append("exact\nnow ");
  AppendHexDouble(exact.now, &out);
  out.append(" tdw ");
  AppendHexDouble(exact.tdw, &out);
  out.push_back('\n');
  AppendExactPairs(&out, "weights", exact.weights);
  out.append("scale ");
  AppendHexDouble(exact.term_scale, &out);
  out.push_back('\n');
  AppendExactPairs(&out, "terms", exact.term_sums);
  return out;
}

Result<ClustererState> ParseState(std::string_view text) {
  TokenCursor in(text);
  if (!in.Word("nidc-state") || !in.Word("v2")) {
    return Status::InvalidArgument("not a nidc-state v2 snapshot");
  }
  ClustererState state;
  if (!in.Word("params") || !in.Number(&state.params.half_life_days) ||
      !in.Number(&state.params.life_span_days) ||
      !state.params.Validate().ok()) {
    return Status::InvalidArgument("malformed params line");
  }
  if (!in.Word("now") || !in.Number(&state.now)) {
    return Status::InvalidArgument("malformed now line");
  }
  if (!in.Word("steps") || !in.Number(&state.step_count)) {
    return Status::InvalidArgument("malformed steps line");
  }
  if (!ReadIds(in, "active", &state.active_docs)) {
    return Status::InvalidArgument("malformed active list");
  }
  if (!in.Word("clusters")) {
    return Status::InvalidArgument("malformed clusters header");
  }
  const std::string_view count_token = in.Next();
  if (count_token != "none") {
    ClusteringResult result;
    NIDC_RETURN_NOT_OK(ParseResultBody(in, count_token, &result));
    state.last_result = std::move(result);
  }
  if (!in.Word("exact")) {
    return Status::InvalidArgument("missing exact section");
  }
  NIDC_RETURN_NOT_OK(ParseExactSection(in, &state.exact));
  if (!in.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after exact section");
  }
  return state;
}

Status SaveState(const ClustererState& state, const std::string& path,
                 Env* env) {
  if (env == nullptr) env = Env::Default();
  return AtomicWriteFile(env, path, SerializeState(state));
}

Result<ClustererState> LoadState(const std::string& path, Env* env) {
  if (env == nullptr) env = Env::Default();
  auto contents = env->ReadFileToString(path);
  if (!contents.ok()) return contents.status();
  return ParseState(*contents);
}

Result<std::unique_ptr<IncrementalClusterer>> RestoreClusterer(
    const Corpus* corpus, IncrementalOptions options,
    const ClustererState& state) {
  NIDC_RETURN_NOT_OK(state.params.Validate());
  for (DocId id : state.active_docs) {
    if (id >= corpus->size()) {
      return Status::InvalidArgument(
          "snapshot references document " + std::to_string(id) +
          " beyond the corpus (wrong corpus for this snapshot?)");
    }
    if (id < corpus->first_retained()) {
      return Status::InvalidArgument("snapshot references document " +
                                     std::to_string(id) +
                                     ", which the corpus has released");
    }
    if (corpus->doc(id).time > state.now) {
      return Status::InvalidArgument(
          "snapshot clock precedes document " + std::to_string(id) +
          "'s acquisition time");
    }
  }
  const std::vector<std::pair<DocId, double>>& weights = state.exact.weights;
  if (!std::equal(weights.begin(), weights.end(), state.active_docs.begin(),
                  state.active_docs.end(),
                  [](const auto& w, DocId id) { return w.first == id; })) {
    return Status::InvalidArgument(
        "exact weights disagree with the active list");
  }
  auto clusterer = std::make_unique<IncrementalClusterer>(
      corpus, state.params, options);
  NIDC_RETURN_NOT_OK(clusterer->RestoreExact(state.exact, state.last_result,
                                             state.step_count));
  return clusterer;
}

}  // namespace nidc
