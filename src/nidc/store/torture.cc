#include "nidc/store/torture.h"

#include <cstdio>
#include <random>

#include "nidc/core/state_io.h"
#include "nidc/util/fault_env.h"
#include "nidc/util/string_util.h"

namespace nidc {

namespace {

// Four synthetic "topics" with overlapping but distinguishable vocabulary,
// so every step poses a small real clustering problem.
constexpr const char* kTopicWords[4][8] = {
    {"election", "senate", "vote", "ballot", "campaign", "poll", "candidate",
     "debate"},
    {"earthquake", "rescue", "aftershock", "tremor", "relief", "damage",
     "evacuation", "magnitude"},
    {"championship", "tournament", "goal", "finals", "coach", "stadium",
     "season", "victory"},
    {"merger", "shares", "market", "earnings", "investor", "acquisition",
     "profit", "quarter"},
};

// Wipes every file in `dir` (flat directory; checkpoint dirs have no
// subdirectories).
void WipeDir(Env* env, const std::string& dir) {
  Result<std::vector<std::string>> names = env->ListDir(dir);
  if (!names.ok()) return;  // directory absent: nothing to wipe
  for (const std::string& name : *names) {
    env->RemoveFile(dir + "/" + name);
  }
}

std::string Fingerprint(const IncrementalClusterer& clusterer) {
  return SerializeState(CaptureState(clusterer));
}

DurableOptions MakeDurableOptions(const TortureOptions& options, Env* env) {
  DurableOptions durable;
  durable.dir = options.dir;
  durable.checkpoint_every = options.checkpoint_every;
  durable.wal_sync = options.wal_sync;
  durable.env = env;
  return durable;
}

// Feeds batches starting at the clusterer's applied-step index. Stops on
// kIOError (the injected crash); any other unexpected error is fatal.
Status FeedRemaining(DurableClusterer* durable, const TortureStream& stream) {
  for (size_t i = durable->applied_steps(); i < stream.batches.size(); ++i) {
    Result<StepResult> result =
        durable->Step(stream.batches[i], stream.taus[i]);
    if (result.ok()) continue;
    const StatusCode code = result.status().code();
    if (code == StatusCode::kFailedPrecondition) continue;
    if (code == StatusCode::kIOError) return result.status();
    return Status::Internal("torture step " + std::to_string(i) +
                            " rejected: " + result.status().ToString());
  }
  return Status::OK();
}

}  // namespace

TortureStream BuildTortureStream(const TortureOptions& options) {
  TortureStream stream;
  stream.corpus = std::make_unique<Corpus>();
  std::mt19937 rng(static_cast<uint32_t>(options.seed));
  std::uniform_int_distribution<size_t> pick_word(0, 7);
  for (size_t i = 0; i < options.num_steps; ++i) {
    const DayTime tau = static_cast<double>(i + 1) * options.step_days;
    std::vector<DocId> batch;
    for (size_t d = 0; d < options.docs_per_step; ++d) {
      const size_t topic = (i + d) % 4;
      std::string text;
      for (size_t w = 0; w < 6; ++w) {
        if (w > 0) text += ' ';
        text += kTopicWords[topic][pick_word(rng)];
      }
      const DayTime time =
          static_cast<double>(i) * options.step_days +
          options.step_days * static_cast<double>(d + 1) /
              static_cast<double>(options.docs_per_step + 1);
      batch.push_back(stream.corpus->AddText(
          text, time, static_cast<TopicId>(topic + 1)));
    }
    stream.batches.push_back(std::move(batch));
    stream.taus.push_back(tau);
  }
  return stream;
}

Result<TortureReport> RunCrashTorture(const TortureOptions& options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("TortureOptions::dir is required");
  }
  TortureReport report;
  const TortureStream stream = BuildTortureStream(options);
  IncrementalOptions incremental;
  incremental.kmeans.k = options.k;

  // Reference: the uninterrupted run.
  IncrementalClusterer reference(stream.corpus.get(), options.params,
                                 incremental);
  for (size_t i = 0; i < stream.batches.size(); ++i) {
    Result<StepResult> result =
        reference.Step(stream.batches[i], stream.taus[i]);
    if (!result.ok() &&
        result.status().code() != StatusCode::kFailedPrecondition) {
      return Status::Internal("reference step " + std::to_string(i) +
                              " failed: " + result.status().ToString());
    }
  }
  const std::string want = Fingerprint(reference);

  Env* base = Env::Default();
  for (uint64_t kill = 1;; ++kill) {
    if (options.max_kill_points > 0 && kill > options.max_kill_points) {
      report.passed = report.failure.empty();
      return report;
    }
    WipeDir(base, options.dir);

    // Doomed run: crash at the kill-th mutating filesystem operation,
    // cycling the three crash-flush policies across kill points.
    const CrashFlush flush = static_cast<CrashFlush>((kill - 1) % 3);
    FaultInjectionEnv fault_env(base);
    fault_env.ArmCrashAtOp(kill, flush);
    {
      Result<std::unique_ptr<DurableClusterer>> doomed =
          DurableClusterer::Open(stream.corpus.get(), options.params,
                                 incremental,
                                 MakeDurableOptions(options, &fault_env));
      if (doomed.ok()) {
        const Status fed = FeedRemaining(doomed->get(), stream);
        if (!fed.ok() && fed.code() != StatusCode::kIOError) return fed;
        if (!fault_env.crashed()) {
          (*doomed)->Close();  // may itself be the crashing operation
        }
      }
    }
    if (!fault_env.crashed()) {
      // The whole run (open + stream + close) finished under the injected
      // budget: every reachable crash point has been exercised.
      report.passed = true;
      return report;
    }
    ++report.kill_points_exercised;

    // Recovery with a healthy filesystem: reopen, resume, finish.
    Result<std::unique_ptr<DurableClusterer>> recovered =
        DurableClusterer::Open(stream.corpus.get(), options.params,
                               incremental, MakeDurableOptions(options, base));
    if (!recovered.ok()) {
      report.failure = StringPrintf(
          "kill point %llu (flush mode %d): recovery failed: %s",
          static_cast<unsigned long long>(kill), static_cast<int>(flush),
          recovered.status().ToString().c_str());
      return report;
    }
    ++report.recoveries;
    const RecoveryInfo& info = (*recovered)->recovery();
    if (info.installed_records > 0) {
      ++report.kill_points_installed;
    } else if (info.replayed_records > 0) {
      ++report.kill_points_rerun;
    }
    if (const Status fed = FeedRemaining(recovered->get(), stream);
        !fed.ok()) {
      report.failure = StringPrintf(
          "kill point %llu (flush mode %d): resume failed: %s",
          static_cast<unsigned long long>(kill), static_cast<int>(flush),
          fed.ToString().c_str());
      return report;
    }
    const std::string got = Fingerprint((*recovered)->clusterer());
    (*recovered)->Close();
    if (got != want) {
      report.failure = StringPrintf(
          "kill point %llu (flush mode %d): recovered final state "
          "diverges from the uninterrupted run",
          static_cast<unsigned long long>(kill), static_cast<int>(flush));
      return report;
    }
    if (options.report_every > 0 && kill % options.report_every == 0) {
      std::fprintf(stderr, "torture: %llu kill points ok\n",
                   static_cast<unsigned long long>(kill));
    }
  }
}

}  // namespace nidc
