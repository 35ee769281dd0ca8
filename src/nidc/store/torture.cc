#include "nidc/store/torture.h"

#include <cstdio>
#include <map>
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

// Mutating operations of a recovered store that the second-crash sweep
// kills in turn.
constexpr uint64_t kSecondCrashOps = 8;

// Wipes every file in `dir` (flat directory; checkpoint dirs have no
// subdirectories).
void WipeDir(Env* env, const std::string& dir) {
  Result<std::vector<std::string>> names = env->ListDir(dir);
  if (!names.ok()) return;  // directory absent: nothing to wipe
  for (const std::string& name : *names) {
    env->RemoveFile(dir + "/" + name);
  }
}

// Every file of a flat checkpoint directory, by name.
using DirImage = std::map<std::string, std::string>;

Result<DirImage> ReadImage(Env* env, const std::string& dir) {
  DirImage image;
  Result<std::vector<std::string>> names = env->ListDir(dir);
  if (!names.ok()) return image;  // directory absent: nothing stored
  for (const std::string& name : *names) {
    Result<std::string> contents = env->ReadFileToString(dir + "/" + name);
    if (!contents.ok()) return contents.status();
    image[name] = std::move(contents).value();
  }
  return image;
}

// Makes `dir` hold exactly `image`.
Status WriteImage(Env* env, const std::string& dir, const DirImage& image) {
  WipeDir(env, dir);
  for (const auto& [name, contents] : image) {
    Result<std::unique_ptr<WritableFile>> file =
        env->NewWritableFile(dir + "/" + name, /*truncate=*/true);
    if (!file.ok()) return file.status();
    NIDC_RETURN_NOT_OK((*file)->Append(contents));
    NIDC_RETURN_NOT_OK((*file)->Close());
  }
  return Status::OK();
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

// Opens the store on `env`, streams the batches it has not applied and
// closes it, stopping at `env`'s injected crash. Returns the steps the
// store had applied when it stopped: under kEveryRecord each of them was
// logged and synced first.
Result<uint64_t> RunUntilCrash(const TortureOptions& options,
                               const TortureStream& stream,
                               const IncrementalOptions& incremental,
                               FaultInjectionEnv* env) {
  Result<std::unique_ptr<DurableClusterer>> opened = DurableClusterer::Open(
      stream.corpus.get(), options.params, incremental,
      MakeDurableOptions(options, env));
  if (!opened.ok()) return 0;  // Open was the crashing operation
  const Status fed = FeedRemaining(opened->get(), stream);
  if (!fed.ok() && fed.code() != StatusCode::kIOError) return fed;
  if (!env->crashed()) {
    (*opened)->Close();  // may itself be the crashing operation
  }
  return (*opened)->applied_steps();
}

// Recovers on a healthy filesystem, finishes the stream and compares the
// final state with `want`. Under kEveryRecord the recovery must also keep
// the `synced_steps` the crashed run applied. Returns what went wrong,
// empty when nothing did; `info` receives the recovery's RecoveryInfo.
std::string RecoverAndFinish(const TortureOptions& options,
                             const TortureStream& stream,
                             const IncrementalOptions& incremental,
                             const std::string& want, uint64_t synced_steps,
                             RecoveryInfo* info) {
  Result<std::unique_ptr<DurableClusterer>> recovered =
      DurableClusterer::Open(stream.corpus.get(), options.params, incremental,
                             MakeDurableOptions(options, Env::Default()));
  if (!recovered.ok()) {
    return "recovery failed: " + recovered.status().ToString();
  }
  *info = (*recovered)->recovery();
  if (options.wal_sync == WalSyncMode::kEveryRecord &&
      (*recovered)->applied_steps() < synced_steps) {
    return StringPrintf("recovery lost synced steps (%llu of %llu)",
                        static_cast<unsigned long long>(
                            (*recovered)->applied_steps()),
                        static_cast<unsigned long long>(synced_steps));
  }
  if (const Status fed = FeedRemaining(recovered->get(), stream);
      !fed.ok()) {
    return "resume failed: " + fed.ToString();
  }
  const std::string got = Fingerprint((*recovered)->clusterer());
  (*recovered)->Close();
  if (got != want) {
    return "recovered final state diverges from the uninterrupted run";
  }
  return "";
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
    Result<uint64_t> synced_steps =
        RunUntilCrash(options, stream, incremental, &fault_env);
    if (!synced_steps.ok()) return synced_steps.status();
    if (!fault_env.crashed()) {
      // The whole run (open + stream + close) finished under the injected
      // budget: every reachable crash point has been exercised.
      report.passed = true;
      return report;
    }
    ++report.kill_points_exercised;
    const std::string kill_point =
        StringPrintf("kill point %llu (flush mode %d)",
                     static_cast<unsigned long long>(kill),
                     static_cast<int>(flush));
    Result<DirImage> image = ReadImage(base, options.dir);
    if (!image.ok()) return image.status();

    // Recovery with a healthy filesystem: reopen, resume, finish.
    RecoveryInfo info;
    std::string failure = RecoverAndFinish(options, stream, incremental,
                                           want, *synced_steps, &info);
    if (!failure.empty()) {
      report.failure = kill_point + ": " + failure;
      return report;
    }
    ++report.recoveries;
    if (info.installed_records > 0) {
      ++report.kill_points_installed;
    } else if (info.replayed_records > 0) {
      ++report.kill_points_rerun;
    }

    // Second crash: the same recovery, killed in turn at each of the
    // reopened store's first mutating operations, then recovered once
    // more on a healthy filesystem. Only a recovery that resumed stored
    // state has a reopened generation to crash in.
    for (uint64_t op = 1; info.resumed && op <= kSecondCrashOps; ++op) {
      NIDC_RETURN_NOT_OK(WriteImage(base, options.dir, *image));
      const CrashFlush second_flush =
          static_cast<CrashFlush>((kill + op) % 3);
      FaultInjectionEnv second_env(base);
      second_env.ArmCrashAtOp(op, second_flush);
      synced_steps = RunUntilCrash(options, stream, incremental, &second_env);
      if (!synced_steps.ok()) return synced_steps.status();
      if (!second_env.crashed()) break;  // the resumed run ended sooner
      RecoveryInfo second_info;
      failure = RecoverAndFinish(options, stream, incremental, want,
                                 *synced_steps, &second_info);
      if (!failure.empty()) {
        report.failure = StringPrintf(
            "%s, second crash at op %llu (flush mode %d): %s",
            kill_point.c_str(), static_cast<unsigned long long>(op),
            static_cast<int>(second_flush), failure.c_str());
        return report;
      }
      ++report.second_crash_runs;
    }
    if (options.report_every > 0 && kill % options.report_every == 0) {
      std::fprintf(stderr, "torture: %llu kill points ok\n",
                   static_cast<unsigned long long>(kill));
    }
  }
}

}  // namespace nidc
