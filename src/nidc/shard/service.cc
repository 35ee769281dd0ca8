#include "nidc/shard/service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>

namespace nidc::shard {

namespace {

// Bound on retained latency samples; beyond it the oldest are dropped
// (the histogram keeps the full distribution either way).
constexpr size_t kMaxLatencySamples = 1 << 20;

const std::vector<double> kLatencyBucketsSeconds = {
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1,    0.25,  0.5,    1.0,   2.5,  5.0,   10.0};

// Completion timestamps retained per shard for the Retry-After drain-rate
// estimate; 32 spans enough history to smooth bursts without remembering
// a stale rate for long.
constexpr size_t kMaxCompletionSamples = 32;

}  // namespace

Status ShardService::ValidateTenantName(const std::string& name) {
  if (name.empty() || name.size() > 64) {
    return Status::InvalidArgument("tenant name must be 1..64 characters");
  }
  if (name.front() == '.') {
    return Status::InvalidArgument("tenant name must not start with '.'");
  }
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' ||
                    c == '.';
    if (!ok) {
      return Status::InvalidArgument(
          "tenant name may only contain [A-Za-z0-9_.-]");
    }
  }
  return Status::OK();
}

ShardService::ShardService(ShardServiceOptions options)
    : options_(std::move(options)) {
  metrics_ = options_.metrics != nullptr ? options_.metrics : &owned_metrics_;
}

Result<std::unique_ptr<ShardService>> ShardService::Start(
    ShardServiceOptions options) {
  if (options.root.empty()) {
    return Status::InvalidArgument("ShardServiceOptions.root is required");
  }
  if (options.queue_capacity == 0) {
    return Status::InvalidArgument("queue_capacity must be >= 1");
  }
  std::unique_ptr<ShardService> service(new ShardService(std::move(options)));
  NIDC_RETURN_NOT_OK(service->Init());
  return service;
}

Status ShardService::Init() {
  const size_t num_shards =
      options_.num_shards != 0
          ? options_.num_shards
          : std::max<size_t>(1, std::thread::hardware_concurrency());

  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }

  Env* env = options_.env != nullptr ? options_.env : Env::Default();
  NIDC_RETURN_NOT_OK(env->CreateDir(options_.root));
  NIDC_RETURN_NOT_OK(env->CreateDir(options_.root + "/tenants"));

  metrics_->GetGauge("shard.tenants")->Set(0.0);
  metrics_->GetGauge("shard.shards")->Set(static_cast<double>(num_shards));
  // Register the whole family eagerly so a /metricsz scrape (and
  // `nidc_metrics_check --shard-snapshot`) sees every shard.* series
  // from boot, not only after the first rejection or failure.
  metrics_->GetCounter("shard.ingest.docs");
  metrics_->GetCounter("shard.ingest.batches");
  metrics_->GetCounter("shard.ingest.rejected_batches");
  metrics_->GetCounter("shard.ingest.failed");
  metrics_->GetCounter("shard.ingest.dropped");
  metrics_->GetCounter("shard.steps");
  metrics_->GetGauge("shard.corpus.retained_docs");
  metrics_->GetGauge("shard.corpus.retained_term_entries");
  metrics_->GetGauge("shard.corpus.vocabulary_terms");
  metrics_->GetGauge("shard.corpus.vocabulary_bytes");
  metrics_->GetGauge("step.context_entries");
  metrics_->GetGauge("step.context_bytes");
  metrics_->GetGauge("shard.recovery.seconds")->Set(0.0);
  metrics_->GetCounter("shard.recovery.tenants");
  metrics_->GetHistogram("shard.ingest.latency_seconds",
                         kLatencyBucketsSeconds);
  for (size_t i = 0; i < num_shards; ++i) {
    metrics_->GetGauge("shard.queue." + std::to_string(i) + ".depth")
        ->Set(0.0);
  }

  for (size_t i = 0; i < num_shards; ++i) {
    shards_[i]->worker = std::thread([this, i] { WorkerLoop(i); });
  }
  return RecoverTenants(env);
}

Status ShardService::RecoverTenants(Env* env) {
  Result<std::vector<std::string>> entries =
      env->ListDir(options_.root + "/tenants");
  if (!entries.ok()) return entries.status();
  std::vector<std::vector<std::string>> names(shards_.size());
  for (const std::string& name : *entries) {
    if (!ValidateTenantName(name).ok()) continue;
    if (!env->FileExists(TenantDir(name) + "/TENANT.json")) continue;
    names[ShardOf(name)].push_back(name);
  }

  // One job per non-empty shard reopens that shard's tenants in name
  // order, on the worker that will own them; the shards run in parallel.
  // A shard stops at its first failure, so it records its lowest-named
  // failing tenant.
  struct Failure {
    std::string name;
    Status status;
  };
  std::vector<Failure> failures(shards_.size());
  const double start = NowSeconds();
  std::vector<std::future<Status>> jobs;
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (names[i].empty()) continue;
    std::sort(names[i].begin(), names[i].end());
    jobs.push_back(PostToShard(
        i, [this, i, shard_names = std::move(names[i]),
            &failures]() -> Status {
          for (const std::string& name : shard_names) {
            Status opened = OpenOnShard(name, i);
            if (!opened.ok()) {
              failures[i] = {name, opened};
              return opened;
            }
          }
          return Status::OK();
        }));
  }
  // Wait for every job before looking at any result, so neither traffic
  // nor teardown ever meets a half-recovered service.
  for (std::future<Status>& job : jobs) job.get();
  recovery_seconds_ = NowSeconds() - start;
  recovered_tenants_ = TenantNames().size();
  metrics_->GetGauge("shard.recovery.seconds")->Set(recovery_seconds_);
  metrics_->GetCounter("shard.recovery.tenants")
      ->Increment(recovered_tenants_);

  // Of several failing tenants the lowest-named one's error is reported,
  // whichever shard finished first.
  const Failure* first = nullptr;
  for (const Failure& failure : failures) {
    if (!failure.status.ok() &&
        (first == nullptr || failure.name < first->name)) {
      first = &failure;
    }
  }
  return first == nullptr ? Status::OK() : first->status;
}

size_t ShardService::ShardOf(const std::string& name) const {
  // FNV-1a: stable across processes (std::hash is not guaranteed to be),
  // so a tenant reopens onto the same shard after a restart.
  uint64_t hash = 1469598103934665603ULL;
  for (unsigned char c : name) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return static_cast<size_t>(hash % shards_.size());
}

TenantRuntime ShardService::MakeRuntime() const {
  TenantRuntime runtime;
  runtime.env = options_.env;
  runtime.checkpoint_every = options_.checkpoint_every;
  runtime.wal_sync = options_.wal_sync;
  runtime.shared_metrics = metrics_;
  runtime.tracer = options_.tracer;
  return runtime;
}

std::string ShardService::TenantDir(const std::string& name) const {
  return options_.root + "/tenants/" + name;
}

double ShardService::NowSeconds() const {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void ShardService::WorkerLoop(size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  obs::Gauge* depth_gauge = metrics_->GetGauge(
      "shard.queue." + std::to_string(shard_index) + ".depth");
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(shard.mu);
      shard.cv.wait(lock, [&] {
        return shard.stopping || !shard.queue.empty();
      });
      if (shard.queue.empty()) return;  // stopping && drained
      job = std::move(shard.queue.front());
      shard.queue.pop_front();
      if (job.is_ingest) --shard.ingest_pending;
      depth_gauge->Set(static_cast<double>(shard.ingest_pending));
    }
    if (job.is_ingest) {
      if (options_.tracer != nullptr && job.trace.valid()) {
        options_.tracer->RecordStage(job.trace, obs::Stage::kDequeue);
      }
      RunIngestJob(shard_index, job);
    } else {
      job.call();
    }
  }
}

void ShardService::RunIngestJob(size_t shard_index, Job& job) {
  std::shared_ptr<Tenant> tenant = GetTenant(job.tenant);
  Status status = tenant == nullptr
                      ? Status::NotFound("tenant evicted before ingest ran")
                      : tenant->Ingest(job.docs, job.trace);
  if (!status.ok()) {
    metrics_->GetCounter(tenant == nullptr ? "shard.ingest.dropped"
                                           : "shard.ingest.failed")
        ->Increment();
  }
  const double done = NowSeconds();
  const double latency = done - job.enqueued_seconds;
  metrics_
      ->GetHistogram("shard.ingest.latency_seconds", kLatencyBucketsSeconds)
      ->Observe(latency);
  {
    Shard& shard = *shards_[shard_index];
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.completion_seconds.push_back(done);
    while (shard.completion_seconds.size() > kMaxCompletionSamples) {
      shard.completion_seconds.pop_front();
    }
  }
  std::lock_guard<std::mutex> lock(samples_mu_);
  if (latency_samples_.size() >= kMaxLatencySamples) {
    latency_samples_.erase(latency_samples_.begin(),
                           latency_samples_.begin() + kMaxLatencySamples / 2);
  }
  latency_samples_.push_back(latency);
}

int ShardService::RetryAfterHintSeconds(size_t shard_index) const {
  if (shard_index >= shards_.size()) return 1;
  const Shard& shard = *shards_[shard_index];
  size_t pending;
  double span;
  size_t completions;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    pending = shard.ingest_pending;
    completions = shard.completion_seconds.size();
    span = completions >= 2 ? shard.completion_seconds.back() -
                                  shard.completion_seconds.front()
                            : 0.0;
  }
  // Too little history (or all completions inside one tick) to estimate a
  // rate: keep the old one-second contract.
  if (completions < 2 || span <= 0.0) return 1;
  const double rate = static_cast<double>(completions - 1) / span;
  const double wait = static_cast<double>(pending) / rate;
  const double clamped = std::min(30.0, std::max(1.0, std::ceil(wait)));
  return static_cast<int>(clamped);
}

std::future<Status> ShardService::PostToShard(size_t shard_index,
                                              std::function<Status()> fn) {
  auto done = std::make_shared<std::promise<Status>>();
  std::future<Status> result = done->get_future();
  Shard& shard = *shards_[shard_index];
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.stopping) {
    done->set_value(Status::FailedPrecondition("service is stopping"));
    return result;
  }
  Job job;
  job.call = [fn = std::move(fn), done] { done->set_value(fn()); };
  shard.queue.push_back(std::move(job));
  shard.cv.notify_one();
  return result;
}

Status ShardService::RunOnShard(size_t shard_index,
                                std::function<Status()> fn) {
  if (shard_index >= shards_.size()) {
    return Status::InvalidArgument("no such shard");
  }
  return PostToShard(shard_index, std::move(fn)).get();
}

void ShardService::AddTenant(const std::string& name, size_t shard,
                             std::unique_ptr<Tenant> tenant) {
  Entry entry;
  entry.tenant = std::shared_ptr<Tenant>(std::move(tenant));
  entry.shard = shard;
  std::lock_guard<std::mutex> lock(mu_);
  tenants_.emplace(name, std::move(entry));
  metrics_->GetGauge("shard.tenants")
      ->Set(static_cast<double>(tenants_.size()));
}

Status ShardService::OpenOnShard(const std::string& name, size_t shard) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (tenants_.count(name) != 0) {
      return Status::AlreadyExists("tenant " + name + " is already open");
    }
  }
  Result<std::unique_ptr<Tenant>> tenant =
      Tenant::Open(name, TenantDir(name), MakeRuntime());
  if (!tenant.ok()) return tenant.status();
  AddTenant(name, shard, std::move(tenant).value());
  return Status::OK();
}

Status ShardService::CreateTenant(const std::string& name,
                                  const TenantConfig& config) {
  NIDC_RETURN_NOT_OK(ValidateTenantName(name));
  NIDC_RETURN_NOT_OK(config.Validate());
  const size_t shard = ShardOf(name);
  return RunOnShard(shard, [this, name, config, shard]() -> Status {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (tenants_.count(name) != 0) {
        return Status::AlreadyExists("tenant " + name + " already exists");
      }
    }
    Result<std::unique_ptr<Tenant>> tenant =
        Tenant::Create(name, TenantDir(name), config, MakeRuntime());
    if (!tenant.ok()) return tenant.status();
    AddTenant(name, shard, std::move(tenant).value());
    return Status::OK();
  });
}

Status ShardService::OpenTenant(const std::string& name) {
  NIDC_RETURN_NOT_OK(ValidateTenantName(name));
  const size_t shard = ShardOf(name);
  return RunOnShard(shard, [this, name, shard] {
    return OpenOnShard(name, shard);
  });
}

Status ShardService::EvictTenant(const std::string& name) {
  NIDC_RETURN_NOT_OK(ValidateTenantName(name));
  return RunOnShard(ShardOf(name), [this, name]() -> Status {
    std::shared_ptr<Tenant> tenant;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = tenants_.find(name);
      if (it == tenants_.end()) {
        return Status::NotFound("no tenant named " + name);
      }
      tenant = std::move(it->second.tenant);
      tenants_.erase(it);
      metrics_->GetGauge("shard.tenants")
          ->Set(static_cast<double>(tenants_.size()));
    }
    // Close on the owning shard thread; an HTTP worker may still hold the
    // shared_ptr for a /statusz render, which stays safe (its surfaces
    // are synchronized and outlive Close).
    return tenant->Close();
  });
}

Status ShardService::EnqueueIngest(const std::string& name,
                                   std::vector<RawDocument> docs,
                                   obs::TraceContext trace) {
  size_t shard_index;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tenants_.find(name);
    if (it == tenants_.end()) {
      return Status::NotFound("no tenant named " + name);
    }
    if (it->second.tenant->failed()) {
      return Status::FailedPrecondition(
          "tenant " + name + " storage failed; evict and reopen");
    }
    shard_index = it->second.shard;
  }
  Shard& shard = *shards_[shard_index];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.stopping) {
      return Status::FailedPrecondition("service is stopping");
    }
    if (shard.ingest_pending >= options_.queue_capacity) {
      metrics_->GetCounter("shard.ingest.rejected_batches")->Increment();
      return Status::OutOfRange(
          "shard " + std::to_string(shard_index) + " queue is full (" +
          std::to_string(shard.ingest_pending) + " pending batches)");
    }
    Job job;
    job.is_ingest = true;
    job.tenant = name;
    job.docs = std::move(docs);
    job.enqueued_seconds = NowSeconds();
    job.trace = trace;
    shard.queue.push_back(std::move(job));
    ++shard.ingest_pending;
    metrics_->GetGauge("shard.queue." + std::to_string(shard_index) +
                       ".depth")
        ->Set(static_cast<double>(shard.ingest_pending));
    metrics_->GetCounter("shard.ingest.batches")->Increment();
    shard.cv.notify_one();
  }
  if (options_.tracer != nullptr && trace.valid()) {
    options_.tracer->RecordStage(trace, obs::Stage::kEnqueue);
  }
  return Status::OK();
}

Status ShardService::Flush(const std::string& name, DayTime until) {
  return RunOnShard(ShardOf(name), [this, name, until]() -> Status {
    std::shared_ptr<Tenant> tenant = GetTenant(name);
    if (tenant == nullptr) return Status::NotFound("no tenant named " + name);
    return tenant->FlushUntil(until);
  });
}

Status ShardService::Checkpoint(const std::string& name) {
  return RunOnShard(ShardOf(name), [this, name]() -> Status {
    std::shared_ptr<Tenant> tenant = GetTenant(name);
    if (tenant == nullptr) return Status::NotFound("no tenant named " + name);
    return tenant->Checkpoint();
  });
}

Result<std::string> ShardService::StateDigest(const std::string& name) {
  std::string digest;
  Status status = RunOnShard(ShardOf(name), [this, name, &digest]() -> Status {
    std::shared_ptr<Tenant> tenant = GetTenant(name);
    if (tenant == nullptr) return Status::NotFound("no tenant named " + name);
    digest = tenant->StateDigest();
    return Status::OK();
  });
  if (!status.ok()) return status;
  return digest;
}

void ShardService::Drain() {
  std::vector<std::future<Status>> barriers;
  for (size_t i = 0; i < shards_.size(); ++i) {
    barriers.push_back(PostToShard(i, [] { return Status::OK(); }));
  }
  for (auto& barrier : barriers) barrier.get();
}

std::shared_ptr<Tenant> ShardService::GetTenant(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(name);
  return it == tenants_.end() ? nullptr : it->second.tenant;
}

std::vector<std::string> ShardService::TenantNames() const {
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(mu_);
    names.reserve(tenants_.size());
    for (const auto& [name, entry] : tenants_) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::vector<TenantInfo> ShardService::Tenants() const {
  std::vector<TenantInfo> infos;
  {
    std::lock_guard<std::mutex> lock(mu_);
    infos.reserve(tenants_.size());
    for (const auto& [name, entry] : tenants_) {
      TenantInfo info;
      info.name = name;
      info.shard = entry.shard;
      info.failed = entry.tenant->failed();
      info.docs_ingested = entry.tenant->docs_ingested();
      info.steps_applied = entry.tenant->steps_applied();
      info.now = entry.tenant->now();
      infos.push_back(std::move(info));
    }
  }
  std::sort(infos.begin(), infos.end(),
            [](const TenantInfo& a, const TenantInfo& b) {
              return a.name < b.name;
            });
  return infos;
}

size_t ShardService::QueueDepth(size_t shard) const {
  if (shard >= shards_.size()) return 0;
  std::lock_guard<std::mutex> lock(shards_[shard]->mu);
  return shards_[shard]->ingest_pending;
}

size_t ShardService::TotalQueueDepth() const {
  size_t total = 0;
  for (size_t i = 0; i < shards_.size(); ++i) total += QueueDepth(i);
  return total;
}

std::vector<double> ShardService::TakeLatencySamples() {
  std::lock_guard<std::mutex> lock(samples_mu_);
  std::vector<double> samples;
  samples.swap(latency_samples_);
  return samples;
}

void ShardService::Stop() {
  if (stopped_) return;
  stopped_ = true;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->stopping = true;
    shard->cv.notify_all();
  }
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
  // Workers are gone; closing tenants here is single-threaded.
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, entry] : tenants_) {
    entry.tenant->Close();  // final checkpoint; errors already marked
  }
}

ShardService::~ShardService() { Stop(); }

}  // namespace nidc::shard
