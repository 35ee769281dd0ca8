#include "nidc/util/fault_env.h"

#include <utility>

namespace nidc {

/// Buffers appends in memory and only forwards them to the base file on
/// Sync()/clean Close(), so FaultInjectionEnv can decide how much unsynced
/// data "survives" a simulated crash. Every method holds the env's mutex
/// while it touches the buffer or the base file, since a crash fired on
/// another thread resolves this file's buffer too.
class FaultWritableFile : public WritableFile {
 public:
  FaultWritableFile(FaultInjectionEnv* env,
                    std::unique_ptr<WritableFile> base)
      : env_(env), base_(std::move(base)) {
    std::lock_guard<std::mutex> lock(env_->mu_);
    env_->open_files_.insert(this);
  }

  ~FaultWritableFile() override { Close(); }

  Status Append(std::string_view data) override {
    std::lock_guard<std::mutex> lock(env_->mu_);
    pending_in_flight_ = data;  // visible to the crash-flush policy
    const Status guard = env_->GuardOpLocked();
    pending_in_flight_ = {};
    if (!guard.ok()) return guard;
    pending_.append(data);
    return Status::OK();
  }

  // A flush reaches the OS, not storage: the bytes stay unsynced, and the
  // crash-flush policy decides whether they survive.
  Status Flush() override {
    std::lock_guard<std::mutex> lock(env_->mu_);
    return env_->GuardOpLocked();
  }

  Status Sync() override {
    std::lock_guard<std::mutex> lock(env_->mu_);
    NIDC_RETURN_NOT_OK(env_->GuardOpLocked());
    NIDC_RETURN_NOT_OK(FlushPending());
    return base_->Sync();
  }

  Status Close() override {
    if (base_ == nullptr) return Status::OK();
    std::lock_guard<std::mutex> lock(env_->mu_);
    Status st = env_->GuardOpLocked();
    if (st.ok()) st = FlushPending();
    // After a crash the unsynced buffer is dropped (or already resolved by
    // the crash-flush policy); the base handle is still released.
    const Status closed = base_->Close();
    base_ = nullptr;
    env_->open_files_.erase(this);
    return st.ok() ? closed : st;
  }

 private:
  friend class FaultInjectionEnv;

  Status FlushPending() {
    if (pending_.empty()) return Status::OK();
    const Status st = base_->Append(pending_);
    if (st.ok()) pending_.clear();
    return st;
  }

  /// Crash-time resolution of buffered bytes, per the armed policy. The
  /// in-flight append (if the crash fired mid-Append) is included, since a
  /// real torn write can persist part of the very write that crashed.
  /// Runs under the env's mutex, on whichever thread fired the crash.
  void ResolveCrash(CrashFlush flush) {
    if (base_ == nullptr) return;
    std::string unsynced = pending_;
    unsynced.append(pending_in_flight_);
    pending_.clear();
    size_t survive = 0;
    switch (flush) {
      case CrashFlush::kDropUnsynced:
        survive = 0;
        break;
      case CrashFlush::kTornWrite:
        survive = unsynced.size() / 2;
        break;
      case CrashFlush::kKeepUnsynced:
        survive = unsynced.size();
        break;
    }
    if (survive > 0) {
      // Push the surviving prefix through to real storage so a fresh Env
      // (the "rebooted process") observes it.
      base_->Append(std::string_view(unsynced).substr(0, survive));
      base_->Sync();
    }
  }

  FaultInjectionEnv* env_;
  std::unique_ptr<WritableFile> base_;
  std::string pending_;                 // appended, not yet synced
  std::string_view pending_in_flight_;  // the append being guarded right now
};

FaultInjectionEnv::~FaultInjectionEnv() {
  // Orphan any files that outlive the env (they keep working against the
  // base file but stop consulting the injection state).
  std::lock_guard<std::mutex> lock(mu_);
  for (FaultWritableFile* file : open_files_) file->env_ = nullptr;
}

void FaultInjectionEnv::ArmCrashAtOp(uint64_t nth, CrashFlush flush) {
  std::lock_guard<std::mutex> lock(mu_);
  countdown_ = nth;
  flush_ = flush;
}

void FaultInjectionEnv::Disarm() {
  std::lock_guard<std::mutex> lock(mu_);
  countdown_ = 0;
}

bool FaultInjectionEnv::crashed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return crashed_;
}

uint64_t FaultInjectionEnv::ops_issued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ops_issued_;
}

Status FaultInjectionEnv::GuardOpLocked() {
  if (crashed_) return Dead();
  ++ops_issued_;
  if (countdown_ > 0 && --countdown_ == 0) {
    crashed_ = true;
    for (FaultWritableFile* file : open_files_) file->ResolveCrash(flush_);
    return Dead();
  }
  return Status::OK();
}

Status FaultInjectionEnv::GuardOp() {
  std::lock_guard<std::mutex> lock(mu_);
  return GuardOpLocked();
}

Result<std::unique_ptr<WritableFile>> FaultInjectionEnv::NewWritableFile(
    const std::string& path, bool truncate) {
  NIDC_RETURN_NOT_OK(GuardOp());
  auto base = base_->NewWritableFile(path, truncate);
  if (!base.ok()) return base.status();
  return std::unique_ptr<WritableFile>(
      std::make_unique<FaultWritableFile>(this, std::move(base).value()));
}

Result<std::string> FaultInjectionEnv::ReadFileToString(
    const std::string& path) {
  if (crashed()) return Dead();
  return base_->ReadFileToString(path);
}

Result<std::unique_ptr<SequentialFile>> FaultInjectionEnv::NewSequentialFile(
    const std::string& path) {
  if (crashed()) return Dead();
  return base_->NewSequentialFile(path);
}

Status FaultInjectionEnv::RenameFile(const std::string& from,
                                     const std::string& to) {
  // A crash at the rename op means the rename never happened: POSIX rename
  // is atomic, there is no torn middle state.
  NIDC_RETURN_NOT_OK(GuardOp());
  return base_->RenameFile(from, to);
}

Status FaultInjectionEnv::RemoveFile(const std::string& path) {
  NIDC_RETURN_NOT_OK(GuardOp());
  return base_->RemoveFile(path);
}

bool FaultInjectionEnv::FileExists(const std::string& path) {
  return !crashed() && base_->FileExists(path);
}

Status FaultInjectionEnv::CreateDir(const std::string& path) {
  NIDC_RETURN_NOT_OK(GuardOp());
  return base_->CreateDir(path);
}

Result<std::vector<std::string>> FaultInjectionEnv::ListDir(
    const std::string& path) {
  if (crashed()) return Dead();
  return base_->ListDir(path);
}

Status FaultInjectionEnv::SyncDir(const std::string& path) {
  NIDC_RETURN_NOT_OK(GuardOp());
  return base_->SyncDir(path);
}

}  // namespace nidc
