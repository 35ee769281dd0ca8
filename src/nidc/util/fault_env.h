// Fault-injecting Env for crash-recovery testing.
//
// Wraps a base Env and counts every mutating filesystem operation (append,
// flush, sync, close, rename, create-dir, remove). The harness arms a
// "crash" at the Nth such operation: that operation fails, every later
// operation fails too (the process is considered dead), and unsynced data is
// resolved according to a CrashFlush policy that models what a real crash
// can leave on disk:
//
//   * kDropUnsynced — nothing past the last successful Sync() survives
//     (power loss with an unhelpful disk cache);
//   * kTornWrite    — an arbitrary prefix of the unsynced bytes survives
//     (page cache partially written back; torn page);
//   * kKeepUnsynced — all buffered bytes survive (plain process kill:
//     the OS page cache is unaffected).
//
// To make the policies meaningful, writable files buffer appended bytes in
// memory and only push them to the base Env on Sync() (or on a clean
// Close()); Flush() leaves them buffered, since flushed bytes are
// unsynced too. After a crash, a *fresh* Env reading the same paths sees
// exactly the surviving bytes, so recovery code can be exercised against
// every reachable on-disk state.
//
// The env is safe to share across threads (the shard workers of one
// service do): one mutex guards the countdown, the crash flag, the op
// count, the open-file set and every writable file's buffer, so a crash
// fired by one thread resolves the buffers of files other threads write.

#ifndef NIDC_UTIL_FAULT_ENV_H_
#define NIDC_UTIL_FAULT_ENV_H_

#include <cstdint>
#include <mutex>
#include <unordered_set>

#include "nidc/util/env.h"

namespace nidc {

/// What happens to bytes appended but not yet synced when the crash fires.
enum class CrashFlush {
  kDropUnsynced,
  kTornWrite,
  kKeepUnsynced,
};

class FaultInjectionEnv : public Env {
 public:
  /// `base` must outlive this env.
  explicit FaultInjectionEnv(Env* base) : base_(base) {}
  ~FaultInjectionEnv() override;

  /// Arms the crash: the `nth` mutating operation from now (1-based) fails
  /// and marks the env dead. Unsynced buffers across all open files are
  /// resolved per `flush`.
  void ArmCrashAtOp(uint64_t nth, CrashFlush flush = CrashFlush::kDropUnsynced);

  /// Cancels a pending (not yet fired) crash.
  void Disarm();

  bool crashed() const;

  /// Mutating operations issued so far (including the crashing one); lets a
  /// torture harness discover the total op count of an uninterrupted run.
  uint64_t ops_issued() const;

  // Env interface.
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override;
  Result<std::string> ReadFileToString(const std::string& path) override;
  Result<std::unique_ptr<SequentialFile>> NewSequentialFile(
      const std::string& path) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status RemoveFile(const std::string& path) override;
  bool FileExists(const std::string& path) override;
  Status CreateDir(const std::string& path) override;
  Result<std::vector<std::string>> ListDir(const std::string& path) override;
  Status SyncDir(const std::string& path) override;

 private:
  friend class FaultWritableFile;

  /// Counts one mutating op; fires the crash when the countdown reaches
  /// zero. Returns the injected error when this op (or an earlier one)
  /// crashed the env. Caller holds mu_.
  Status GuardOpLocked();
  /// GuardOpLocked under its own lock, for ops that touch no file buffer.
  Status GuardOp();

  Status Dead() const {
    return Status::IOError("injected crash: environment is dead");
  }

  Env* base_;
  /// Guards everything below and the buffers of every FaultWritableFile.
  mutable std::mutex mu_;
  uint64_t countdown_ = 0;  // 0 = disarmed
  CrashFlush flush_ = CrashFlush::kDropUnsynced;
  bool crashed_ = false;
  uint64_t ops_issued_ = 0;
  std::unordered_set<class FaultWritableFile*> open_files_;
};

}  // namespace nidc

#endif  // NIDC_UTIL_FAULT_ENV_H_
