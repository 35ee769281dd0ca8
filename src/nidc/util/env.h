// Filesystem abstraction for the durability layer (store/), modelled after
// the LevelDB/RocksDB Env idiom: all file I/O that must survive crashes
// goes through an Env so tests can substitute a fault-injecting
// implementation (fault_env.h) and simulate torn writes, failed syncs and
// mid-operation process death.
//
// Durability contract:
//   * WritableFile::Append buffers; bytes are only guaranteed on storage
//     after a successful Sync(). Flush() only hands them to the OS.
//   * RenameFile is atomic (POSIX rename): readers see either the old or
//     the new file, never a mixture.
//   * AtomicWriteFile composes the two into the standard
//     write-temp + fsync + rename pattern, so a crash at any point leaves
//     either the previous file intact or the new one complete.

#ifndef NIDC_UTIL_ENV_H_
#define NIDC_UTIL_ENV_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "nidc/util/status.h"

namespace nidc {

/// Sequential-append handle to a file being written.
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  /// Appends `data` at the end of the file (buffered; not durable).
  virtual Status Append(std::string_view data) = 0;

  /// Hands application-buffered bytes to the OS (no fsync): they then
  /// survive a process kill, not a power loss.
  virtual Status Flush() = 0;

  /// Flushes application and OS buffers to storage (fsync).
  virtual Status Sync() = 0;

  /// Flushes buffers and closes the handle. No durability promise beyond
  /// the last successful Sync(). Idempotent.
  virtual Status Close() = 0;
};

/// Front-to-back read handle to a file, for files too large to want in
/// memory at once.
class SequentialFile {
 public:
  virtual ~SequentialFile() = default;

  /// Reads up to `n` bytes into `scratch` and returns how many it read:
  /// fewer than `n` only at the end of the file.
  virtual Result<size_t> Read(size_t n, char* scratch) = 0;
};

/// Minimal filesystem interface; see Env::Default() for the POSIX
/// implementation used in production.
class Env {
 public:
  virtual ~Env() = default;

  /// Process-wide POSIX environment.
  static Env* Default();

  /// Opens `path` for writing. `truncate` discards existing content;
  /// otherwise the file is opened in append mode.
  virtual Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate = true) = 0;

  /// Reads the whole file into a string.
  virtual Result<std::string> ReadFileToString(const std::string& path) = 0;

  /// Opens `path` for reading front to back.
  virtual Result<std::unique_ptr<SequentialFile>> NewSequentialFile(
      const std::string& path) = 0;

  /// Atomically renames `from` to `to`, replacing `to` if it exists.
  virtual Status RenameFile(const std::string& from,
                            const std::string& to) = 0;

  /// Deletes a file; NotFound if it does not exist.
  virtual Status RemoveFile(const std::string& path) = 0;

  virtual bool FileExists(const std::string& path) = 0;

  /// Creates a directory; OK if it already exists.
  virtual Status CreateDir(const std::string& path) = 0;

  /// Names (not paths) of the entries in a directory, sorted; "." and ".."
  /// are skipped.
  virtual Result<std::vector<std::string>> ListDir(
      const std::string& path) = 0;

  /// Fsyncs a directory so a preceding rename/create in it is durable.
  virtual Status SyncDir(const std::string& path) = 0;
};

/// Crash-safe whole-file replacement: writes `contents` to `path.tmp`,
/// syncs it (when `sync`), closes, renames over `path` and syncs the
/// parent directory. On any failure the previous `path` content is left
/// untouched and the temp file is removed on a best-effort basis.
Status AtomicWriteFile(Env* env, const std::string& path,
                       std::string_view contents, bool sync = true);

/// The parent directory of `path` ("." when the path has no separator).
std::string DirName(const std::string& path);

}  // namespace nidc

#endif  // NIDC_UTIL_ENV_H_
