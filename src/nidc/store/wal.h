// Write-ahead log for the incremental clusterer (store/ durability layer).
//
// One record is appended per Step *before* the step mutates in-memory
// state, so "newest valid snapshot + replay of the WAL tail" reconstructs
// the clusterer after a crash (see durable_clusterer.h for the protocol).
// A store that logs documents also appends corpus records to it.
//
// File layout:
//   8-byte magic "NIDCWAL1"
//   repeated records:  u32-le payload length | u32-le masked CRC-32C of
//                      the payload | payload bytes
//
// The reader is torn-tail tolerant: it stops at the first frame that is
// short, oversized, or fails its checksum and reports how many bytes it
// dropped. A WAL truncated mid-record therefore recovers every record
// before the tear instead of failing outright.

#ifndef NIDC_STORE_WAL_H_
#define NIDC_STORE_WAL_H_

#include <memory>
#include <string>
#include <vector>

#include "nidc/corpus/document.h"
#include "nidc/util/env.h"

namespace nidc {

/// When WAL appends are pushed to durable storage.
enum class WalSyncMode {
  /// fsync after every record: a completed Step is never lost.
  kEveryRecord,
  /// No per-record fsync; records since the last snapshot (or explicit
  /// Sync) can vanish in a crash. Recovery still yields a consistent,
  /// merely older, state.
  kNone,
};

/// Appends CRC-framed records to a fresh WAL file.
class WalWriter {
 public:
  /// Creates (truncates) `path` and writes the file header, unsynced: the
  /// first record's sync makes it durable, and until then a crash leaves
  /// an empty or short header, which reads as zero records.
  static Result<std::unique_ptr<WalWriter>> Create(Env* env,
                                                   const std::string& path,
                                                   WalSyncMode mode);

  /// Appends one record; fsyncs when the mode is kEveryRecord and `sync`
  /// is set (a caller that clears it syncs later, or lets a later
  /// record's sync cover this one).
  Status AppendRecord(std::string_view payload, bool sync = true);

  /// Hands appended bytes to the OS without an fsync, so they survive a
  /// process kill but not a power loss.
  Status Flush();

  /// Explicit fsync (used at snapshot rotation under WalSyncMode::kNone).
  Status Sync();

  Status Close();

  uint64_t records_appended() const { return records_appended_; }
  uint64_t bytes_appended() const { return bytes_appended_; }
  const std::string& path() const { return path_; }

 private:
  friend Result<std::unique_ptr<WalWriter>> OpenWalForAppend(
      Env* env, const std::string& path, WalSyncMode mode,
      uint64_t existing_records);

  WalWriter(std::string path, std::unique_ptr<WritableFile> file,
            WalSyncMode mode)
      : path_(std::move(path)), file_(std::move(file)), mode_(mode) {}

  std::string path_;
  std::unique_ptr<WritableFile> file_;
  WalSyncMode mode_;
  uint64_t records_appended_ = 0;
  uint64_t bytes_appended_ = 0;
};

/// Outcome of scanning one WAL file.
struct WalReadResult {
  std::vector<std::string> records;
  /// Bytes after the last valid record that were dropped (0 on a clean
  /// read all the way to EOF).
  size_t dropped_bytes = 0;
  /// True when the file ended exactly on a record boundary.
  bool clean = true;
  /// Human-readable description of the first bad frame, when !clean.
  std::string error;
};

/// Reads a WAL front to back one record at a time, so a large log is
/// never held whole. It stops at the first frame that is short, oversized
/// or fails its checksum, exactly where ReadWal (built on it) does.
class WalReader {
 public:
  /// IOError only when the file cannot be opened.
  static Result<std::unique_ptr<WalReader>> Open(Env* env,
                                                 const std::string& path);

  /// Reads the next valid record into `record`. False at the end of the
  /// valid records: see status() for a read error, else clean() and
  /// dropped_bytes() for what followed them.
  bool Next(std::string* record);

  /// A read error that ended the scan.
  const Status& status() const { return status_; }
  /// True when the records ended exactly at the end of the file.
  bool clean() const { return clean_; }
  /// Bytes after the last valid record.
  size_t dropped_bytes() const { return dropped_bytes_; }
  /// Human-readable description of the first bad frame, when !clean().
  const std::string& error() const { return error_; }

 private:
  friend WalReadResult ParseWal(std::string contents);

  explicit WalReader(std::unique_ptr<SequentialFile> file)
      : file_(std::move(file)) {}

  /// Reads up to `n` bytes into `out`; false (status_ set) on error.
  bool ReadBytes(size_t n, std::string* out);
  /// Marks the scan damaged at the current offset: `consumed` bytes of
  /// the bad frame are already read; the rest of the file is counted.
  bool Damaged(size_t consumed, const std::string& what);

  std::unique_ptr<SequentialFile> file_;
  bool started_ = false;
  bool done_ = false;
  size_t offset_ = 0;
  std::string header_;
  Status status_;
  bool clean_ = true;
  size_t dropped_bytes_ = 0;
  std::string error_;
};

/// Reads every valid record of `path`. Returns IOError only when the file
/// cannot be read at all; framing damage is reported via WalReadResult.
Result<WalReadResult> ReadWal(Env* env, const std::string& path);

/// True when `contents` opens with the WAL file header.
bool HasWalHeader(std::string_view contents);

/// ReadWal over a file's bytes already in memory.
WalReadResult ParseWal(std::string contents);

/// Atomically rewrites `path` to contain exactly `records` (header
/// included). Used to repair a torn tail before reopening a WAL for
/// append: records past the damage are discarded, records before it are
/// kept byte-identical.
Status RewriteWal(Env* env, const std::string& path,
                  const std::vector<std::string>& records);

/// Reopens an existing WAL for appending (no header is written). The file
/// must end on a record boundary — callers that found a torn tail repair
/// it with RewriteWal first. `existing_records` seeds records_appended()
/// so sequence numbers continue where the file left off.
Result<std::unique_ptr<WalWriter>> OpenWalForAppend(Env* env,
                                                    const std::string& path,
                                                    WalSyncMode mode,
                                                    uint64_t existing_records);

/// One logical clusterer step as logged in the WAL.
struct WalStepRecord {
  DayTime tau = 0.0;
  std::vector<DocId> new_docs;
};

/// Step-record payload codec. The timestamp is serialized as a C99 hex
/// float so replay sees the bit-exact value the original Step saw.
std::string EncodeStepRecord(const WalStepRecord& record);
Result<WalStepRecord> DecodeStepRecord(std::string_view payload);

}  // namespace nidc

#endif  // NIDC_STORE_WAL_H_
