#include "nidc/store/wal.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "nidc/util/crc32.h"
#include "nidc/util/string_util.h"

namespace nidc {

namespace {

constexpr char kWalMagic[] = "NIDCWAL1";
constexpr size_t kMagicSize = 8;
constexpr size_t kFrameHeaderSize = 8;  // u32 length + u32 masked crc

// A single record larger than this is treated as framing damage rather
// than an allocation request (a torn length field can decode to garbage).
constexpr uint32_t kMaxRecordSize = 1u << 30;

void AppendFrame(std::string* out, std::string_view payload);

void PutU32(std::string* out, uint32_t v) {
  char bytes[4] = {static_cast<char>(v & 0xFF),
                   static_cast<char>((v >> 8) & 0xFF),
                   static_cast<char>((v >> 16) & 0xFF),
                   static_cast<char>((v >> 24) & 0xFF)};
  out->append(bytes, 4);
}

uint32_t GetU32(const char* p) {
  return static_cast<uint32_t>(static_cast<unsigned char>(p[0])) |
         static_cast<uint32_t>(static_cast<unsigned char>(p[1])) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(p[2])) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(p[3])) << 24;
}

void AppendFrame(std::string* out, std::string_view payload) {
  PutU32(out, static_cast<uint32_t>(payload.size()));
  PutU32(out, MaskCrc32c(Crc32c(payload)));
  out->append(payload);
}

}  // namespace

Result<std::unique_ptr<WalWriter>> WalWriter::Create(Env* env,
                                                     const std::string& path,
                                                     WalSyncMode mode) {
  auto file = env->NewWritableFile(path, /*truncate=*/true);
  if (!file.ok()) return file.status();
  std::unique_ptr<WalWriter> writer(
      new WalWriter(path, std::move(file).value(), mode));
  NIDC_RETURN_NOT_OK(writer->file_->Append(
      std::string_view(kWalMagic, kMagicSize)));
  return writer;
}

Status WalWriter::AppendRecord(std::string_view payload, bool sync) {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("append to closed WAL " + path_);
  }
  if (payload.size() > kMaxRecordSize) {
    return Status::InvalidArgument("WAL record exceeds maximum size");
  }
  std::string frame;
  frame.reserve(kFrameHeaderSize + payload.size());
  AppendFrame(&frame, payload);
  NIDC_RETURN_NOT_OK(file_->Append(frame));
  if (sync && mode_ == WalSyncMode::kEveryRecord) {
    NIDC_RETURN_NOT_OK(file_->Sync());
  }
  ++records_appended_;
  bytes_appended_ += frame.size();
  return Status::OK();
}

Status WalWriter::Flush() {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("flush of closed WAL " + path_);
  }
  return file_->Flush();
}

Status WalWriter::Sync() {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("sync of closed WAL " + path_);
  }
  return file_->Sync();
}

Status WalWriter::Close() {
  if (file_ == nullptr) return Status::OK();
  const Status st = file_->Close();
  file_ = nullptr;
  return st;
}

Result<std::unique_ptr<WalReader>> WalReader::Open(Env* env,
                                                   const std::string& path) {
  Result<std::unique_ptr<SequentialFile>> file = env->NewSequentialFile(path);
  if (!file.ok()) return file.status();
  return std::unique_ptr<WalReader>(new WalReader(std::move(file).value()));
}

bool WalReader::ReadBytes(size_t n, std::string* out) {
  // Grown as bytes arrive, so a torn length field cannot make it allocate
  // more than the file holds.
  constexpr size_t kStep = 1 << 16;
  out->clear();
  while (out->size() < n) {
    const size_t have = out->size();
    const size_t want = std::min(kStep, n - have);
    out->resize(have + want);
    Result<size_t> read = file_->Read(want, out->data() + have);
    if (!read.ok()) {
      status_ = read.status();
      done_ = true;
      return false;
    }
    out->resize(have + *read);
    if (*read < want) break;
  }
  return true;
}

bool WalReader::Damaged(size_t consumed, const std::string& what) {
  done_ = true;
  clean_ = false;
  error_ = what;
  dropped_bytes_ = consumed;
  std::string rest;
  while (ReadBytes(1 << 16, &rest) && !rest.empty()) {
    dropped_bytes_ += rest.size();
  }
  return false;
}

bool WalReader::Next(std::string* record) {
  if (done_) return false;
  if (!started_) {
    started_ = true;
    if (!ReadBytes(kMagicSize, &header_)) return false;
    if (header_.size() < kMagicSize ||
        std::memcmp(header_.data(), kWalMagic, kMagicSize) != 0) {
      if (header_.empty()) {
        done_ = true;
        return false;
      }
      return Damaged(header_.size(), "missing or damaged WAL header");
    }
    offset_ = kMagicSize;
  }
  if (!ReadBytes(kFrameHeaderSize, &header_)) return false;
  if (header_.empty()) {
    done_ = true;
    return false;
  }
  const auto at = [this](const char* what) {
    return what + std::string(" at offset ") + std::to_string(offset_);
  };
  if (header_.size() < kFrameHeaderSize) {
    return Damaged(header_.size(), at("truncated frame header"));
  }
  const uint32_t length = GetU32(header_.data());
  const uint32_t stored_crc = UnmaskCrc32c(GetU32(header_.data() + 4));
  if (length > kMaxRecordSize) {
    return Damaged(kFrameHeaderSize, at("truncated record body"));
  }
  if (!ReadBytes(length, record)) return false;
  if (record->size() < length) {
    return Damaged(kFrameHeaderSize + record->size(),
                   at("truncated record body"));
  }
  if (Crc32c(*record) != stored_crc) {
    return Damaged(kFrameHeaderSize + length, at("checksum mismatch"));
  }
  offset_ += kFrameHeaderSize + length;
  return true;
}

Result<WalReadResult> ReadWal(Env* env, const std::string& path) {
  Result<std::unique_ptr<WalReader>> reader = WalReader::Open(env, path);
  if (!reader.ok()) return reader.status();
  WalReadResult result;
  std::string record;
  while ((*reader)->Next(&record)) result.records.push_back(record);
  NIDC_RETURN_NOT_OK((*reader)->status());
  result.clean = (*reader)->clean();
  result.dropped_bytes = (*reader)->dropped_bytes();
  result.error = (*reader)->error();
  return result;
}

Status RewriteWal(Env* env, const std::string& path,
                  const std::vector<std::string>& records) {
  std::string contents(kWalMagic, kMagicSize);
  for (const std::string& record : records) {
    if (record.size() > kMaxRecordSize) {
      return Status::InvalidArgument("WAL record exceeds maximum size");
    }
    AppendFrame(&contents, record);
  }
  return AtomicWriteFile(env, path, contents);
}

Result<std::unique_ptr<WalWriter>> OpenWalForAppend(Env* env,
                                                    const std::string& path,
                                                    WalSyncMode mode,
                                                    uint64_t existing_records) {
  auto file = env->NewWritableFile(path, /*truncate=*/false);
  if (!file.ok()) return file.status();
  std::unique_ptr<WalWriter> writer(
      new WalWriter(path, std::move(file).value(), mode));
  writer->records_appended_ = existing_records;
  return writer;
}

std::string EncodeStepRecord(const WalStepRecord& record) {
  std::string out = StringPrintf("step %a %zu", record.tau,
                                 record.new_docs.size());
  for (DocId id : record.new_docs) {
    out += StringPrintf(" %u", id);
  }
  return out;
}

Result<WalStepRecord> DecodeStepRecord(std::string_view payload) {
  const std::vector<std::string> tokens =
      Split(std::string(payload), ' ');
  if (tokens.size() < 3 || tokens[0] != "step") {
    return Status::InvalidArgument("not a step record");
  }
  WalStepRecord record;
  char* end = nullptr;
  record.tau = std::strtod(tokens[1].c_str(), &end);
  if (end == tokens[1].c_str() || *end != '\0') {
    return Status::InvalidArgument("bad tau in step record: " + tokens[1]);
  }
  errno = 0;
  const unsigned long long count = std::strtoull(tokens[2].c_str(), &end, 10);
  if (end == tokens[2].c_str() || *end != '\0' ||
      count != tokens.size() - 3) {
    return Status::InvalidArgument("bad doc count in step record");
  }
  record.new_docs.reserve(count);
  for (size_t i = 3; i < tokens.size(); ++i) {
    errno = 0;
    const unsigned long long id = std::strtoull(tokens[i].c_str(), &end, 10);
    if (end == tokens[i].c_str() || *end != '\0' || errno == ERANGE ||
        id > std::numeric_limits<DocId>::max()) {
      return Status::InvalidArgument("bad doc id in step record: " +
                                     tokens[i]);
    }
    record.new_docs.push_back(static_cast<DocId>(id));
  }
  return record;
}

}  // namespace nidc
