#include "nidc/util/env.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>

namespace nidc {

namespace {

std::string ErrnoMessage(const std::string& context) {
  return context + ": " + std::strerror(errno);
}

class PosixWritableFile : public WritableFile {
 public:
  PosixWritableFile(std::string path, FILE* file)
      : path_(std::move(path)), file_(file) {}

  ~PosixWritableFile() override { Close(); }

  Status Append(std::string_view data) override {
    if (file_ == nullptr) {
      return Status::FailedPrecondition("append to closed file " + path_);
    }
    if (data.empty()) return Status::OK();
    if (std::fwrite(data.data(), 1, data.size(), file_) != data.size()) {
      return Status::IOError(ErrnoMessage("write to " + path_ + " failed"));
    }
    return Status::OK();
  }

  Status Flush() override {
    if (file_ == nullptr) {
      return Status::FailedPrecondition("flush of closed file " + path_);
    }
    if (std::fflush(file_) != 0) {
      return Status::IOError(ErrnoMessage("flush of " + path_ + " failed"));
    }
    return Status::OK();
  }

  Status Sync() override {
    NIDC_RETURN_NOT_OK(Flush());
    if (::fsync(::fileno(file_)) != 0) {
      return Status::IOError(ErrnoMessage("fsync of " + path_ + " failed"));
    }
    return Status::OK();
  }

  Status Close() override {
    if (file_ == nullptr) return Status::OK();
    FILE* file = file_;
    file_ = nullptr;
    if (std::fclose(file) != 0) {
      return Status::IOError(ErrnoMessage("close of " + path_ + " failed"));
    }
    return Status::OK();
  }

 private:
  std::string path_;
  FILE* file_;
};

class PosixSequentialFile : public SequentialFile {
 public:
  PosixSequentialFile(std::string path, FILE* file)
      : path_(std::move(path)), file_(file) {}

  ~PosixSequentialFile() override { std::fclose(file_); }
  PosixSequentialFile(const PosixSequentialFile&) = delete;
  PosixSequentialFile& operator=(const PosixSequentialFile&) = delete;

  Result<size_t> Read(size_t n, char* scratch) override {
    const size_t got = std::fread(scratch, 1, n, file_);
    if (got < n && std::ferror(file_) != 0) {
      return Status::IOError(ErrnoMessage("read of " + path_ + " failed"));
    }
    return got;
  }

 private:
  std::string path_;
  FILE* file_;
};

class PosixEnv : public Env {
 public:
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override {
    FILE* file = std::fopen(path.c_str(), truncate ? "wb" : "ab");
    if (file == nullptr) {
      return Status::IOError(
          ErrnoMessage("cannot open " + path + " for writing"));
    }
    return std::unique_ptr<WritableFile>(
        std::make_unique<PosixWritableFile>(path, file));
  }

  Result<std::string> ReadFileToString(const std::string& path) override {
    FILE* file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) {
      return Status::IOError(
          ErrnoMessage("cannot open " + path + " for reading"));
    }
    std::string contents;
    char buffer[1 << 16];
    size_t n = 0;
    while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
      contents.append(buffer, n);
    }
    const bool failed = std::ferror(file) != 0;
    std::fclose(file);
    if (failed) {
      return Status::IOError("read of " + path + " failed");
    }
    return contents;
  }

  Result<std::unique_ptr<SequentialFile>> NewSequentialFile(
      const std::string& path) override {
    FILE* file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) {
      return Status::IOError(
          ErrnoMessage("cannot open " + path + " for reading"));
    }
    return std::unique_ptr<SequentialFile>(
        new PosixSequentialFile(path, file));
  }

  Status RenameFile(const std::string& from, const std::string& to) override {
    if (std::rename(from.c_str(), to.c_str()) != 0) {
      return Status::IOError(
          ErrnoMessage("rename " + from + " -> " + to + " failed"));
    }
    return Status::OK();
  }

  Status RemoveFile(const std::string& path) override {
    if (::unlink(path.c_str()) != 0) {
      if (errno == ENOENT) return Status::NotFound(path + " does not exist");
      return Status::IOError(ErrnoMessage("unlink of " + path + " failed"));
    }
    return Status::OK();
  }

  bool FileExists(const std::string& path) override {
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
  }

  Status CreateDir(const std::string& path) override {
    if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::IOError(ErrnoMessage("mkdir " + path + " failed"));
    }
    return Status::OK();
  }

  Result<std::vector<std::string>> ListDir(const std::string& path) override {
    DIR* dir = ::opendir(path.c_str());
    if (dir == nullptr) {
      return Status::IOError(ErrnoMessage("cannot list " + path));
    }
    std::vector<std::string> names;
    while (struct dirent* entry = ::readdir(dir)) {
      const std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      names.push_back(name);
    }
    ::closedir(dir);
    std::sort(names.begin(), names.end());
    return names;
  }

  Status SyncDir(const std::string& path) override {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      return Status::IOError(ErrnoMessage("cannot open dir " + path));
    }
    const int rc = ::fsync(fd);
    ::close(fd);
    if (rc != 0) {
      return Status::IOError(ErrnoMessage("fsync of dir " + path + " failed"));
    }
    return Status::OK();
  }
};

}  // namespace

Env* Env::Default() {
  static PosixEnv* env = new PosixEnv();
  return env;
}

std::string DirName(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

Status AtomicWriteFile(Env* env, const std::string& path,
                       std::string_view contents, bool sync) {
  const std::string tmp = path + ".tmp";
  auto file = env->NewWritableFile(tmp, /*truncate=*/true);
  if (!file.ok()) return file.status();
  Status st = (*file)->Append(contents);
  if (st.ok() && sync) st = (*file)->Sync();
  const Status closed = (*file)->Close();
  if (st.ok()) st = closed;
  if (st.ok()) st = env->RenameFile(tmp, path);
  if (!st.ok()) {
    env->RemoveFile(tmp);  // best effort; the original `path` is untouched
    return st;
  }
  if (sync) {
    // Make the rename itself durable; non-fatal environments (e.g. a
    // directory that cannot be opened) still leave a consistent file.
    NIDC_RETURN_NOT_OK(env->SyncDir(DirName(path)));
  }
  return Status::OK();
}

}  // namespace nidc
