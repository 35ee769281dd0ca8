// Test helpers: an Env and a WritableFile that forward every call to a
// base, so a test overrides only the calls it wants to observe or hold.

#ifndef NIDC_TESTS_ENV_WRAPPER_H_
#define NIDC_TESTS_ENV_WRAPPER_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nidc/util/env.h"

namespace nidc {

class WritableFileWrapper : public WritableFile {
 public:
  explicit WritableFileWrapper(std::unique_ptr<WritableFile> base)
      : base_(std::move(base)) {}

  Status Append(std::string_view data) override {
    return base_->Append(data);
  }
  Status Flush() override { return base_->Flush(); }
  Status Sync() override { return base_->Sync(); }
  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<WritableFile> base_;
};

class EnvWrapper : public Env {
 public:
  explicit EnvWrapper(Env* base) : base_(base) {}

  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override {
    return base_->NewWritableFile(path, truncate);
  }
  Result<std::string> ReadFileToString(const std::string& path) override {
    return base_->ReadFileToString(path);
  }
  Result<std::unique_ptr<SequentialFile>> NewSequentialFile(
      const std::string& path) override {
    return base_->NewSequentialFile(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  Status RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  Status CreateDir(const std::string& path) override {
    return base_->CreateDir(path);
  }
  Result<std::vector<std::string>> ListDir(const std::string& path) override {
    return base_->ListDir(path);
  }
  Status SyncDir(const std::string& path) override {
    return base_->SyncDir(path);
  }

 protected:
  Env* base() const { return base_; }

 private:
  Env* base_;
};

}  // namespace nidc

#endif  // NIDC_TESTS_ENV_WRAPPER_H_
