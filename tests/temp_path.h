// Test helper: scratch paths private to the running test.
//
// ctest runs every test as its own process, in parallel under -j, so a
// fixed path under testing::TempDir() races between tests — and between
// two concurrent runs of one test. TestTempPath puts every path under a
// directory named for the running test and the process id, and the
// directory is removed when the test ends without a failure (a failing
// test leaves it for inspection).

#ifndef NIDC_TESTS_TEMP_PATH_H_
#define NIDC_TESTS_TEMP_PATH_H_

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <system_error>

#include <gtest/gtest.h>

namespace nidc {

/// <TempDir>/nidc_<suite>.<test>_<pid> for `info`.
inline std::string TestTempDirFor(const testing::TestInfo& info) {
  std::string name = std::string("nidc_") + info.test_suite_name() + "." +
                     info.name() + "_" + std::to_string(getpid());
  // Parameterized suites and tests carry a '/' in their names.
  std::replace(name.begin(), name.end(), '/', '_');
  std::string dir = testing::TempDir();
  if (!dir.empty() && dir.back() != '/') dir += '/';
  return dir + name;
}

/// `name` inside the running test's scratch directory, which is created on
/// first use. Must be called while a test runs.
inline std::string TestTempPath(const std::string& name) {
  const testing::TestInfo* info =
      testing::UnitTest::GetInstance()->current_test_info();
  const std::string dir = TestTempDirFor(*info);
  std::filesystem::create_directories(dir);
  return dir + "/" + name;
}

/// Removes a test's scratch directory when the test ends without a
/// failure.
class TestTempDirCleaner : public testing::EmptyTestEventListener {
  void OnTestEnd(const testing::TestInfo& info) override {
    if (info.result()->Failed()) return;
    std::error_code ignored;
    std::filesystem::remove_all(TestTempDirFor(info), ignored);
  }
};

/// Installs one cleaner per test binary that includes this header.
inline const bool kTestTempDirCleanerInstalled = [] {
  testing::UnitTest::GetInstance()->listeners().Append(
      new TestTempDirCleaner);
  return true;
}();

}  // namespace nidc

#endif  // NIDC_TESTS_TEMP_PATH_H_
