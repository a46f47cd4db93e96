// Per-test scratch directory for tests that write files.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

namespace gbmo {

// A directory of the running test's own, named from its suite, its name and
// the process id: ctest runs tests as concurrent processes, so fixed paths
// would let one test overwrite another's files. Create it inside the test
// (or its fixture); it is removed when the object goes out of scope.
class TestTempDir {
 public:
  TestTempDir() {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("gbmo_test_") + info->test_suite_name() + "_" +
            info->name() + "_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  ~TestTempDir() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  TestTempDir(const TestTempDir&) = delete;
  TestTempDir& operator=(const TestTempDir&) = delete;

  std::string path(const char* name) const { return (dir_ / name).string(); }

 private:
  std::filesystem::path dir_;
};

}  // namespace gbmo
