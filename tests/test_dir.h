#ifndef STREAMHIST_TESTS_TEST_DIR_H_
#define STREAMHIST_TESTS_TEST_DIR_H_

// A scratch directory private to the running test. ctest runs every test
// case as its own process, so under `ctest -j` two cases that write the same
// fixed name under ::testing::TempDir() race on one file. The directory name
// carries the suite, the test and the process id, so no two live tests share
// it; it is created empty and removed with everything in it on destruction.

#include <unistd.h>

#include <filesystem>
#include <string>

#include <gtest/gtest.h>

namespace streamhist {

class ScopedTestDir {
 public:
  ScopedTestDir() {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = info == nullptr
                           ? std::string("no-test")
                           : std::string(info->test_suite_name()) + "." +
                                 info->name();
    for (char& c : name) {
      if (c == '/') c = '_';  // parameterized names carry a '/'
    }
    path_ = ::testing::TempDir() + "/streamhist-" + name + "-" +
            std::to_string(::getpid());
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScopedTestDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScopedTestDir(const ScopedTestDir&) = delete;
  ScopedTestDir& operator=(const ScopedTestDir&) = delete;

  const std::string& path() const { return path_; }
  // `name` inside the directory.
  std::string File(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

}  // namespace streamhist

#endif  // STREAMHIST_TESTS_TEST_DIR_H_
