#include "test_support.h"

#include <gtest/gtest.h>
#include <stdlib.h>

#include <cstdio>
#include <filesystem>
#include <mutex>

#include "util/str.h"

namespace relcomp {
namespace {

std::mutex scratch_mu;
std::string scratch_dir;  // empty until first use in this run
size_t next_path = 0;

/// Removes the scratch directory at the end of a run whose tests all
/// passed (with --gtest_repeat, at the end of each such iteration).
class ScratchCleanup : public ::testing::Environment {
 public:
  void TearDown() override {
    std::lock_guard<std::mutex> lock(scratch_mu);
    if (scratch_dir.empty()) return;
    if (::testing::UnitTest::GetInstance()->Passed()) {
      std::error_code ignored;
      std::filesystem::remove_all(scratch_dir, ignored);
    } else {
      std::fprintf(stderr, "test scratch directory kept: %s\n",
                   scratch_dir.c_str());
    }
    scratch_dir.clear();
  }
};

::testing::Environment* const kCleanup =
    ::testing::AddGlobalTestEnvironment(new ScratchCleanup);

}  // namespace

std::string FreshFile(std::string_view tag, std::string_view suffix) {
  std::lock_guard<std::mutex> lock(scratch_mu);
  if (scratch_dir.empty()) {
    std::string pattern = StrCat(::testing::TempDir(), "relcomp_XXXXXX");
    if (::mkdtemp(pattern.data()) == nullptr) {
      ADD_FAILURE() << "mkdtemp(" << pattern << ") failed";
      return pattern;
    }
    scratch_dir = std::move(pattern);
  }
  return StrCat(scratch_dir, "/", tag, "_", next_path++, suffix);
}

}  // namespace relcomp
