#ifndef RELCOMP_TESTS_TEST_SUPPORT_H_
#define RELCOMP_TESTS_TEST_SUPPORT_H_

#include <string>
#include <string_view>

namespace relcomp {

// Scratch paths for the suites that touch the file system. Every path
// lies inside one directory per test binary, made with mkdtemp under
// gtest's temporary directory ($TEST_TMPDIR, else /tmp) on first use.
// That directory is removed once every test of the run has passed, and
// kept (its path printed on stderr) when one fails. Each call returns a
// path that does not exist yet; nothing is created at it.

/// A file path "<scratch>/<tag>_<n><suffix>".
std::string FreshFile(std::string_view tag, std::string_view suffix = "");

/// A directory path "<scratch>/<tag>_<n>".
inline std::string FreshDir(std::string_view tag) {
  return FreshFile(tag);
}

/// A unix-socket endpoint "unix:<scratch>/<tag>_<n>.sock".
inline std::string FreshSocket(std::string_view tag) {
  return "unix:" + FreshFile(tag, ".sock");
}

}  // namespace relcomp

#endif  // RELCOMP_TESTS_TEST_SUPPORT_H_
