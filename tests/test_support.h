#ifndef RELCOMP_TESTS_TEST_SUPPORT_H_
#define RELCOMP_TESTS_TEST_SUPPORT_H_

#include <cstddef>
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

/// The whole content of the file at `path` (a test failure, and "",
/// when it cannot be opened).
std::string ReadFile(const std::string& path);

// Shared instances and oracles of the service, store and fabric suites.

/// The far-corner grid: S holds every pair over {0..max_x} x
/// {0..max_y} except the corner (max_x, max_y), and master relations
/// M = {0..max_x} and N = {0..max_y} bound its two columns. The only
/// new answer an extension can add is the corner, so the search walks
/// the whole valuation space, finishing work units on the way, before
/// it decides incomplete: room to persist, checkpoint, crash and hand
/// off mid-search. GridSpec(5, 6) claims 76 decision points at 1
/// search thread, and at 8 on nearly every schedule: units past the
/// winner are cancelled part-way, and 2 of 43 eight-thread runs claimed
/// 96 and 108.
std::string GridSpec(int max_x, int max_y);

/// The decision service's canonical evidence string for an RCDP job on
/// the first query of `spec_text`, recomputed by a direct DecideRcdp
/// call at `threads` search threads: the oracle every served, recovered
/// or cached result is compared against.
std::string DirectRcdpEvidence(const std::string& spec_text,
                               size_t threads = 1);

}  // namespace relcomp

#endif  // RELCOMP_TESTS_TEST_SUPPORT_H_
