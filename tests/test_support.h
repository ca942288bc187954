#ifndef RELCOMP_TESTS_TEST_SUPPORT_H_
#define RELCOMP_TESTS_TEST_SUPPORT_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

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

/// The full grid: GridSpec's instance with its corner present too,
/// audited by a two-disjunct UCQ whose first disjunct is pinned to
/// x = 0. Every extension the masters allow is already in S, so the
/// decision is COMPLETE and every work unit of both disjuncts' searches
/// runs to exhaustion, at any thread count; the start of the second
/// disjunct is always reported to a progress sink, on the calling
/// thread.
std::string CompleteGridUcqSpec(int max_x, int max_y);

/// A subset of `values` whose XOR is `target`, found by Gaussian
/// elimination over GF(2)^64 with the basis taken in `order` (a
/// permutation of the indexes of `values`), as a membership mask;
/// std::nullopt when `target` is outside their span. Forges two sets
/// whose XOR folds of per-tuple hashes agree.
std::optional<std::vector<bool>> XorSubset(const std::vector<uint64_t>& values,
                                           const std::vector<size_t>& order,
                                           uint64_t target);

/// The decision service's canonical evidence string for an RCDP job on
/// the first query of `spec_text`, recomputed by a direct DecideRcdp
/// call at `threads` search threads: the oracle every served, recovered
/// or cached result is compared against.
std::string DirectRcdpEvidence(const std::string& spec_text,
                               size_t threads = 1);

}  // namespace relcomp

#endif  // RELCOMP_TESTS_TEST_SUPPORT_H_
