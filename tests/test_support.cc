#include "test_support.h"

#include <gtest/gtest.h>
#include <stdlib.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <mutex>

#include "completeness/rcdp.h"
#include "spec/spec_parser.h"
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
    // TempDir() is $TEST_TMPDIR as given, with no separator added.
    std::string base = ::testing::TempDir();
    if (!base.empty() && base.back() != '/') base += '/';
    std::string pattern = StrCat(base, "relcomp_XXXXXX");
    if (::mkdtemp(pattern.data()) == nullptr) {
      ADD_FAILURE() << "mkdtemp(" << pattern << ") failed";
      return pattern;
    }
    scratch_dir = std::move(pattern);
  }
  return StrCat(scratch_dir, "/", tag, "_", next_path++, suffix);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

std::string GridSpec(int max_x, int max_y) {
  std::string s =
      "relation S(a, b)\nmaster relation M(m)\nmaster relation N(n)\n";
  for (int x = 0; x <= max_x; ++x) {
    for (int y = 0; y <= max_y; ++y) {
      if (x == max_x && y == max_y) continue;
      s += StrCat("fact S(", x, ", ", y, ")\n");
    }
  }
  for (int m = 0; m <= max_x; ++m) s += StrCat("master fact M(", m, ")\n");
  for (int n = 0; n <= max_y; ++n) s += StrCat("master fact N(", n, ")\n");
  s += "constraint c0(x) :- S(x, y) |= M[0]\n";
  s += "constraint c1(y) :- S(x, y) |= N[0]\n";
  s += "query cq Q(x, y) :- S(x, y)\n";
  return s;
}

std::string CompleteGridUcqSpec(int max_x, int max_y) {
  std::string s =
      "relation S(a, b)\nmaster relation M(m)\nmaster relation N(n)\n";
  for (int x = 0; x <= max_x; ++x) {
    for (int y = 0; y <= max_y; ++y) s += StrCat("fact S(", x, ", ", y, ")\n");
  }
  for (int m = 0; m <= max_x; ++m) s += StrCat("master fact M(", m, ")\n");
  for (int n = 0; n <= max_y; ++n) s += StrCat("master fact N(", n, ")\n");
  s += "constraint c0(x) :- S(x, y) |= M[0]\n";
  s += "constraint c1(y) :- S(x, y) |= N[0]\n";
  s += "query ucq Q(x, y) :- S(x, y), x = 0. Q(x, y) :- S(x, y)\n";
  return s;
}

std::optional<std::vector<bool>> XorSubset(const std::vector<uint64_t>& values,
                                           const std::vector<size_t>& order,
                                           uint64_t target) {
  struct Row {
    uint64_t bits = 0;
    std::vector<bool> used;
  };
  auto fold = [](Row* into, const Row& row) {
    into->bits ^= row.bits;
    for (size_t j = 0; j < row.used.size(); ++j) {
      if (row.used[j]) into->used[j] = !into->used[j];
    }
  };
  const std::vector<bool> none(values.size(), false);
  std::vector<Row> basis(64, Row{0, none});  // basis[b]: top bit b
  for (const size_t j : order) {
    Row row{values[j], none};
    row.used[j] = true;
    for (size_t b = 64; b-- > 0 && row.bits != 0;) {
      if (((row.bits >> b) & 1) == 0) continue;
      if (basis[b].bits == 0) {
        basis[b] = row;
        break;
      }
      fold(&row, basis[b]);
    }
  }
  Row rest{target, none};
  for (size_t b = 64; b-- > 0;) {
    if (((rest.bits >> b) & 1) != 0 && basis[b].bits != 0) {
      fold(&rest, basis[b]);
    }
  }
  if (rest.bits != 0) return std::nullopt;
  return rest.used;
}

std::string DirectRcdpEvidence(const std::string& spec_text, size_t threads) {
  auto spec = ParseCompletenessSpec(spec_text);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  RcdpOptions options;
  options.num_threads = threads;
  auto r = DecideRcdp(spec->queries[0], spec->db, spec->master,
                      spec->constraints, options);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return StrCat(VerdictToString(r->verdict), "|",
                r->counterexample_delta.has_value()
                    ? r->counterexample_delta->ToString()
                    : std::string("<none>"),
                "|",
                r->new_answer.has_value() ? r->new_answer->ToString()
                                          : std::string("<none>"));
}

}  // namespace relcomp
