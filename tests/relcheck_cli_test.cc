// Exit-code contract of the relcheck CLI, exercised against the real
// binary (path injected by CMake as RELCHECK_BINARY):
//   0 complete, 1 incomplete, 2 unknown/exhausted, 3 usage-or-internal.

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <string>

#include "util/str.h"
#include "test_support.h"

namespace relcomp {
namespace {

/// Runs the binary with `args`, discarding output; returns exit code.
int RunRelcheck(const std::string& args) {
  const std::string command =
      StrCat(RELCHECK_BINARY, " ", args, " > /dev/null 2> /dev/null");
  int raw = std::system(command.c_str());
  EXPECT_NE(raw, -1);
  EXPECT_TRUE(WIFEXITED(raw)) << "relcheck did not exit normally";
  return WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
}

std::string WriteSpec(const char* tag, const std::string& content) {
  const std::string path = FreshFile(tag, ".rcspec");
  std::ofstream out(path);
  out << content;
  EXPECT_TRUE(out.good());
  return path;
}

/// Complete: S pairs every master value with a y, and the query
/// projects y away — no complete extension can add an answer.
constexpr char kCompleteSpec[] = R"spec(
relation S(a, b)
master relation M(m)
fact S(0, 0)
fact S(1, 0)
master fact M(0)
master fact M(1)
constraint c0(x) :- S(x, y) |= M[0]
query cq Q(x) :- S(x, y)
)spec";

/// Incomplete: the witness (1, ...) is missing from S.
constexpr char kIncompleteSpec[] = R"spec(
relation S(a, b)
master relation M(m)
fact S(0, 0)
master fact M(0)
master fact M(1)
constraint c0(x) :- S(x, y) |= M[0]
query cq Q(x) :- S(x, y)
)spec";

/// Violates its own containment constraint: 7 is not master data.
constexpr char kNotClosedSpec[] = R"spec(
relation S(a, b)
master relation M(m)
fact S(7, 0)
master fact M(0)
constraint c0(x) :- S(x, y) |= M[0]
query cq Q(x) :- S(x, y)
)spec";

TEST(RelcheckCliTest, CompleteSpecExitsZero) {
  EXPECT_EQ(RunRelcheck(WriteSpec("complete", kCompleteSpec)), 0);
}

TEST(RelcheckCliTest, IncompleteSpecExitsOne) {
  EXPECT_EQ(RunRelcheck(WriteSpec("incomplete", kIncompleteSpec)), 1);
}

TEST(RelcheckCliTest, ExhaustedBudgetExitsTwo) {
  // A step budget (unlike a wall-clock one) exhausts at the same
  // decision point on every machine — no timing flake.
  EXPECT_EQ(RunRelcheck(StrCat(WriteSpec("grid", GridSpec(5, 6)),
                               " --max-steps 3")),
            2);
}

TEST(RelcheckCliTest, UsageErrorsExitThree) {
  EXPECT_EQ(RunRelcheck(""), 3);                       // no spec
  EXPECT_EQ(RunRelcheck("--no-such-flag"), 3);         // unknown flag
  EXPECT_EQ(RunRelcheck("/no/such/spec.rcspec"), 3);   // unreadable
  EXPECT_EQ(RunRelcheck("--serve unix:/tmp/x.sock"), 3);  // no store dir
}

TEST(RelcheckCliTest, NotPartiallyClosedExitsThree) {
  // The model's precondition fails — an input error, not a verdict.
  EXPECT_EQ(RunRelcheck(WriteSpec("open", kNotClosedSpec)), 3);
}

TEST(RelcheckCliTest, ConnectToDeadServerExitsThree) {
  EXPECT_EQ(RunRelcheck(StrCat("--connect unix:/no/such/server.sock ",
                               WriteSpec("dead", kIncompleteSpec))),
            3);
}

std::string WriteDelta(const char* tag, const std::string& content) {
  const std::string path = FreshFile(tag, ".delta");
  std::ofstream out(path);
  out << content;
  EXPECT_TRUE(out.good());
  return path;
}

std::string FreshStoreDir(const char* tag) {
  const std::string dir = FreshDir(tag);
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

TEST(RelcheckCliTest, DeltaRequiresResumeDir) {
  const std::string spec = WriteSpec("delta_nodir", kCompleteSpec);
  const std::string delta = WriteDelta("noop", "insert S(0, 0)\n");
  EXPECT_EQ(RunRelcheck(StrCat(spec, " --delta ", delta)), 3);
}

TEST(RelcheckCliTest, DeltaRecertifyTransitionsCompleteToIncomplete) {
  // Baseline certifies COMPLETE; a master insert opens a new witness
  // slot, and the incremental re-audit flips the exit code to 1.
  const std::string spec = WriteSpec("delta_c2i", kCompleteSpec);
  const std::string dir = FreshStoreDir("c2i");
  EXPECT_EQ(RunRelcheck(StrCat(spec, " --resume-dir ", dir)), 0);
  const std::string delta = WriteDelta("c2i", "master insert M(2)\n");
  EXPECT_EQ(
      RunRelcheck(StrCat(spec, " --resume-dir ", dir, " --delta ", delta)),
      1);
}

TEST(RelcheckCliTest, DeltaRecertifyTransitionsIncompleteToComplete) {
  // Inserting the missing witness makes the incomplete spec complete.
  const std::string spec = WriteSpec("delta_i2c", kIncompleteSpec);
  const std::string dir = FreshStoreDir("i2c");
  EXPECT_EQ(RunRelcheck(StrCat(spec, " --resume-dir ", dir)), 1);
  const std::string delta = WriteDelta("i2c", "insert S(1, 0)\n");
  EXPECT_EQ(
      RunRelcheck(StrCat(spec, " --resume-dir ", dir, " --delta ", delta)),
      0);
}

TEST(RelcheckCliTest, DeltaNoopServesCertificate) {
  // A no-op batch leaves the content fingerprint unchanged; the stored
  // certificate is re-served with the same exit code.
  const std::string spec = WriteSpec("delta_noop", kCompleteSpec);
  const std::string dir = FreshStoreDir("noop");
  EXPECT_EQ(RunRelcheck(StrCat(spec, " --resume-dir ", dir)), 0);
  const std::string delta =
      WriteDelta("noop2", "insert S(0, 0)\ndelete S(9, 9)\n");
  EXPECT_EQ(
      RunRelcheck(StrCat(spec, " --resume-dir ", dir, " --delta ", delta)),
      0);
}

TEST(RelcheckCliTest, DeltaBreakingClosureExitsThree) {
  // The updated database violates V: the model's precondition fails,
  // which is an input error on the delta path too.
  const std::string spec = WriteSpec("delta_open", kCompleteSpec);
  const std::string dir = FreshStoreDir("open");
  EXPECT_EQ(RunRelcheck(StrCat(spec, " --resume-dir ", dir)), 0);
  const std::string delta = WriteDelta("open", "insert S(7, 0)\n");
  EXPECT_EQ(
      RunRelcheck(StrCat(spec, " --resume-dir ", dir, " --delta ", delta)),
      3);
}

TEST(RelcheckCliTest, DeltaBadBatchExitsThree) {
  const std::string spec = WriteSpec("delta_bad", kCompleteSpec);
  const std::string dir = FreshStoreDir("bad");
  const std::string malformed = WriteDelta("bad", "frobnicate S(0, 0)\n");
  EXPECT_EQ(RunRelcheck(
                StrCat(spec, " --resume-dir ", dir, " --delta ", malformed)),
            3);
  // Syntactically fine, semantically bad: unknown relation.
  const std::string unknown = WriteDelta("bad2", "insert NoSuch(0)\n");
  EXPECT_EQ(RunRelcheck(
                StrCat(spec, " --resume-dir ", dir, " --delta ", unknown)),
            3);
  EXPECT_EQ(RunRelcheck(StrCat(spec, " --resume-dir ", dir,
                               " --delta /no/such/file.delta")),
            3);
}

TEST(RelcheckCliTest, WorstQueryOutcomeWins) {
  // One complete and one incomplete query in the same spec: exit 1.
  const std::string spec = StrCat(
      "relation S(a, b)\nmaster relation M(m)\n",
      "fact S(0, 0)\nfact S(1, 0)\n",
      "master fact M(0)\nmaster fact M(1)\n",
      "constraint c0(x) :- S(x, y) |= M[0]\n",
      "query cq Q(x) :- S(x, y)\n",      // complete (projection)
      "query cq R(x, y) :- S(x, y)\n");  // incomplete (fresh y)
  EXPECT_EQ(RunRelcheck(WriteSpec("mixed", spec)), 1);
}

}  // namespace
}  // namespace relcomp
