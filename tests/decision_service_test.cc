#include "service/decision_service.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "completeness/rcdp.h"
#include "completeness/rcqp.h"
#include "service/checkpoint_store.h"
#include "spec/spec_parser.h"
#include "util/execution_control.h"
#include "util/fs_env.h"
#include "util/str.h"

namespace relcomp {
namespace {

/// An incomplete instance whose single counterexample sits in the far
/// corner of the valuation space: S holds every pair over
/// {0..5} x {0..6} except (5, 6), and S's first column is IND-bounded
/// by M = {0..5}. The only new answer any complete extension can add
/// is (5, 6), so the search must walk essentially the whole space
/// (several dozen decision points, under either variable order) before
/// the verdict — enough room to slice, checkpoint, and crash.
const std::string& IncompleteSpec() {
  static const std::string spec = [] {
    std::string s = "relation S(a, b)\nmaster relation M(m)\n";
    for (int x = 0; x <= 5; ++x) {
      for (int y = 0; y <= 6; ++y) {
        if (x == 5 && y == 6) continue;
        s += StrCat("fact S(", x, ", ", y, ")\n");
      }
    }
    for (int m = 0; m <= 5; ++m) s += StrCat("master fact M(", m, ")\n");
    s += "constraint c0(x) :- S(x, y) |= M[0]\n";
    s += "query cq Q(x, y) :- S(x, y)\n";
    return s;
  }();
  return spec;
}

/// A chase that converges: both S columns are IND-bounded by a small
/// master relation, so the chase closes the finite M × M space within
/// a few rounds.
constexpr char kChaseableSpec[] = R"spec(
relation S(a, b)
master relation M(m)
fact S(0, 1)
master fact M(0)
master fact M(1)
constraint c0(x) :- S(x, y) |= M[0]
constraint c1(y) :- S(x, y) |= M[0]
query cq Q(x, y) :- S(x, y)
)spec";

std::string FreshDir(const char* tag) {
  static int counter = 0;
  return StrCat(::testing::TempDir(), "/relcomp_svc_", ::getpid(), "_", tag,
                "_", counter++);
}

JobSpec MakeJob(JobKind kind, const std::string& spec, size_t threads = 1,
                size_t slice = 0) {
  JobSpec job;
  job.kind = kind;
  job.spec_text = spec;
  job.num_threads = threads;
  job.slice_steps = slice;
  return job;
}

/// The service's canonical evidence string, recomputed from a direct
/// library call — the oracle every service result is compared against.
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

/// Decision points an uninterrupted run claims — the sweep range.
size_t CountDecisionPoints(const std::string& spec_text, JobKind kind,
                           size_t threads) {
  auto spec = ParseCompletenessSpec(spec_text);
  EXPECT_TRUE(spec.ok());
  ExecutionBudget budget;
  budget.set_max_steps(1u << 30);
  RcdpOptions options;
  options.num_threads = threads;
  options.budget = &budget;
  if (kind == JobKind::kChase) {
    auto r = ChaseToCompleteness(spec->queries[0], spec->db, spec->master,
                                 spec->constraints, /*max_rounds=*/32,
                                 options);
    EXPECT_TRUE(r.ok());
  } else {
    auto r = DecideRcdp(spec->queries[0], spec->db, spec->master,
                        spec->constraints, options);
    EXPECT_TRUE(r.ok());
  }
  return budget.steps();
}

/// Runs `job` as "req" on a fresh un-faulted service; returns the
/// terminal JobResult.
JobResult RunToCompletion(const std::string& dir, const JobSpec& job,
                          const DecisionServiceOptions& options = {}) {
  auto service = DecisionService::Start(dir, options);
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  EXPECT_TRUE((*service)->Submit("req", job).ok());
  auto result = (*service)->Wait("req");
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? *result : JobResult{};
}

// ---------------------------------------------------------------------------
// Submit/decide parity with the library.

TEST(DecisionServiceTest, RcdpJobMatchesTheDirectDecision) {
  JobResult r = RunToCompletion(FreshDir("rcdp"),
                                MakeJob(JobKind::kRcdp, IncompleteSpec()));
  EXPECT_EQ(r.verdict, Verdict::kIncomplete);
  EXPECT_EQ(r.evidence, DirectRcdpEvidence(IncompleteSpec(), 1));
  EXPECT_EQ(r.attempts, 1u);
  EXPECT_EQ(r.persisted, 0u);
}

TEST(DecisionServiceTest, RcqpJobMatchesTheDirectDecision) {
  auto spec = ParseCompletenessSpec(IncompleteSpec());
  ASSERT_TRUE(spec.ok());
  auto direct = DecideRcqp(spec->queries[0], spec->db_schema, spec->master,
                           spec->constraints, RcqpOptions());
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  JobResult r = RunToCompletion(FreshDir("rcqp"),
                                MakeJob(JobKind::kRcqp, IncompleteSpec()));
  EXPECT_EQ(r.verdict, direct->verdict);
  EXPECT_NE(r.evidence.find(direct->method), std::string::npos)
      << r.evidence;
}

TEST(DecisionServiceTest, ChaseJobMatchesTheDirectChase) {
  auto spec = ParseCompletenessSpec(kChaseableSpec);
  ASSERT_TRUE(spec.ok());
  auto direct =
      ChaseToCompleteness(spec->queries[0], spec->db, spec->master,
                          spec->constraints, /*max_rounds=*/32, {});
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  ASSERT_EQ(direct->verdict, Verdict::kComplete);

  JobResult r = RunToCompletion(FreshDir("chase"),
                                MakeJob(JobKind::kChase, kChaseableSpec));
  EXPECT_EQ(r.verdict, Verdict::kComplete);
  EXPECT_EQ(r.evidence, StrCat("COMPLETE|rounds=", direct->rounds, "|",
                               direct->db.ToString()));
}

TEST(DecisionServiceTest, SlicedExecutionPersistsAndStillMatches) {
  const size_t total = CountDecisionPoints(IncompleteSpec(), JobKind::kRcdp, 1);
  ASSERT_GT(total, 8u);
  const std::string dir = FreshDir("sliced");
  JobResult r = RunToCompletion(
      dir, MakeJob(JobKind::kRcdp, IncompleteSpec(), 1, total / 4 + 1));
  EXPECT_EQ(r.evidence, DirectRcdpEvidence(IncompleteSpec(), 1));
  EXPECT_GE(r.attempts, 2u) << "slice never exhausted";
  EXPECT_GE(r.persisted, 1u);
  EXPECT_GT(r.exhaustion.retry_count, 0u)
      << "retry observability lost";

  // A completed job leaves nothing behind: the store is empty again.
  auto store = CheckpointStore::Open(dir);
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE((*store)->PendingRequests().empty());
  EXPECT_EQ((*store)->LoadLatestCheckpoint("req").status().code(),
            StatusCode::kNotFound);
}

TEST(DecisionServiceTest, StepSlicesResumeWithoutBackoff) {
  // A step slice is the service's own planned boundary: its retry
  // resumes at once. Were the backoff applied, this job would sleep at
  // least 30 s before its second slice.
  const size_t total = CountDecisionPoints(IncompleteSpec(), JobKind::kRcdp, 1);
  DecisionServiceOptions options;
  options.backoff_base = std::chrono::seconds(30);
  options.backoff_cap = std::chrono::seconds(30);
  const auto start = std::chrono::steady_clock::now();
  JobResult r = RunToCompletion(
      FreshDir("nosleep"),
      MakeJob(JobKind::kRcdp, IncompleteSpec(), 1, total / 4 + 1), options);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(10));
  EXPECT_EQ(r.evidence, DirectRcdpEvidence(IncompleteSpec(), 1));
  EXPECT_GE(r.attempts, 2u) << "slice never exhausted";
  EXPECT_EQ(r.exhaustion.retry_count, r.attempts - 1)
      << "retry count is no longer monotonic";
}

// ---------------------------------------------------------------------------
// Admission, scheduling, deadlines.

TEST(DecisionServiceTest, AdmissionControlShedsBeyondTheQueueDepth) {
  DecisionServiceOptions options;
  options.max_queue_depth = 2;
  options.start_paused = true;
  auto service = DecisionService::Start(FreshDir("shed"), options);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE(
      (*service)->Submit("a", MakeJob(JobKind::kRcdp, IncompleteSpec())).ok());
  ASSERT_TRUE(
      (*service)->Submit("b", MakeJob(JobKind::kRcdp, IncompleteSpec())).ok());
  Status shed =
      (*service)->Submit("c", MakeJob(JobKind::kRcdp, IncompleteSpec()));
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted) << shed.ToString();
  EXPECT_EQ((*service)->jobs_shed(), 1u);
  // Shed jobs leave no durable residue: a restart must not resurrect c.
  (*service)->Resume();
  EXPECT_TRUE((*service)->Wait("a").ok());
  EXPECT_TRUE((*service)->Wait("b").ok());
  EXPECT_EQ((*service)->Wait("c").status().code(), StatusCode::kNotFound);
}

TEST(DecisionServiceTest, OldestDeadlineFirstScheduling) {
  DecisionServiceOptions options;
  options.num_workers = 1;
  options.start_paused = true;
  auto service = DecisionService::Start(FreshDir("edf"), options);
  ASSERT_TRUE(service.ok());

  JobSpec none = MakeJob(JobKind::kRcdp, IncompleteSpec());
  JobSpec late = none;
  late.deadline = std::chrono::milliseconds(120000);
  JobSpec early = none;
  early.deadline = std::chrono::milliseconds(60000);
  // Submission order deliberately inverts deadline order.
  ASSERT_TRUE((*service)->Submit("none", none).ok());
  ASSERT_TRUE((*service)->Submit("late", late).ok());
  ASSERT_TRUE((*service)->Submit("early", early).ok());
  (*service)->Resume();
  for (const char* id : {"none", "late", "early"}) {
    ASSERT_TRUE((*service)->Wait(id).ok()) << id;
  }
  const std::vector<std::string> expected = {"early", "late", "none"};
  EXPECT_EQ((*service)->completed_order(), expected);
}

TEST(DecisionServiceTest, ExpiredDeadlineIsTerminalUnknown) {
  JobSpec job = MakeJob(JobKind::kRcdp, IncompleteSpec());
  job.deadline = std::chrono::milliseconds(0);
  JobResult r = RunToCompletion(FreshDir("deadline"), job);
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_EQ(r.exhaustion.kind, BudgetKind::kDeadline)
      << r.exhaustion.ToString();
  EXPECT_EQ(r.evidence, "unknown|deadline");
}

TEST(DecisionServiceTest, InvalidSpecsAndDuplicateIdsAreRejectedAtSubmit) {
  auto service = DecisionService::Start(FreshDir("invalid"));
  ASSERT_TRUE(service.ok());
  JobSpec bad = MakeJob(JobKind::kRcdp, "relation ((((");
  EXPECT_EQ((*service)->Submit("bad", bad).code(),
            StatusCode::kInvalidArgument);

  JobSpec no_query = MakeJob(JobKind::kRcdp, IncompleteSpec());
  no_query.query_index = 7;
  EXPECT_EQ((*service)->Submit("oob", no_query).code(),
            StatusCode::kInvalidArgument);

  ASSERT_TRUE(
      (*service)->Submit("dup", MakeJob(JobKind::kRcdp, IncompleteSpec()))
          .ok());
  EXPECT_EQ(
      (*service)->Submit("dup", MakeJob(JobKind::kRcdp, IncompleteSpec()))
          .code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ((*service)->Wait("nonesuch").status().code(),
            StatusCode::kNotFound);
  EXPECT_TRUE((*service)->Wait("dup").ok());
}

TEST(DecisionServiceRecoveryTest, RecoveredSpecThatNoLongerParsesEndsTerminal) {
  const std::string dir = FreshDir("unparseable");
  {
    auto store = CheckpointStore::Open(dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    const JobSpec stale = MakeJob(JobKind::kRcdp, "relation ((((");
    ASSERT_TRUE((*store)->PersistJob("stale", stale.Serialize()).ok());
  }
  auto service = DecisionService::Start(dir);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  EXPECT_EQ((*service)->RecoveredJobs(), std::vector<std::string>{"stale"});
  auto result = (*service)->Wait("stale");
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
      << result.status().ToString();
  EXPECT_TRUE((*service)->store().PendingRequests().empty());
}

TEST(DecisionServiceTest, JobSpecWireFormRoundTrips) {
  JobSpec spec = MakeJob(JobKind::kChase, kChaseableSpec, 4, 250);
  spec.query_index = 2;
  spec.deadline = std::chrono::milliseconds(1500);
  spec.max_chase_rounds = 64;
  auto back = JobSpec::Deserialize(spec.Serialize());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->kind, JobKind::kChase);
  EXPECT_EQ(back->spec_text, spec.spec_text);
  EXPECT_EQ(back->query_index, 2u);
  EXPECT_EQ(back->num_threads, 4u);
  EXPECT_EQ(back->slice_steps, 250u);
  EXPECT_EQ(back->deadline, std::chrono::milliseconds(1500));
  EXPECT_EQ(back->max_chase_rounds, 64u);
  EXPECT_FALSE(JobSpec::Deserialize("relcomp-job/2 rcdp 0 1 0 - 32 0:").ok());
  EXPECT_FALSE(JobSpec::Deserialize("").ok());
}

TEST(DecisionServiceTest, SubmitRefusesJobsBeyondTheThreadAndDeadlineCaps) {
  // A thread count past kMaxJobThreads would size a worker pool, and a
  // deadline past kMaxJobDeadline (10^13 ms among them) would overflow
  // steady_clock arithmetic at admission. Both are refused up front;
  // nothing is admitted, so no such job ever runs.
  auto service = DecisionService::Start(FreshDir("bounds"));
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  JobSpec threads = MakeJob(JobKind::kRcdp, kChaseableSpec, kMaxJobThreads + 1);
  JobSpec late = MakeJob(JobKind::kRcdp, kChaseableSpec);
  late.deadline = kMaxJobDeadline + std::chrono::milliseconds(1);
  JobSpec overflowing = MakeJob(JobKind::kRcdp, kChaseableSpec);
  overflowing.deadline = std::chrono::milliseconds(10000000000000);
  JobSpec negative = MakeJob(JobKind::kRcdp, kChaseableSpec);
  negative.deadline = std::chrono::milliseconds(-1);
  for (const JobSpec& job : {threads, late, overflowing, negative}) {
    const Status admitted = (*service)->Submit("over-cap", job);
    EXPECT_EQ(admitted.code(), StatusCode::kInvalidArgument)
        << admitted.ToString();
  }
  EXPECT_TRUE((*service)->store().PendingRequests().empty());
  EXPECT_EQ((*service)->Poll("over-cap").status().code(),
            StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Crash/recovery sweeps. The contract under test: for EVERY
// interruption position, kill + restart + resume produces a verdict
// and evidence bit-for-bit identical to the uninterrupted run, and no
// corrupted store file is ever loaded.

class DecisionServiceSweepTest : public ::testing::TestWithParam<size_t> {
 protected:
  size_t threads() const { return GetParam(); }
};

TEST_P(DecisionServiceSweepTest, CrashAtEveryDecisionPointRecoversBitForBit) {
  const std::string expected = DirectRcdpEvidence(IncompleteSpec(), threads());
  const size_t total =
      CountDecisionPoints(IncompleteSpec(), JobKind::kRcdp, threads());
  ASSERT_GT(total, 0u);

  size_t crashes = 0;
  for (size_t point = 0; point < total; ++point) {
    const std::string dir = FreshDir("sweep");
    FaultInjector inject(FaultInjector::Fault::kPersistAbort, point);
    DecisionServiceOptions options;
    options.fault_injector = &inject;
    {
      auto service = DecisionService::Start(dir, options);
      ASSERT_TRUE(service.ok()) << service.status().ToString();
      ASSERT_TRUE(
          (*service)
              ->Submit("req",
                       MakeJob(JobKind::kRcdp, IncompleteSpec(), threads()))
              .ok());
      auto result = (*service)->Wait("req");
      if (result.ok()) {
        // The run finished before reaching `point` (parallel schedules
        // may claim fewer points on some interleavings).
        EXPECT_EQ(result->evidence, expected) << "point=" << point;
        continue;
      }
      ASSERT_EQ(result.status().code(), StatusCode::kFailedPrecondition)
          << result.status().ToString();
      ASSERT_TRUE((*service)->crashed());
      ++crashes;
    }
    // Kill done; restart on the same directory and let recovery run.
    auto restarted = DecisionService::Start(dir);
    ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();
    const auto recovered = (*restarted)->RecoveredJobs();
    ASSERT_EQ(recovered.size(), 1u) << "point=" << point;
    EXPECT_EQ(recovered[0], "req");
    auto result = (*restarted)->Wait("req");
    ASSERT_TRUE(result.ok())
        << "point=" << point << ": " << result.status().ToString();
    EXPECT_EQ(result->evidence, expected) << "point=" << point;
    EXPECT_EQ((*restarted)->store().corrupt_files_skipped(), 0u)
        << "a corrupted store file was read at point=" << point;
  }
  EXPECT_GT(crashes, 0u) << "the sweep never actually crashed";
}

TEST_P(DecisionServiceSweepTest, CrashAfterEveryPersistSiteRecoversBitForBit) {
  const std::string expected = DirectRcdpEvidence(IncompleteSpec(), threads());
  const size_t total =
      CountDecisionPoints(IncompleteSpec(), JobKind::kRcdp, threads());
  const size_t slice = total / 6 + 1;

  // Learn how many checkpoint writes the sliced run performs.
  DecisionServiceOptions sliced;
  JobResult uninterrupted = RunToCompletion(
      FreshDir("persistbase"),
      MakeJob(JobKind::kRcdp, IncompleteSpec(), threads(), slice), sliced);
  ASSERT_EQ(uninterrupted.evidence, expected);
  ASSERT_GE(uninterrupted.persisted, 1u);

  size_t crashes = 0;
  for (size_t k = 1; k <= uninterrupted.persisted; ++k) {
    const std::string dir = FreshDir("persistsweep");
    DecisionServiceOptions options;
    options.crash_after_persist = k;
    {
      auto service = DecisionService::Start(dir, options);
      ASSERT_TRUE(service.ok());
      ASSERT_TRUE((*service)
                      ->Submit("req", MakeJob(JobKind::kRcdp, IncompleteSpec(),
                                              threads(), slice))
                      .ok());
      auto result = (*service)->Wait("req");
      if (result.ok()) {
        // The run finished in fewer than k persists: how far a slice
        // advances under a shared step budget depends on which work
        // units had completed when it blew, so a multi-worker schedule
        // may cover the rank space in fewer slices than the baseline
        // measured. The verdict must still be bit-for-bit.
        EXPECT_EQ(result->evidence, expected) << "k=" << k;
        continue;
      }
      ASSERT_TRUE((*service)->crashed());
      ++crashes;
    }
    auto restarted = DecisionService::Start(dir);
    ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();
    auto result = (*restarted)->Wait("req");
    ASSERT_TRUE(result.ok())
        << "k=" << k << ": " << result.status().ToString();
    EXPECT_EQ(result->evidence, expected) << "k=" << k;
    EXPECT_EQ((*restarted)->store().corrupt_files_skipped(), 0u);
  }
  EXPECT_GT(crashes, 0u) << "the sweep never actually crashed";
}

INSTANTIATE_TEST_SUITE_P(Threads, DecisionServiceSweepTest,
                         ::testing::Values(1, 2, 8));

TEST(DecisionServiceRecoveryTest, MultiCrashChainEventuallyCompletes) {
  const std::string expected = DirectRcdpEvidence(IncompleteSpec(), 1);
  const size_t total =
      CountDecisionPoints(IncompleteSpec(), JobKind::kRcdp, 1);
  const size_t slice = total / 8 + 1;
  const std::string dir = FreshDir("chain");

  // Every process generation dies right after its first durable
  // checkpoint write; each life makes one slice of progress. The chain
  // must converge because resume never loses persisted work.
  bool submitted = false;
  for (size_t life = 0; life < 100; ++life) {
    DecisionServiceOptions options;
    options.crash_after_persist = 1;
    auto service = DecisionService::Start(dir, options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    if (!submitted) {
      ASSERT_TRUE(
          (*service)
              ->Submit("req",
                       MakeJob(JobKind::kRcdp, IncompleteSpec(), 1, slice))
              .ok());
      submitted = true;
    } else {
      ASSERT_EQ((*service)->RecoveredJobs().size(), 1u) << "life=" << life;
    }
    auto result = (*service)->Wait("req");
    if (result.ok()) {
      EXPECT_EQ(result->evidence, expected);
      EXPECT_GT(life, 0u) << "never crashed at all";
      return;
    }
    ASSERT_TRUE((*service)->crashed()) << "life=" << life;
  }
  FAIL() << "crash chain did not converge within 100 lives";
}

TEST(DecisionServiceRecoveryTest, ChaseCrashRecoveryIsDeterministic) {
  auto spec = ParseCompletenessSpec(kChaseableSpec);
  ASSERT_TRUE(spec.ok());
  auto direct =
      ChaseToCompleteness(spec->queries[0], spec->db, spec->master,
                          spec->constraints, /*max_rounds=*/32, {});
  ASSERT_TRUE(direct.ok());
  const std::string expected = StrCat("COMPLETE|rounds=", direct->rounds,
                                      "|", direct->db.ToString());

  const size_t total =
      CountDecisionPoints(kChaseableSpec, JobKind::kChase, 1);
  ASSERT_GT(total, 1u);
  // Crash mid-chase; the partially chased database dies with the
  // process, so recovery re-runs the (deterministic) chase from round
  // 0 — the final result must still be identical.
  const std::string dir = FreshDir("chasecrash");
  FaultInjector inject(FaultInjector::Fault::kPersistAbort, total / 2);
  DecisionServiceOptions options;
  options.fault_injector = &inject;
  {
    auto service = DecisionService::Start(dir, options);
    ASSERT_TRUE(service.ok());
    ASSERT_TRUE((*service)
                    ->Submit("req", MakeJob(JobKind::kChase, kChaseableSpec))
                    .ok());
    auto result = (*service)->Wait("req");
    ASSERT_FALSE(result.ok()) << "chase did not crash";
  }
  auto restarted = DecisionService::Start(dir);
  ASSERT_TRUE(restarted.ok());
  auto result = (*restarted)->Wait("req");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->evidence, expected);
}

TEST(DecisionServiceRecoveryTest, SubmitAfterCrashIsFailedPrecondition) {
  const std::string dir = FreshDir("aftercrash");
  FaultInjector inject(FaultInjector::Fault::kPersistAbort, 0);
  DecisionServiceOptions options;
  options.fault_injector = &inject;
  auto service = DecisionService::Start(dir, options);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE(
      (*service)->Submit("req", MakeJob(JobKind::kRcdp, IncompleteSpec())).ok());
  ASSERT_FALSE((*service)->Wait("req").ok());
  EXPECT_EQ(
      (*service)->Submit("next", MakeJob(JobKind::kRcdp, IncompleteSpec()))
          .code(),
      StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Concurrent store access (the tsan suite: name must match the tsan
// preset filter).

TEST(DecisionServiceConcurrencyTest, SecondServiceOnALiveDirectoryIsRefused) {
  const std::string dir = FreshDir("lockout");
  auto first = DecisionService::Start(dir);
  ASSERT_TRUE(first.ok());
  // The loser must get kFailedPrecondition, never a torn interleaving
  // of generations.
  auto second = DecisionService::Start(dir);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition)
      << second.status().ToString();
  first->reset();
  auto third = DecisionService::Start(dir);
  EXPECT_TRUE(third.ok()) << third.status().ToString();
}

TEST(DecisionServiceConcurrencyTest, ConcurrentSubmittersAndWorkersAreClean) {
  DecisionServiceOptions options;
  options.num_workers = 2;
  auto service = DecisionService::Start(FreshDir("concurrent"), options);
  ASSERT_TRUE(service.ok());

  constexpr int kPerThread = 3;
  std::vector<std::thread> submitters;
  for (int t = 0; t < 2; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        Status st = (*service)->Submit(
            StrCat("job-", t, "-", i),
            MakeJob(JobKind::kRcdp, IncompleteSpec(), 1, 64));
        EXPECT_TRUE(st.ok()) << st.ToString();
      }
    });
  }
  for (auto& s : submitters) s.join();

  const std::string expected = DirectRcdpEvidence(IncompleteSpec(), 1);
  for (int t = 0; t < 2; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      auto result = (*service)->Wait(StrCat("job-", t, "-", i));
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->evidence, expected);
    }
  }
}

/// A small complete instance; each k is a distinct verdict-cache key.
std::string TinySpec(int k) {
  return StrCat("relation R(a)\nmaster relation M(m)\nfact R(", k,
                ")\nmaster fact M(", k,
                ")\nconstraint c(x) :- R(x) |= M[0]\nquery cq Q(x) :- R(x)\n");
}

/// Four submitters race cache hits, cache misses, an unparseable spec
/// and duplicate ids (one id every thread tries, one already taken)
/// while a fifth thread polls. Submit parses outside mu_ and re-checks
/// admission after the parse; every job must still be admitted or
/// refused exactly as a serial service would, and decide as directly.
void ExpectExactAdmissionUnderRace(bool degraded) {
  FsEnv env;
  DecisionServiceOptions options;
  options.num_workers = 2;
  options.max_queue_depth = 1024;
  options.enable_verdict_cache = true;
  options.store_options.fs_env = &env;
  auto service = DecisionService::Start(
      FreshDir(degraded ? "race_degraded" : "race"), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  DecisionService& svc = **service;
  const std::string hit_spec = TinySpec(0);
  ASSERT_TRUE(svc.Submit("warm", MakeJob(JobKind::kRcdp, hit_spec)).ok());
  ASSERT_TRUE(svc.Wait("warm").ok());
  if (degraded) {
    // The next durable admission fails its persist and degrades the
    // service; from then on only cache hits are admitted, ephemerally.
    env.set_fault_plan([] {
      StorageFaultPlan plan;
      plan.kind = StorageFaultKind::kEio;
      plan.every = 1;
      plan.site = "record";
      return plan;
    }());
    EXPECT_EQ(svc.Submit("trip", MakeJob(JobKind::kRcdp, TinySpec(-1))).code(),
              StatusCode::kResourceExhausted);
    ASSERT_TRUE(svc.degraded());
  }
  const size_t shed_before = svc.jobs_shed();

  enum Kind { kHit, kMiss, kBad, kTaken, kShared, kKinds };
  struct Outcome {
    std::string id;
    std::string spec;
    Kind kind;
    Status status;
  };
  constexpr int kThreads = 4;
  constexpr int kPerThread = 3 * kKinds;
  std::vector<std::vector<Outcome>> outcomes(kThreads);
  std::atomic<bool> done{false};
  std::thread poller([&] {
    while (!done.load()) {
      for (int t = 0; t < kThreads; ++t) {
        (void)svc.Poll(StrCat("t", t, "-", kPerThread / 2));
      }
      (void)svc.Poll("shared");
      (void)svc.verdicts_served_from_cache();
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        Outcome o;
        o.kind = static_cast<Kind>((t + i) % kKinds);
        o.id = StrCat("t", t, "-", i);
        switch (o.kind) {
          case kHit: o.spec = hit_spec; break;
          case kMiss: o.spec = TinySpec(1 + t * kPerThread + i); break;
          case kBad: o.spec = "relation (((("; break;
          case kTaken: o.id = "warm"; o.spec = hit_spec; break;
          case kShared: o.id = "shared"; o.spec = hit_spec; break;
          case kKinds: break;
        }
        o.status = svc.Submit(o.id, MakeJob(JobKind::kRcdp, o.spec));
        outcomes[t].push_back(std::move(o));
      }
    });
  }
  for (std::thread& s : submitters) s.join();

  std::map<std::string, std::string> direct;
  size_t hits = 0;
  size_t refused = 0;
  size_t shared_admitted = 0;
  for (const std::vector<Outcome>& per_thread : outcomes) {
    for (const Outcome& o : per_thread) {
      const bool admissible =
          o.kind == kHit || o.kind == kShared || (o.kind == kMiss && !degraded);
      if (o.kind == kShared) {
        if (o.status.ok()) ++shared_admitted;
      } else {
        EXPECT_EQ(o.status.ok(), admissible)
            << o.id << ": " << o.status.ToString();
      }
      if (!o.status.ok()) {
        ++refused;
        // A degraded service sheds everything it refuses (retryable);
        // a healthy one refuses bad specs and taken ids as invalid.
        EXPECT_EQ(o.status.code(), degraded ? StatusCode::kResourceExhausted
                                            : StatusCode::kInvalidArgument)
            << o.id << ": " << o.status.ToString();
        continue;
      }
      if (o.kind == kHit || o.kind == kShared) ++hits;
      if (direct.count(o.spec) == 0) {
        direct[o.spec] = DirectRcdpEvidence(o.spec, 1);
      }
      auto result = svc.Wait(o.id);
      ASSERT_TRUE(result.ok()) << o.id << ": " << result.status().ToString();
      EXPECT_EQ(result->evidence, direct[o.spec]) << o.id;
    }
  }
  done.store(true);
  poller.join();
  EXPECT_EQ(shared_admitted, 1u);
  EXPECT_EQ(svc.verdicts_served_from_cache(), hits);
  EXPECT_EQ(svc.jobs_shed() - shed_before, degraded ? refused : 0u);
  EXPECT_EQ(svc.ephemeral_admissions(), degraded ? hits : 0u);
}

TEST(DecisionServiceConcurrencyTest, ParseOutsideTheLockKeepsAdmissionExact) {
  ExpectExactAdmissionUnderRace(/*degraded=*/false);
  ExpectExactAdmissionUnderRace(/*degraded=*/true);
}

}  // namespace
}  // namespace relcomp
