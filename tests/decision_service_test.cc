#include "service/decision_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "completeness/rcdp.h"
#include "completeness/rcqp.h"
#include "service/checkpoint_store.h"
#include "spec/spec_parser.h"
#include "util/execution_control.h"
#include "util/fs_env.h"
#include "util/str.h"
#include "test_support.h"

namespace relcomp {
namespace {

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

JobSpec MakeJob(JobKind kind, const std::string& spec, size_t threads = 1,
                size_t slice = 0) {
  JobSpec job;
  job.kind = kind;
  job.spec_text = spec;
  job.num_threads = threads;
  job.slice_steps = slice;
  return job;
}

/// The evidence string of a direct RCQP decision, in the service's
/// format.
std::string DirectRcqpEvidence(const std::string& spec_text, size_t threads) {
  auto spec = ParseCompletenessSpec(spec_text);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  RcqpOptions options;
  options.rcdp.num_threads = threads;
  auto r = DecideRcqp(spec->queries[0], spec->db_schema, spec->master,
                      spec->constraints, options);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return StrCat(VerdictToString(r->verdict), "|",
                r->exists ? "exists" : "not-exists", "|", r->method, "|",
                r->witness.has_value() ? r->witness->ToString()
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
  } else if (kind == JobKind::kRcqp) {
    RcqpOptions rcqp;
    rcqp.rcdp = options;
    auto r = DecideRcqp(spec->queries[0], spec->db_schema, spec->master,
                        spec->constraints, rcqp);
    EXPECT_TRUE(r.ok());
  } else {
    auto r = DecideRcdp(spec->queries[0], spec->db, spec->master,
                        spec->constraints, options);
    EXPECT_TRUE(r.ok());
  }
  return budget.steps();
}

/// An RCQP instance on the Prop 4.3 path whose realizability probes
/// walk their whole valuation spaces: S's first column must lie in
/// both M = {0..9} and N = {10..19}, which share no value, so no
/// valuation of either disjunct's tableau is realizable and the
/// unbounded head variable (w, then x) never blocks completeness.
/// Every work unit of a probe runs to exhaustion, so a sliced job
/// persists as the probes advance. The second disjunct makes that
/// schedule-proof: a probe's low watermark can jump from rank 0 to the
/// end of its rank space, which is never reported, but the (1, 0)
/// report that opens the second probe always is.
const std::string& UnrealizableRcqpSpec() {
  static const std::string spec = [] {
    std::string s =
        "relation S(a, b)\nmaster relation M(m)\nmaster relation N(n)\n";
    for (int m = 0; m <= 9; ++m) s += StrCat("master fact M(", m, ")\n");
    for (int n = 10; n <= 19; ++n) s += StrCat("master fact N(", n, ")\n");
    s += "constraint c0(x) :- S(x, w) |= M[0]\n";
    s += "constraint c1(x) :- S(x, w) |= N[0]\n";
    s += "query ucq Q(x, w) :- S(x, w). Q(x, w) :- S(w, x)\n";
    return s;
  }();
  return spec;
}

/// The master_design workload's RCQP shape: Q2 asks which customers
/// e0 supports, and Supt[cid] ⊆ DCust[cid] bounds its only head
/// variable, so Prop 4.3 decides "exists" at once and the decision
/// points go to building the witness over 32 master customers.
const std::string& MasterDesignSpec() {
  static const std::string spec = [] {
    std::string s =
        "relation Cust(cid, name, cc, ac, phn)\n"
        "relation Supt(eid, dept, cid)\n"
        "master relation DCust(cid, name, ac, phn)\n";
    for (int i = 0; i < 32; ++i) {
      s += StrCat("master fact DCust(\"c", i, "\", \"n", i, "\", \"",
                  i % 2 == 0 ? "908" : "201", "\", \"555-", 1000 + i,
                  "\")\n");
      s += StrCat("fact Cust(\"c", i, "\", \"n", i, "\", \"01\", \"",
                  i % 2 == 0 ? "908" : "201", "\", \"555-", 1000 + i,
                  "\")\n");
    }
    s += "fact Supt(\"e0\", \"d0\", \"c0\")\n";
    s += "fact Supt(\"e0\", \"d0\", \"c1\")\n";
    s += "fact Supt(\"e1\", \"d1\", \"c2\")\n";
    s += "constraint qs(c) :- Supt(e, d, c) |= DCust[0]\n";
    s += "query cq Q2(c) :- Supt(e, d, c), e = \"e0\"\n";
    return s;
  }();
  return spec;
}

/// Records the checkpoint every checkpoint-record write carries, in
/// write order — the persisted sequence of a run, which the store's
/// garbage collection and a completed job's Forget() would erase.
class CheckpointRecorder : public FsEnv {
 public:
  ssize_t Write(std::string_view site, int fd, const void* buf,
                size_t count) override {
    if (site == "record.ckpt") {
      // The record is "... <len>:<checkpoint text>#crc32:<hex>" and
      // goes out in one write.
      const std::string_view body(static_cast<const char*>(buf), count);
      const size_t at = body.find("relcomp-ckpt/1 ");
      const size_t len_at = body.rfind(' ', at) + 1;
      const size_t len = std::stoul(
          std::string(body.substr(len_at, at - 1 - len_at)));
      auto ckpt = SearchCheckpoint::Deserialize(body.substr(at, len));
      EXPECT_TRUE(ckpt.ok()) << ckpt.status().ToString();
      std::lock_guard<std::mutex> lock(mu_);
      if (ckpt.ok()) written_.push_back(*ckpt);
    }
    return FsEnv::Write(site, fd, buf, count);
  }

  std::vector<SearchCheckpoint> written() const {
    std::lock_guard<std::mutex> lock(mu_);
    return written_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<SearchCheckpoint> written_;
};

/// Records every store operation as "<op> <site> <file name>", in
/// issue order. A fault plan armed on it still applies.
class StoreOpRecorder : public FsEnv {
 public:
  int Open(std::string_view site, const char* path, int flags,
           mode_t mode) override {
    Note("open", site, path);
    return FsEnv::Open(site, path, flags, mode);
  }
  ssize_t Read(std::string_view site, int fd, void* buf,
               size_t count) override {
    Note("read", site);
    return FsEnv::Read(site, fd, buf, count);
  }
  ssize_t Write(std::string_view site, int fd, const void* buf,
                size_t count) override {
    Note("write", site);
    return FsEnv::Write(site, fd, buf, count);
  }
  int Fsync(std::string_view site, int fd) override {
    Note("fsync", site);
    return FsEnv::Fsync(site, fd);
  }
  int Rename(std::string_view site, const char* from,
             const char* to) override {
    Note("rename", site, to);
    return FsEnv::Rename(site, from, to);
  }
  int Unlink(std::string_view site, const char* path) override {
    Note("unlink", site, path);
    return FsEnv::Unlink(site, path);
  }
  int Flock(std::string_view site, int fd, int operation) override {
    Note("flock", site);
    return FsEnv::Flock(site, fd, operation);
  }
  int Mkdir(std::string_view site, const char* path, mode_t mode) override {
    Note("mkdir", site, path);
    return FsEnv::Mkdir(site, path, mode);
  }
  DIR* Opendir(std::string_view site, const char* path) override {
    Note("opendir", site, path);
    return FsEnv::Opendir(site, path);
  }

  /// The operations recorded since the last call.
  std::vector<std::string> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(ops_, {});
  }

 private:
  void Note(std::string_view op, std::string_view site,
            std::string_view path = "") {
    const std::string_view name = path.substr(path.rfind('/') + 1);
    std::lock_guard<std::mutex> lock(mu_);
    ops_.push_back(StrCat(op, " ", site, " ", name));
  }

  std::mutex mu_;
  std::vector<std::string> ops_;
};

/// Records the thread of every checkpoint and verdict record write.
class RecordWriterThreads : public FsEnv {
 public:
  ssize_t Write(std::string_view site, int fd, const void* buf,
                size_t count) override {
    if (site == "record.ckpt" || site == "record.vrd") {
      std::lock_guard<std::mutex> lock(mu_);
      (site == "record.ckpt" ? ckpt_ : vrd_)
          .push_back(std::this_thread::get_id());
    }
    return FsEnv::Write(site, fd, buf, count);
  }

  std::vector<std::thread::id> ckpt() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ckpt_;
  }
  std::vector<std::thread::id> vrd() const {
    std::lock_guard<std::mutex> lock(mu_);
    return vrd_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::thread::id> ckpt_;
  std::vector<std::thread::id> vrd_;
};

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
                                MakeJob(JobKind::kRcdp, GridSpec(5, 6)));
  EXPECT_EQ(r.verdict, Verdict::kIncomplete);
  EXPECT_EQ(r.evidence, DirectRcdpEvidence(GridSpec(5, 6), 1));
  EXPECT_EQ(r.attempts, 1u);
  EXPECT_EQ(r.persisted, 0u);
}

TEST(DecisionServiceTest, RcqpJobMatchesTheDirectDecision) {
  auto spec = ParseCompletenessSpec(GridSpec(5, 6));
  ASSERT_TRUE(spec.ok());
  auto direct = DecideRcqp(spec->queries[0], spec->db_schema, spec->master,
                           spec->constraints, RcqpOptions());
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  JobResult r = RunToCompletion(FreshDir("rcqp"),
                                MakeJob(JobKind::kRcqp, GridSpec(5, 6)));
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
  const size_t total = CountDecisionPoints(GridSpec(5, 6), JobKind::kRcdp, 1);
  ASSERT_GT(total, 8u);
  const std::string dir = FreshDir("sliced");
  JobResult r = RunToCompletion(
      dir, MakeJob(JobKind::kRcdp, GridSpec(5, 6), 1, total / 4 + 1));
  EXPECT_EQ(r.evidence, DirectRcdpEvidence(GridSpec(5, 6), 1));
  // One uncapped run that persisted as it went: no slice, no retry.
  EXPECT_EQ(r.attempts, 1u);
  EXPECT_GE(r.persisted, 1u) << "no rolling persist landed";

  // A completed job leaves nothing behind: the store is empty again.
  auto store = CheckpointStore::Open(dir);
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE((*store)->PendingRequests().empty());
  EXPECT_EQ((*store)->LoadLatestCheckpoint("req").status().code(),
            StatusCode::kNotFound);
}

/// The checkpoints a sliced run of `job` persists, in order.
std::vector<SearchCheckpoint> PersistedSequence(const JobSpec& job,
                                                JobResult* result) {
  CheckpointRecorder recorder;
  DecisionServiceOptions options;
  options.store_options.fs_env = &recorder;
  *result = RunToCompletion(FreshDir("rolling"), job, options);
  return recorder.written();
}

TEST(DecisionServiceTest, RollingPersistsAdvanceAndRepeatAtOneThread) {
  // Interval 1: every advance of the search's low watermark persists.
  const JobSpec job = MakeJob(JobKind::kRcdp, GridSpec(5, 6), 1, 1);
  JobResult first;
  const std::vector<SearchCheckpoint> persisted =
      PersistedSequence(job, &first);
  EXPECT_EQ(first.evidence, DirectRcdpEvidence(GridSpec(5, 6), 1));
  EXPECT_EQ(first.attempts, 1u);
  ASSERT_GE(persisted.size(), 2u);
  EXPECT_EQ(first.persisted, persisted.size());
  for (size_t g = 0; g < persisted.size(); ++g) {
    EXPECT_EQ(persisted[g].decider, "rcdp");
    EXPECT_EQ(persisted[g].disjunct, 0u);
    if (g > 0) {
      EXPECT_LT(persisted[g - 1].rank, persisted[g].rank) << "generation " << g;
    }
  }
  // At one thread the units finish in rank order, so the persisted
  // sequence is a function of the job alone.
  JobResult second;
  EXPECT_EQ(PersistedSequence(job, &second), persisted);
  EXPECT_EQ(second.evidence, first.evidence);

  // At eight threads the sequence depends on the schedule, but it still
  // only moves forward.
  JobResult wide;
  const std::vector<SearchCheckpoint> wide_persisted = PersistedSequence(
      MakeJob(JobKind::kRcdp, GridSpec(5, 6), 8, 1), &wide);
  EXPECT_EQ(wide.evidence, DirectRcdpEvidence(GridSpec(5, 6), 8));
  for (size_t g = 1; g < wide_persisted.size(); ++g) {
    EXPECT_LT(wide_persisted[g - 1].rank, wide_persisted[g].rank)
        << "generation " << g;
  }
}

TEST(DecisionServiceTest, SlicedRcqpJobKeepsItsIndWitness) {
  // The step cap a slice used to arm tripped inside the Prop 4.3
  // witness construction, which dropped the witness and kept the
  // verdict. A persist interval caps nothing, so a sliced job's
  // evidence — witness included — is the unsliced one.
  const std::string& spec = MasterDesignSpec();
  const std::string expected = DirectRcqpEvidence(spec, 1);
  ASSERT_NE(expected.find("|exists|ind-syntactic|"), std::string::npos)
      << expected;
  ASSERT_EQ(expected.find("<none>"), std::string::npos) << expected;
  const size_t total = CountDecisionPoints(spec, JobKind::kRcqp, 1);
  ASSERT_GT(total, 8u);
  for (size_t slice : {size_t{0}, total / 8 + 1, total / 2 + 1}) {
    JobResult r = RunToCompletion(FreshDir("witness"),
                                  MakeJob(JobKind::kRcqp, spec, 1, slice));
    EXPECT_EQ(r.evidence, expected) << "slice=" << slice;
    EXPECT_EQ(r.attempts, 1u);
  }
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
      (*service)->Submit("a", MakeJob(JobKind::kRcdp, GridSpec(5, 6))).ok());
  ASSERT_TRUE(
      (*service)->Submit("b", MakeJob(JobKind::kRcdp, GridSpec(5, 6))).ok());
  Status shed =
      (*service)->Submit("c", MakeJob(JobKind::kRcdp, GridSpec(5, 6)));
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

  JobSpec none = MakeJob(JobKind::kRcdp, GridSpec(5, 6));
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
  JobSpec job = MakeJob(JobKind::kRcdp, GridSpec(5, 6));
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

  JobSpec no_query = MakeJob(JobKind::kRcdp, GridSpec(5, 6));
  no_query.query_index = 7;
  EXPECT_EQ((*service)->Submit("oob", no_query).code(),
            StatusCode::kInvalidArgument);

  ASSERT_TRUE(
      (*service)->Submit("dup", MakeJob(JobKind::kRcdp, GridSpec(5, 6)))
          .ok());
  EXPECT_EQ(
      (*service)->Submit("dup", MakeJob(JobKind::kRcdp, GridSpec(5, 6)))
          .code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ((*service)->Wait("nonesuch").status().code(),
            StatusCode::kNotFound);
  EXPECT_TRUE((*service)->Wait("dup").ok());
}

TEST(DecisionServiceTest, HealthyCacheHitTouchesNoStore) {
  // A hit's answer is already a durable verdict record, so answering it
  // writes no job record, syncs no directory and unlinks nothing: its
  // Submit and Wait issue no store operation at all.
  StoreOpRecorder recorder;
  DecisionServiceOptions options;
  options.enable_verdict_cache = true;
  options.store_options.fs_env = &recorder;
  auto service = DecisionService::Start(FreshDir("hit_io"), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  const JobSpec job = MakeJob(JobKind::kRcdp, GridSpec(5, 6));
  ASSERT_TRUE((*service)->Submit("miss", job).ok());
  ASSERT_TRUE((*service)->Wait("miss").ok());
  EXPECT_FALSE(recorder.Take().empty()) << "the miss wrote nothing";

  ASSERT_TRUE((*service)->Submit("hit", job).ok());
  auto hit = (*service)->Wait("hit");
  EXPECT_EQ(recorder.Take(), std::vector<std::string>{});
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_EQ(hit->evidence, DirectRcdpEvidence(GridSpec(5, 6)));
  EXPECT_EQ(hit->attempts, 0u);
  EXPECT_EQ((*service)->verdicts_served_from_cache(), 1u);
  EXPECT_FALSE((*service)->degraded());
}

TEST(DecisionServiceRecoveryTest, PendingJobWithACachedVerdictIsServedAtStart) {
  // A kill between a verdict's cache insert and its job's Forget leaves
  // both records. The successor answers the job from the cache while it
  // recovers — its workers are parked, so none can — and drops the
  // record.
  const std::string dir = FreshDir("recovered_hit");
  const JobSpec job = MakeJob(JobKind::kRcdp, GridSpec(5, 6));
  DecisionServiceOptions options;
  options.enable_verdict_cache = true;
  ASSERT_EQ(RunToCompletion(dir, job, options).attempts, 1u);
  {
    auto store = CheckpointStore::Open(dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->PersistJob("pending", job.Serialize()).ok());
  }
  options.start_paused = true;
  auto service = DecisionService::Start(dir, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  EXPECT_EQ((*service)->RecoveredJobs(), std::vector<std::string>{"pending"});
  auto poll = (*service)->Poll("pending");
  ASSERT_TRUE(poll.ok()) << poll.status().ToString();
  ASSERT_TRUE(poll->terminal) << "the recovered hit was queued";
  EXPECT_EQ(poll->result.evidence, DirectRcdpEvidence(GridSpec(5, 6)));
  EXPECT_EQ(poll->result.attempts, 0u);
  EXPECT_EQ((*service)->verdicts_served_from_cache(), 1u);
  EXPECT_TRUE((*service)->store().PendingRequests().empty());
}

TEST(DecisionServiceRecoveryTest, FinalUnknownsLeaveNoRecord) {
  // Two kUnknowns no re-run can change: a general-path RCQP pool search
  // that is not exhaustive (the CQ constraint keeps it off the IND
  // path, and the default max_witness_tuples of 3 is below its pool),
  // and a chase stopped by its round cap. Like a decided job, neither
  // persists anything or leaves a record for a restart to run again.
  const std::string dir = FreshDir("final_unknown");
  const std::string pool_spec =
      "relation S(a, b)\nmaster relation M(m)\n"
      "master fact M(0)\nmaster fact M(1)\n"
      "constraint c0(x) :- S(x, y), S(x, z) |= M[0]\n"
      "query cq Q(y) :- S(x, y)\n";
  JobSpec chase = MakeJob(JobKind::kChase, kChaseableSpec);
  chase.max_chase_rounds = 1;
  {
    auto service = DecisionService::Start(dir);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    ASSERT_TRUE(
        (*service)->Submit("pool", MakeJob(JobKind::kRcqp, pool_spec)).ok());
    ASSERT_TRUE((*service)->Submit("chase", chase).ok());
    auto pool = (*service)->Wait("pool");
    ASSERT_TRUE(pool.ok()) << pool.status().ToString();
    EXPECT_EQ(pool->evidence, "unknown|none");
    EXPECT_EQ(pool->attempts, 1u);
    auto rounds = (*service)->Wait("chase");
    ASSERT_TRUE(rounds.ok()) << rounds.status().ToString();
    EXPECT_EQ(rounds->evidence, "unknown|rounds");
    EXPECT_EQ(rounds->persisted, 0u);
    EXPECT_TRUE((*service)->store().PendingRequests().empty());
  }
  auto restarted = DecisionService::Start(dir);
  ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();
  EXPECT_TRUE((*restarted)->RecoveredJobs().empty());
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
  const std::string expected = DirectRcdpEvidence(GridSpec(5, 6), threads());
  const size_t total =
      CountDecisionPoints(GridSpec(5, 6), JobKind::kRcdp, threads());
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
                       MakeJob(JobKind::kRcdp, GridSpec(5, 6), threads()))
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
  const std::string expected = DirectRcdpEvidence(GridSpec(5, 6), threads());
  const size_t total =
      CountDecisionPoints(GridSpec(5, 6), JobKind::kRcdp, threads());
  const size_t slice = total / 6 + 1;

  // Learn how many rolling persists the sliced run performs.
  DecisionServiceOptions sliced;
  JobResult uninterrupted = RunToCompletion(
      FreshDir("persistbase"),
      MakeJob(JobKind::kRcdp, GridSpec(5, 6), threads(), slice), sliced);
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
                      ->Submit("req", MakeJob(JobKind::kRcdp, GridSpec(5, 6),
                                              threads(), slice))
                      .ok());
      auto result = (*service)->Wait("req");
      if (result.ok()) {
        // The run finished in fewer than k persists: which work units
        // have finished when the interval passes depends on the
        // schedule, so a multi-worker run may persist fewer times than
        // the baseline measured. The verdict must still be bit-for-bit.
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

TEST_P(DecisionServiceSweepTest,
       SlicedRcqpCrashAfterEveryPersistSiteRecoversBitForBit) {
  const std::string& spec = UnrealizableRcqpSpec();
  const std::string expected = DirectRcqpEvidence(spec, threads());
  // Interval 1: every advance of the probe's low watermark persists.
  const JobSpec job = MakeJob(JobKind::kRcqp, spec, threads(), 1);

  JobResult uninterrupted = RunToCompletion(FreshDir("rcqpbase"), job);
  ASSERT_EQ(uninterrupted.evidence, expected);
  // Above one thread, advances that land together persist once, and a
  // probe may persist nothing; the second probe's opening report does.
  ASSERT_GE(uninterrupted.persisted, threads() == 1 ? 2u : 1u);

  size_t crashes = 0;
  for (size_t k = 1; k <= uninterrupted.persisted; ++k) {
    const std::string dir = FreshDir("rcqpsweep");
    DecisionServiceOptions options;
    options.crash_after_persist = k;
    {
      auto service = DecisionService::Start(dir, options);
      ASSERT_TRUE(service.ok());
      ASSERT_TRUE((*service)->Submit("req", job).ok());
      auto result = (*service)->Wait("req");
      if (result.ok()) {
        // Fewer persists on this schedule (more than one thread).
        EXPECT_EQ(result->evidence, expected) << "k=" << k;
        continue;
      }
      ASSERT_TRUE((*service)->crashed());
      ++crashes;
    }
    {
      // Read the store before a successor owns it: its worker may
      // finish and forget the job before a read through it lands.
      auto store = CheckpointStore::Open(dir);
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      auto persisted = (*store)->LoadLatestCheckpoint("req");
      ASSERT_TRUE(persisted.ok()) << "k=" << k;
      EXPECT_EQ(persisted->checkpoint.decider, "rcqp-ind");
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

TEST_P(DecisionServiceSweepTest, CrashInsideTheIndWitnessRecoversBitForBit) {
  // Q2's only head variable is IND-bounded, so Prop 4.3 decides
  // "exists" without a probe and the decision points build the
  // witness. A kill at any of them must not finish the job without its
  // witness: the decider answers kUnknown with an rcqp-ind checkpoint
  // past the last tableau, the service persists it and dies, and the
  // successor rebuilds the witness.
  const std::string& spec = MasterDesignSpec();
  const std::string expected = DirectRcqpEvidence(spec, threads());
  ASSERT_EQ(expected.find("<none>"), std::string::npos) << expected;
  const size_t total = CountDecisionPoints(spec, JobKind::kRcqp, threads());
  const size_t stride = std::max<size_t>(1, total / 40);

  size_t points = 0;
  size_t in_witness = 0;
  for (size_t point = 0; point < total; point += stride) {
    ++points;
    const std::string dir = FreshDir("witnesssweep");
    FaultInjector inject(FaultInjector::Fault::kPersistAbort, point);
    DecisionServiceOptions options;
    options.fault_injector = &inject;
    {
      auto service = DecisionService::Start(dir, options);
      ASSERT_TRUE(service.ok()) << service.status().ToString();
      ASSERT_TRUE(
          (*service)
              ->Submit("req", MakeJob(JobKind::kRcqp, spec, threads()))
              .ok());
      auto result = (*service)->Wait("req");
      if (result.ok()) {
        // The job finished without meeting the fault: it must carry
        // the whole evidence, witness included.
        EXPECT_EQ(result->evidence, expected) << "point=" << point;
        continue;
      }
      ASSERT_EQ(result.status().code(), StatusCode::kFailedPrecondition)
          << result.status().ToString();
      ASSERT_TRUE((*service)->crashed());
    }
    {
      auto store = CheckpointStore::Open(dir);
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      auto persisted = (*store)->LoadLatestCheckpoint("req");
      ASSERT_TRUE(persisted.ok())
          << "point=" << point << ": " << persisted.status().ToString();
      EXPECT_EQ(persisted->checkpoint.decider, "rcqp-ind");
      if (persisted->checkpoint.disjunct == 1) ++in_witness;
    }
    auto restarted = DecisionService::Start(dir);
    ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();
    ASSERT_EQ((*restarted)->RecoveredJobs(), std::vector<std::string>{"req"})
        << "point=" << point;
    auto result = (*restarted)->Wait("req");
    ASSERT_TRUE(result.ok())
        << "point=" << point << ": " << result.status().ToString();
    EXPECT_EQ(result->evidence, expected) << "point=" << point;
    EXPECT_EQ((*restarted)->store().corrupt_files_skipped(), 0u)
        << "a corrupted store file was read at point=" << point;
  }
  EXPECT_GE(points, 32u);
  EXPECT_GE(2 * in_witness, points)
      << in_witness << " of " << points << " kills landed in the witness";
}

INSTANTIATE_TEST_SUITE_P(Threads, DecisionServiceSweepTest,
                         ::testing::Values(1, 2, 8));

TEST(DecisionServiceRecoveryTest, MultiCrashChainEventuallyCompletes) {
  const std::string expected = DirectRcdpEvidence(GridSpec(5, 6), 1);
  const size_t total =
      CountDecisionPoints(GridSpec(5, 6), JobKind::kRcdp, 1);
  const size_t slice = total / 8 + 1;
  const std::string dir = FreshDir("chain");

  // Every process generation dies right after its first durable
  // checkpoint write; each life persists only a strictly later rank
  // than it resumed from. The chain must converge because resume never
  // loses persisted work.
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
                       MakeJob(JobKind::kRcdp, GridSpec(5, 6), 1, slice))
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
      (*service)->Submit("req", MakeJob(JobKind::kRcdp, GridSpec(5, 6))).ok());
  ASSERT_FALSE((*service)->Wait("req").ok());
  EXPECT_EQ(
      (*service)->Submit("next", MakeJob(JobKind::kRcdp, GridSpec(5, 6)))
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

// A 2-thread job's search reports its rolling checkpoints on the
// thread that called the decider — the job's worker — which persists
// them while the search threads search on. The verdict record, written
// after the decide, marks that thread.
TEST(DecisionServiceConcurrencyTest,
     ParallelJobPersistsRollingGenerationsOnItsWorkerThread) {
  RecordWriterThreads recorder;
  DecisionServiceOptions options;
  options.enable_verdict_cache = true;
  options.store_options.fs_env = &recorder;
  const std::string spec = CompleteGridUcqSpec(15, 15);
  JobResult r = RunToCompletion(FreshDir("worker_persists"),
                                MakeJob(JobKind::kRcdp, spec, 2, 1), options);
  EXPECT_EQ(r.evidence, DirectRcdpEvidence(spec, 2));
  // The second disjunct's start is always reported, so at least one.
  EXPECT_GE(r.persisted, 1u);
  const std::vector<std::thread::id> ckpt = recorder.ckpt();
  const std::vector<std::thread::id> vrd = recorder.vrd();
  ASSERT_EQ(vrd.size(), 1u);
  EXPECT_NE(vrd[0], std::this_thread::get_id());
  EXPECT_EQ(ckpt.size(), r.persisted);
  for (const std::thread::id& writer : ckpt) EXPECT_EQ(writer, vrd[0]);
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
            MakeJob(JobKind::kRcdp, GridSpec(5, 6), 1, 64));
        EXPECT_TRUE(st.ok()) << st.ToString();
      }
    });
  }
  for (auto& s : submitters) s.join();

  const std::string expected = DirectRcdpEvidence(GridSpec(5, 6), 1);
  for (int t = 0; t < 2; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      auto result = (*service)->Wait(StrCat("job-", t, "-", i));
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->evidence, expected);
    }
  }
}

/// An n x n grid minus its far corner, both columns bound to the
/// master: the counterexample is the corner, and every work unit below
/// it runs to exhaustion on the way.
std::string SquareGridSpec(int n) {
  std::string s = "relation S(a, b)\nmaster relation M(m)\n";
  for (int x = 0; x < n; ++x) {
    for (int y = 0; y < n; ++y) {
      if (x == n - 1 && y == n - 1) continue;
      s += StrCat("fact S(", x, ", ", y, ")\n");
    }
  }
  for (int m = 0; m < n; ++m) s += StrCat("master fact M(", m, ")\n");
  s += "constraint c0(x) :- S(x, y) |= M[0]\n";
  s += "constraint c1(y) :- S(x, y) |= M[0]\n";
  s += "query cq Q(x, y) :- S(x, y)\n";
  return s;
}

TEST(DecisionServiceConcurrencyTest, PoolPersistsRaceCancelAndQuiesce) {
  // Eight search threads per job report rolling checkpoints that the
  // job's worker persists (interval 1: at every advance) while the
  // searches run on and one thread cancels every
  // other job and another quiesces the service. Every job must end
  // decided, cancelled, or durable — and a successor must finish each
  // durable one with the uninterrupted evidence.
  const std::string spec = SquareGridSpec(16);
  const std::string expected = DirectRcdpEvidence(spec, 8);
  const std::string dir = FreshDir("poolrace");
  constexpr int kJobs = 6;
  DecisionServiceOptions options;
  options.num_workers = 2;
  std::vector<bool> cancelled(kJobs, false);
  std::map<std::string, std::string> decided;
  {
    auto service = DecisionService::Start(dir, options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    DecisionService& svc = **service;
    for (int j = 0; j < kJobs; ++j) {
      ASSERT_TRUE(
          svc.Submit(StrCat("job-", j), MakeJob(JobKind::kRcdp, spec, 8, 1))
              .ok());
    }
    // Let the workers get into their searches before the race starts.
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (svc.checkpoints_persisted() < 2 &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::yield();
    }
    std::thread canceller([&] {
      for (int j = 0; j < kJobs; j += 2) {
        EXPECT_TRUE(svc.Cancel(StrCat("job-", j)).ok());
        cancelled[j] = true;
      }
    });
    std::thread quiescer([&] { EXPECT_TRUE(svc.Quiesce().ok()); });
    canceller.join();
    quiescer.join();
    EXPECT_FALSE(svc.crashed());
    for (int j = 0; j < kJobs; ++j) {
      const std::string id = StrCat("job-", j);
      auto poll = svc.Poll(id);
      ASSERT_TRUE(poll.ok()) << id << ": " << poll.status().ToString();
      EXPECT_FALSE(poll->running) << id;
      if (!poll->terminal) continue;  // still queued: left on disk
      if (poll->result.verdict != Verdict::kUnknown) {
        EXPECT_EQ(poll->result.evidence, expected) << id;
        decided[id] = poll->result.evidence;
      } else {
        EXPECT_EQ(poll->result.evidence, "unknown|cancel") << id;
      }
    }
  }
  auto successor = DecisionService::Start(dir);
  ASSERT_TRUE(successor.ok()) << successor.status().ToString();
  std::set<std::string> recovered;
  for (const std::string& id : (*successor)->RecoveredJobs()) {
    recovered.insert(id);
    auto result = (*successor)->Wait(id);
    ASSERT_TRUE(result.ok()) << id << ": " << result.status().ToString();
    EXPECT_EQ(result->evidence, expected) << id;
  }
  EXPECT_EQ((*successor)->store().corrupt_files_skipped(), 0u);
  for (int j = 0; j < kJobs; ++j) {
    const std::string id = StrCat("job-", j);
    // A job left the store only by being decided or explicitly
    // cancelled; a decided job's record is gone.
    if (decided.count(id) > 0) {
      EXPECT_EQ(recovered.count(id), 0u) << id;
    } else if (!cancelled[j]) {
      EXPECT_EQ(recovered.count(id), 1u) << id << " was lost";
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
/// refused exactly as a serial service would, and decide as directly,
/// and no admitted hit may write a job record.
void ExpectExactAdmissionUnderRace(bool degraded) {
  StoreOpRecorder env;
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
  (void)env.Take();

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
  // Request ids whose job record the race opened for writing.
  std::set<std::string> recorded;
  for (const std::string& op : env.Take()) {
    constexpr std::string_view kJobOpen = "open record.job ";
    if (op.rfind(kJobOpen, 0) == 0) {
      recorded.insert(op.substr(kJobOpen.size(),
                                op.find(".job.tmp") - kJobOpen.size()));
    }
  }

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
      if (o.kind == kHit || o.kind == kShared) {
        ++hits;
        EXPECT_EQ(recorded.count(o.id), 0u) << o.id << " wrote a job record";
      }
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

// ---------------------------------------------------------------------------
// The request memo: a byte-identical repeat of a record whose parse hit
// the verdict cache is served by its digest alone.

/// `spec` with its `fact` lines moved to the end in reverse order:
/// other bytes, the same content.
std::string ReverseFacts(const std::string& spec) {
  std::string out;
  std::vector<std::string> facts;
  std::istringstream in(spec);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("fact ", 0) == 0) {
      facts.push_back(line + "\n");
    } else {
      out += line + "\n";
    }
  }
  std::reverse(facts.begin(), facts.end());
  for (const std::string& fact : facts) out += fact;
  return out;
}

/// A cache-on service over a fresh store that has decided `job` once
/// (a miss) and served it once from a parse (filling the memo).
std::unique_ptr<DecisionService> StartWithMemoOf(
    const JobSpec& job, const std::string& tag,
    DecisionServiceOptions options = {}) {
  options.enable_verdict_cache = true;
  auto service = DecisionService::Start(FreshDir(tag), options);
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  if (!service.ok()) return nullptr;
  for (const char* id : {"decided", "parsed"}) {
    EXPECT_TRUE((*service)->Submit(id, job).ok()) << id;
    EXPECT_TRUE((*service)->Wait(id).ok()) << id;
  }
  const VerdictCacheStats stats = (*service)->verdict_cache()->stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.request_hits, 0u);
  EXPECT_EQ(stats.requests_remembered, 1u);
  return std::move(*service);
}

TEST(DecisionServiceTest, RequestMemoServesAByteIdenticalRepeat) {
  const JobSpec job = MakeJob(JobKind::kRcdp, GridSpec(5, 6));
  auto svc = StartWithMemoOf(job, "memo_repeat");
  ASSERT_NE(svc, nullptr);
  ASSERT_TRUE(svc->Submit("repeat", job).ok());
  auto repeat = svc->Wait("repeat");
  ASSERT_TRUE(repeat.ok()) << repeat.status().ToString();
  EXPECT_EQ(repeat->evidence, DirectRcdpEvidence(GridSpec(5, 6)));
  EXPECT_EQ(repeat->attempts, 0u);
  const VerdictCacheStats stats = svc->verdict_cache()->stats();
  EXPECT_EQ(stats.request_hits, 1u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(svc->verdicts_served_from_cache(), 2u);
}

TEST(DecisionServiceTest, ReorderedFactsAreAMemoMissThenAHit) {
  const JobSpec job = MakeJob(JobKind::kRcdp, GridSpec(5, 6));
  auto svc = StartWithMemoOf(job, "memo_reorder");
  ASSERT_NE(svc, nullptr);
  const JobSpec reordered = MakeJob(JobKind::kRcdp, ReverseFacts(GridSpec(5, 6)));
  ASSERT_NE(reordered.spec_text, job.spec_text);
  // Other bytes: the memo misses, the parse resolves to the same
  // fingerprint and hits, and the memo learns the new record.
  ASSERT_TRUE(svc->Submit("reordered", reordered).ok());
  auto first = svc->Wait("reordered");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->evidence, DirectRcdpEvidence(GridSpec(5, 6)));
  EXPECT_EQ(first->attempts, 0u);
  VerdictCacheStats stats = svc->verdict_cache()->stats();
  EXPECT_EQ(stats.request_hits, 0u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.requests_remembered, 2u);
  ASSERT_TRUE(svc->Submit("reordered-again", reordered).ok());
  auto again = svc->Wait("reordered-again");
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->evidence, first->evidence);
  stats = svc->verdict_cache()->stats();
  EXPECT_EQ(stats.request_hits, 1u);
  EXPECT_EQ(stats.hits, 3u);
}

TEST(DecisionServiceTest, SpecEditedAfterAHitIsAMemoMissAndADecide) {
  const JobSpec job = MakeJob(JobKind::kRcdp, GridSpec(5, 6));
  auto svc = StartWithMemoOf(job, "memo_edit");
  ASSERT_NE(svc, nullptr);
  // The missing corner filled in: every answer the master allows is
  // now in D.
  const std::string edited = GridSpec(5, 6) + "fact S(5, 6)\n";
  ASSERT_TRUE(svc->Submit("edited", MakeJob(JobKind::kRcdp, edited)).ok());
  auto result = svc->Wait("edited");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->attempts, 1u);
  EXPECT_EQ(result->evidence, DirectRcdpEvidence(edited));
  EXPECT_NE(result->evidence, DirectRcdpEvidence(GridSpec(5, 6)));
  const VerdictCacheStats stats = svc->verdict_cache()->stats();
  EXPECT_EQ(stats.request_hits, 0u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
}

TEST(DecisionServiceTest, AnotherThreadCountIsAMemoMissAndACacheHit) {
  const JobSpec job = MakeJob(JobKind::kRcdp, GridSpec(5, 6));
  auto svc = StartWithMemoOf(job, "memo_threads");
  ASSERT_NE(svc, nullptr);
  // The thread count is in the record, so the digest differs; it is
  // outside the fingerprint, so the parse hits.
  ASSERT_TRUE(
      svc->Submit("two", MakeJob(JobKind::kRcdp, GridSpec(5, 6), 2)).ok());
  auto result = svc->Wait("two");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->attempts, 0u);
  EXPECT_EQ(result->evidence, DirectRcdpEvidence(GridSpec(5, 6), 2));
  const VerdictCacheStats stats = svc->verdict_cache()->stats();
  EXPECT_EQ(stats.request_hits, 0u);
  EXPECT_EQ(stats.hits, 2u);
}

TEST(DecisionServiceTest, RestartEmptiesTheRequestMemo) {
  const JobSpec job = MakeJob(JobKind::kRcdp, GridSpec(5, 6));
  std::string dir;
  {
    auto svc = StartWithMemoOf(job, "memo_restart");
    ASSERT_NE(svc, nullptr);
    dir = svc->store().directory();
  }
  DecisionServiceOptions options;
  options.enable_verdict_cache = true;
  auto service = DecisionService::Start(dir, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  DecisionService& svc = **service;
  EXPECT_EQ(svc.verdict_cache()->stats().requests_remembered, 0u);
  // The durable verdict answers the parse; only then does the memo
  // know the record again.
  for (const char* id : {"after-restart", "after-restart-again"}) {
    ASSERT_TRUE(svc.Submit(id, job).ok()) << id;
    auto result = svc.Wait(id);
    ASSERT_TRUE(result.ok()) << id << ": " << result.status().ToString();
    EXPECT_EQ(result->attempts, 0u) << id;
    EXPECT_EQ(result->evidence, DirectRcdpEvidence(GridSpec(5, 6))) << id;
  }
  const VerdictCacheStats stats = svc.verdict_cache()->stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.request_hits, 1u);
  EXPECT_EQ(stats.misses, 0u);
}

TEST(DecisionServiceTest, RequestMemoNeverExceedsItsCap) {
  // Byte variants of one instance (a comment line each): one decide,
  // then every variant a parsed hit that the memo remembers. At the
  // cap the memo is cleared, so it never holds more.
  auto variant = [](size_t i) {
    return MakeJob(JobKind::kRcdp, StrCat(TinySpec(0), "% variant ", i, "\n"));
  };
  auto svc = StartWithMemoOf(variant(0), "memo_cap");
  ASSERT_NE(svc, nullptr);
  constexpr size_t kCap = VerdictCache::kRequestMemoCap;
  for (size_t i = 1; i <= kCap; ++i) {
    ASSERT_TRUE(svc->Submit(StrCat("v", i), variant(i)).ok()) << i;
    ASSERT_LE(svc->verdict_cache()->stats().requests_remembered, kCap) << i;
  }
  VerdictCacheStats stats = svc->verdict_cache()->stats();
  EXPECT_EQ(stats.requests_remembered, 1u);  // cleared at the cap
  EXPECT_EQ(stats.request_hits, 0u);
  EXPECT_EQ(stats.hits, kCap + 1);
  // The newest record is remembered; the first was cleared with the
  // rest, so it parses again.
  ASSERT_TRUE(svc->Submit("newest-again", variant(kCap)).ok());
  ASSERT_TRUE(svc->Submit("first-again", variant(0)).ok());
  stats = svc->verdict_cache()->stats();
  EXPECT_EQ(stats.request_hits, 1u);
  EXPECT_EQ(stats.hits, kCap + 3);
  EXPECT_EQ(stats.requests_remembered, 2u);
  EXPECT_EQ(svc->verdicts_served_from_cache(), kCap + 3);
}

TEST(DecisionServiceTest, RcqpJobsAndCacheOffServicesNeverConsultTheMemo) {
  DecisionServiceOptions options;
  options.enable_verdict_cache = true;
  auto cached = DecisionService::Start(FreshDir("memo_rcqp"), options);
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();
  const JobSpec rcqp = MakeJob(JobKind::kRcqp, GridSpec(5, 6));
  for (const char* id : {"rcqp-1", "rcqp-2"}) {
    ASSERT_TRUE((*cached)->Submit(id, rcqp).ok()) << id;
    auto result = (*cached)->Wait(id);
    ASSERT_TRUE(result.ok()) << id << ": " << result.status().ToString();
    EXPECT_EQ(result->attempts, 1u) << id;
  }
  const VerdictCacheStats stats = (*cached)->verdict_cache()->stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.insertions, 0u);
  EXPECT_EQ(stats.requests_remembered, 0u);

  auto uncached = DecisionService::Start(FreshDir("memo_off"));
  ASSERT_TRUE(uncached.ok()) << uncached.status().ToString();
  ASSERT_EQ((*uncached)->verdict_cache(), nullptr);
  const JobSpec rcdp = MakeJob(JobKind::kRcdp, GridSpec(5, 6));
  for (const char* id : {"rcdp-1", "rcdp-2", "rcdp-3"}) {
    ASSERT_TRUE((*uncached)->Submit(id, rcdp).ok()) << id;
    auto result = (*uncached)->Wait(id);
    ASSERT_TRUE(result.ok()) << id << ": " << result.status().ToString();
    EXPECT_EQ(result->attempts, 1u) << id;
  }
  EXPECT_EQ((*uncached)->verdicts_served_from_cache(), 0u);
}

TEST(DecisionServiceTest, DegradedServiceAnswersARequestMemoHit) {
  StoreOpRecorder env;
  DecisionServiceOptions options;
  options.store_options.fs_env = &env;
  const JobSpec job = MakeJob(JobKind::kRcdp, TinySpec(0));
  auto svc = StartWithMemoOf(job, "memo_degraded", options);
  ASSERT_NE(svc, nullptr);
  env.set_fault_plan([] {
    StorageFaultPlan plan;
    plan.kind = StorageFaultKind::kEio;
    plan.every = 1;
    plan.site = "record";
    return plan;
  }());
  EXPECT_EQ(svc->Submit("trip", MakeJob(JobKind::kRcdp, TinySpec(1))).code(),
            StatusCode::kResourceExhausted);
  ASSERT_TRUE(svc->degraded());
  ASSERT_TRUE(svc->Submit("memo", job).ok());
  auto result = svc->Wait("memo");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->evidence, DirectRcdpEvidence(TinySpec(0)));
  EXPECT_EQ(svc->verdict_cache()->stats().request_hits, 1u);
  EXPECT_EQ(svc->ephemeral_admissions(), 1u);
  EXPECT_EQ(svc->verdicts_served_from_cache(), 2u);
  EXPECT_TRUE(svc->degraded());
}

}  // namespace
}  // namespace relcomp
