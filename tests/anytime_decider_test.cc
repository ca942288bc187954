#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "completeness/rcdp.h"
#include "completeness/rcqp.h"
#include "constraints/constraint_check.h"
#include "constraints/integrity_constraints.h"
#include "query/parser.h"
#include "spec/spec_parser.h"
#include "util/execution_control.h"
#include "util/str.h"
#include "test_support.h"

namespace relcomp {
namespace {

// ---------------------------------------------------------------------------
// ExecutionBudget unit behavior.

TEST(ExecutionBudgetTest, DefaultBudgetIsInactiveAndNeverTrips) {
  ExecutionBudget budget;
  EXPECT_FALSE(budget.active());
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(budget.OnDecisionPoint().ok());
  }
  EXPECT_FALSE(budget.exhausted());
  EXPECT_EQ(budget.steps(), 1000u);
}

TEST(ExecutionBudgetTest, StepLimitTripsAtTheExactPointAndSticks) {
  ExecutionBudget budget;
  budget.set_max_steps(5);
  EXPECT_TRUE(budget.active());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(budget.OnDecisionPoint().ok()) << i;
  }
  Status st = budget.OnDecisionPoint();
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
  EXPECT_TRUE(budget.exhausted());
  EXPECT_EQ(budget.exhausted_kind(), BudgetKind::kSteps);
  EXPECT_EQ(budget.exhausted_at(), 5u);
  // Sticky: every later call returns the same failure.
  EXPECT_EQ(budget.OnDecisionPoint().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(budget.exhaustion_status().code(),
            StatusCode::kResourceExhausted);
  // Rearm clears the record and the step counter.
  budget.Rearm();
  EXPECT_FALSE(budget.exhausted());
  EXPECT_TRUE(budget.OnDecisionPoint().ok());
}

TEST(ExecutionBudgetTest, PastDeadlineTripsAtTheFirstStridePoint) {
  ExecutionBudget budget;
  budget.set_deadline(std::chrono::steady_clock::now() -
                      std::chrono::seconds(1));
  // Point 0 is always a deadline-check point (0 % kDeadlineStride == 0).
  Status st = budget.OnDecisionPoint();
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
  EXPECT_EQ(budget.exhausted_kind(), BudgetKind::kDeadline);
}

TEST(ExecutionBudgetTest, CancelTokenSurfacesAsCancelled) {
  CancelSource source;
  ExecutionBudget budget;
  budget.set_cancel_token(source.token());
  ASSERT_TRUE(budget.OnDecisionPoint().ok());
  source.RequestCancel();
  Status st = budget.OnDecisionPoint();
  EXPECT_EQ(st.code(), StatusCode::kCancelled) << st.ToString();
  EXPECT_EQ(budget.exhausted_kind(), BudgetKind::kCancel);
  EXPECT_EQ(budget.exhaustion_status().code(), StatusCode::kCancelled);
}

TEST(ExecutionBudgetTest, TrackedBytesTripAtTheNextPointOnly) {
  ExecutionBudget budget;
  budget.set_max_tracked_bytes(100);
  ASSERT_TRUE(budget.OnDecisionPoint().ok());
  budget.TrackBytes(150);  // staging itself never fails in place
  EXPECT_EQ(budget.tracked_bytes(), 150u);
  Status st = budget.OnDecisionPoint();
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
  EXPECT_EQ(budget.exhausted_kind(), BudgetKind::kMemory);
  budget.ReleaseBytes(150);
  budget.Rearm();
  EXPECT_TRUE(budget.OnDecisionPoint().ok());
}

TEST(ExecutionBudgetTest, FaultInjectorFiresAtTheChosenPoint) {
  FaultInjector inject(FaultInjector::Fault::kCancel, /*at=*/3);
  ExecutionBudget budget;
  budget.set_fault_injector(&inject);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(budget.OnDecisionPoint().ok()) << i;
  }
  Status st = budget.OnDecisionPoint();
  EXPECT_EQ(st.code(), StatusCode::kCancelled) << st.ToString();
  EXPECT_EQ(budget.exhausted_kind(), BudgetKind::kCancel);
  EXPECT_EQ(budget.exhausted_at(), 3u);
}

// ---------------------------------------------------------------------------
// Checkpoint serialization.

TEST(SearchCheckpointTest, RoundTripsThroughText) {
  SearchCheckpoint ckpt;
  ckpt.decider = "rcdp";
  ckpt.disjunct = 3;
  ckpt.rank = 12345;
  ckpt.fingerprint = 0xdeadbeefcafef00dull;
  ckpt.payload = "nested payload with spaces\nand a newline";
  std::string text = ckpt.Serialize();
  auto back = SearchCheckpoint::Deserialize(text);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(*back == ckpt) << text;
}

TEST(SearchCheckpointTest, EmbeddedCheckpointRoundTrips) {
  SearchCheckpoint inner;
  inner.decider = "rcdp";
  inner.disjunct = 1;
  inner.rank = 7;
  inner.fingerprint = 42;
  SearchCheckpoint outer;
  outer.decider = "chase";
  outer.disjunct = 2;
  outer.fingerprint = 43;
  outer.payload = inner.Serialize();
  auto back = SearchCheckpoint::Deserialize(outer.Serialize());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  auto inner_back = SearchCheckpoint::Deserialize(back->payload);
  ASSERT_TRUE(inner_back.ok()) << inner_back.status().ToString();
  EXPECT_TRUE(*inner_back == inner);
}

TEST(SearchCheckpointTest, MalformedInputsAreInvalidArgumentNeverCrash) {
  const char* corpus[] = {
      "",
      "relcomp-ckpt/2 rcdp 0 0 0000000000000000 0:",
      "not-a-checkpoint",
      "relcomp-ckpt/1",
      "relcomp-ckpt/1 rcdp",
      "relcomp-ckpt/1 rcdp 0",
      "relcomp-ckpt/1 rcdp 0 0",
      "relcomp-ckpt/1 rcdp 0 0 zzzz",
      "relcomp-ckpt/1 rcdp 0 0 0000000000000000",
      "relcomp-ckpt/1 rcdp 0 0 0000000000000000 5:ab",   // short payload
      "relcomp-ckpt/1 rcdp 0 0 0000000000000000 x:ab",   // bad length
      "relcomp-ckpt/1 rcdp -1 0 0000000000000000 0:",
      "relcomp-ckpt/1 rcdp 99999999999999999999999999 0 0000000000000000 0:",
  };
  for (const char* text : corpus) {
    auto parsed = SearchCheckpoint::Deserialize(text);
    ASSERT_FALSE(parsed.ok()) << "accepted: " << text;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
        << text << " -> " << parsed.status().ToString();
  }
}

// ---------------------------------------------------------------------------
// Fixtures.

/// An incomplete RCDP instance: S ⊆ M on the first column, master
/// offers more values than D uses, second column is open. The
/// counterexample search has real work to do in every disjunct.
struct IncompleteInstance {
  std::shared_ptr<Schema> db_schema;
  std::shared_ptr<Schema> master_schema;
  std::optional<Database> db;
  std::optional<Database> master;
  ConstraintSet v;
  std::optional<AnyQuery> q;

  static IncompleteInstance Make() {
    IncompleteInstance in;
    in.db_schema = std::make_shared<Schema>();
    EXPECT_TRUE(in.db_schema->AddRelation("S", 2).ok());
    in.master_schema = std::make_shared<Schema>();
    EXPECT_TRUE(in.master_schema->AddRelation("M", 1).ok());
    in.db.emplace(in.db_schema);
    for (int64_t i = 0; i < 4; ++i) {
      in.db->InsertUnchecked("S", Tuple({Value::Int(i), Value::Int(i + 1)}));
    }
    in.master.emplace(in.master_schema);
    for (int64_t i = 0; i < 8; ++i) {
      in.master->InsertUnchecked("M", Tuple({Value::Int(i)}));
    }
    auto ind = MakeIndToMaster(*in.db_schema, "S", {0}, "M", {0});
    EXPECT_TRUE(ind.ok());
    in.v.Add(*ind);
    auto q = ParseQuery("Q(x, y) :- S(x, y).", QueryLanguage::kCq);
    EXPECT_TRUE(q.ok());
    in.q.emplace(std::move(*q));
    return in;
  }
};

/// An instance whose chase converges: both S columns are IND-bounded
/// by a small master relation, so the set of valid extensions is the
/// finite M × M and the chase closes it within a few rounds.
struct ChaseableInstance {
  std::shared_ptr<Schema> db_schema;
  std::shared_ptr<Schema> master_schema;
  std::optional<Database> db;
  std::optional<Database> master;
  ConstraintSet v;
  std::optional<AnyQuery> q;

  static ChaseableInstance Make() {
    ChaseableInstance in;
    in.db_schema = std::make_shared<Schema>();
    EXPECT_TRUE(in.db_schema->AddRelation("S", 2).ok());
    in.master_schema = std::make_shared<Schema>();
    EXPECT_TRUE(in.master_schema->AddRelation("M", 1).ok());
    in.db.emplace(in.db_schema);
    in.db->InsertUnchecked("S", Tuple({Value::Int(0), Value::Int(1)}));
    in.master.emplace(in.master_schema);
    in.master->InsertUnchecked("M", Tuple({Value::Int(0)}));
    in.master->InsertUnchecked("M", Tuple({Value::Int(1)}));
    for (auto col : {0, 1}) {
      auto ind = MakeIndToMaster(*in.db_schema, "S",
                                 {static_cast<size_t>(col)}, "M", {0});
      EXPECT_TRUE(ind.ok());
      in.v.Add(*ind);
    }
    auto q = ParseQuery("Q(x, y) :- S(x, y).", QueryLanguage::kCq);
    EXPECT_TRUE(q.ok());
    in.q.emplace(std::move(*q));
    return in;
  }
};

/// A complete RCDP instance over finite domains: every candidate
/// valuation is enumerated and rejected, so an uninterrupted run claims
/// a fixed, known number of decision points — the substrate for the
/// exhaustive fault-injection sweep.
struct CompleteInstance {
  std::shared_ptr<Schema> db_schema;
  std::shared_ptr<Schema> master_schema;
  std::optional<Database> db;
  std::optional<Database> master;
  ConstraintSet v;  // empty: (D, Dm) |= ∅ trivially
  std::optional<AnyQuery> q;

  static CompleteInstance Make() {
    CompleteInstance in;
    in.db_schema = std::make_shared<Schema>();
    auto dom = Domain::FiniteInts("int3", 3);
    EXPECT_TRUE(in.db_schema
                    ->AddRelation(RelationSchema(
                        "S", {AttributeDef::Over("a", dom),
                              AttributeDef::Over("b", dom)}))
                    .ok());
    in.master_schema = std::make_shared<Schema>();
    EXPECT_TRUE(in.master_schema->AddRelation("M", 1).ok());
    in.db.emplace(in.db_schema);
    for (int64_t a = 0; a < 3; ++a) {
      for (int64_t b = 0; b < 3; ++b) {
        in.db->InsertUnchecked("S", Tuple({Value::Int(a), Value::Int(b)}));
      }
    }
    in.master.emplace(in.master_schema);
    auto q = ParseQuery("Q(x, y) :- S(x, y).", QueryLanguage::kCq);
    EXPECT_TRUE(q.ok());
    in.q.emplace(std::move(*q));
    return in;
  }
};

std::string RcdpKey(const RcdpResult& r) {
  std::string out = VerdictToString(r.verdict);
  out += '|';
  out += r.counterexample_delta.has_value()
             ? r.counterexample_delta->ToString()
             : std::string("<none>");
  out += '|';
  out += r.new_answer.has_value() ? r.new_answer->ToString()
                                  : std::string("<none>");
  return out;
}

// ---------------------------------------------------------------------------
// Exhaustion matrix: each budget kind × {1, 2, 8} threads × each
// decider. Every cell must degrade to a clean kUnknown with a valid
// checkpoint, and resuming from that checkpoint with a fresh budget
// must reproduce the uninterrupted decision bit-for-bit.

class ExhaustionMatrixTest : public ::testing::TestWithParam<int> {
 protected:
  size_t threads() const { return static_cast<size_t>(GetParam()); }
};

/// Configures `budget` for the given kind; returns the expected
/// BudgetKind recorded on exhaustion.
BudgetKind ArmBudget(int kind, ExecutionBudget* budget, CancelSource* cancel,
                     size_t steps = 3) {
  switch (kind) {
    case 0:
      budget->set_max_steps(steps);
      return BudgetKind::kSteps;
    case 1:
      budget->set_deadline(std::chrono::steady_clock::now() -
                           std::chrono::seconds(1));
      return BudgetKind::kDeadline;
    case 2:
      budget->set_max_tracked_bytes(1);
      return BudgetKind::kMemory;
    default:
      budget->set_cancel_token(cancel->token());
      cancel->RequestCancel();
      return BudgetKind::kCancel;
  }
}

TEST_P(ExhaustionMatrixTest, RcdpDegradesAndResumesForEveryBudgetKind) {
  IncompleteInstance in = IncompleteInstance::Make();

  RcdpOptions plain;
  plain.num_threads = threads();
  auto uninterrupted = DecideRcdp(*in.q, *in.db, *in.master, in.v, plain);
  ASSERT_TRUE(uninterrupted.ok()) << uninterrupted.status().ToString();
  ASSERT_EQ(uninterrupted->verdict, Verdict::kIncomplete);

  for (int kind = 0; kind < 4; ++kind) {
    SCOPED_TRACE(testing::Message() << "budget kind " << kind);
    ExecutionBudget budget;
    CancelSource cancel;
    BudgetKind expected = ArmBudget(kind, &budget, &cancel);

    RcdpOptions bounded = plain;
    bounded.budget = &budget;
    auto exhausted = DecideRcdp(*in.q, *in.db, *in.master, in.v, bounded);
    ASSERT_TRUE(exhausted.ok()) << exhausted.status().ToString();
    ASSERT_EQ(exhausted->verdict, Verdict::kUnknown)
        << exhausted->ToString();
    EXPECT_FALSE(exhausted->complete);
    EXPECT_EQ(exhausted->exhaustion.kind, expected)
        << exhausted->exhaustion.ToString();
    ASSERT_TRUE(exhausted->checkpoint.has_value());
    EXPECT_EQ(exhausted->checkpoint->decider, "rcdp");
    // The checkpoint survives a serialize/deserialize cycle.
    auto wire =
        SearchCheckpoint::Deserialize(exhausted->checkpoint->Serialize());
    ASSERT_TRUE(wire.ok()) << wire.status().ToString();
    ASSERT_TRUE(*wire == *exhausted->checkpoint);

    // Resume with no budget: the combined search must equal the
    // uninterrupted one bit-for-bit.
    RcdpOptions resume = plain;
    resume.resume = &*wire;
    auto resumed = DecideRcdp(*in.q, *in.db, *in.master, in.v, resume);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_EQ(RcdpKey(*uninterrupted), RcdpKey(*resumed));
  }
}

TEST_P(ExhaustionMatrixTest, RcqpDegradesAndResumesForEveryBudgetKind) {
  IncompleteInstance in = IncompleteInstance::Make();

  RcqpOptions plain;
  plain.rcdp.num_threads = threads();
  auto uninterrupted =
      DecideRcqp(*in.q, in.db_schema, *in.master, in.v, plain);
  ASSERT_TRUE(uninterrupted.ok()) << uninterrupted.status().ToString();
  ASSERT_NE(uninterrupted->verdict, Verdict::kUnknown)
      << uninterrupted->ToString();

  for (int kind = 0; kind < 4; ++kind) {
    SCOPED_TRACE(testing::Message() << "budget kind " << kind);
    ExecutionBudget budget;
    CancelSource cancel;
    // The realizability probe on this small instance decides within a
    // couple of binding steps, so the step budget must be the tightest
    // possible one to actually interrupt it.
    BudgetKind expected = ArmBudget(kind, &budget, &cancel, /*steps=*/1);

    RcqpOptions bounded = plain;
    bounded.rcdp.budget = &budget;
    auto exhausted =
        DecideRcqp(*in.q, in.db_schema, *in.master, in.v, bounded);
    ASSERT_TRUE(exhausted.ok()) << exhausted.status().ToString();
    ASSERT_EQ(exhausted->verdict, Verdict::kUnknown)
        << exhausted->ToString();
    EXPECT_EQ(exhausted->exhaustion.kind, expected)
        << exhausted->exhaustion.ToString();
    ASSERT_TRUE(exhausted->checkpoint.has_value());

    RcqpOptions resume = plain;
    resume.resume = &*exhausted->checkpoint;
    auto resumed = DecideRcqp(*in.q, in.db_schema, *in.master, in.v, resume);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_EQ(uninterrupted->verdict, resumed->verdict)
        << resumed->ToString();
    EXPECT_EQ(uninterrupted->exists, resumed->exists);
    EXPECT_EQ(uninterrupted->method, resumed->method);
    EXPECT_EQ(uninterrupted->unbounded_variables.size(),
              resumed->unbounded_variables.size());
  }
}

TEST_P(ExhaustionMatrixTest, ChaseDegradesKeepsProgressAndResumes) {
  ChaseableInstance in = ChaseableInstance::Make();

  RcdpOptions plain;
  plain.num_threads = threads();
  auto uninterrupted =
      ChaseToCompleteness(*in.q, *in.db, *in.master, in.v, 32, plain);
  ASSERT_TRUE(uninterrupted.ok()) << uninterrupted.status().ToString();
  ASSERT_EQ(uninterrupted->verdict, Verdict::kComplete)
      << uninterrupted->ToString();

  for (int kind = 0; kind < 4; ++kind) {
    SCOPED_TRACE(testing::Message() << "budget kind " << kind);
    ExecutionBudget budget;
    CancelSource cancel;
    BudgetKind expected = ArmBudget(kind, &budget, &cancel);

    RcdpOptions bounded = plain;
    bounded.budget = &budget;
    auto exhausted =
        ChaseToCompleteness(*in.q, *in.db, *in.master, in.v, 32, bounded);
    ASSERT_TRUE(exhausted.ok()) << exhausted.status().ToString();
    ASSERT_EQ(exhausted->verdict, Verdict::kUnknown)
        << exhausted->ToString();
    EXPECT_EQ(exhausted->exhaustion.kind, expected)
        << exhausted->exhaustion.ToString();
    ASSERT_TRUE(exhausted->checkpoint.has_value());
    EXPECT_EQ(exhausted->checkpoint->decider, "chase");
    // Progress is never discarded: the partially chased database holds
    // at least the input.
    EXPECT_GE(exhausted->db.TotalTuples(), in.db->TotalTuples());

    // Resume from the partially chased database; the final database
    // must be bit-for-bit the uninterrupted chase's.
    RcdpOptions resume = plain;
    resume.resume = &*exhausted->checkpoint;
    auto resumed = ChaseToCompleteness(*in.q, exhausted->db, *in.master,
                                       in.v, 32, resume);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    ASSERT_EQ(resumed->verdict, Verdict::kComplete) << resumed->ToString();
    EXPECT_EQ(uninterrupted->db.ToString(), resumed->db.ToString());
  }
}

/// The step budget counts the same decision points at any thread
/// count, so the minted checkpoint must be identical across
/// num_threads — this is what makes a checkpoint from a parallel run
/// resumable by a serial run and vice versa.
TEST(ExhaustionDeterminismTest, StepCheckpointIsThreadCountInvariant) {
  IncompleteInstance in = IncompleteInstance::Make();
  std::optional<SearchCheckpoint> reference;
  for (size_t threads : {1u, 2u, 8u}) {
    ExecutionBudget budget;
    budget.set_max_steps(3);
    RcdpOptions options;
    options.num_threads = threads;
    options.budget = &budget;
    auto r = DecideRcdp(*in.q, *in.db, *in.master, in.v, options);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->verdict, Verdict::kUnknown) << "threads=" << threads;
    ASSERT_TRUE(r->checkpoint.has_value());
    if (!reference.has_value()) {
      reference = r->checkpoint;
    } else {
      EXPECT_TRUE(*reference == *r->checkpoint)
          << "threads=" << threads << ": " << r->checkpoint->Serialize()
          << " vs " << reference->Serialize();
    }
  }
}

TEST(ExhaustionDeterminismTest, CrossThreadCountResumeAgrees) {
  // Checkpoint minted at 8 threads, resumed at 1 and 2 threads (and
  // vice versa): all runs must land on the uninterrupted decision.
  IncompleteInstance in = IncompleteInstance::Make();
  auto uninterrupted = DecideRcdp(*in.q, *in.db, *in.master, in.v, {});
  ASSERT_TRUE(uninterrupted.ok());

  ExecutionBudget budget;
  budget.set_max_steps(3);
  RcdpOptions bounded;
  bounded.num_threads = 8;
  bounded.budget = &budget;
  auto exhausted = DecideRcdp(*in.q, *in.db, *in.master, in.v, bounded);
  ASSERT_TRUE(exhausted.ok());
  ASSERT_EQ(exhausted->verdict, Verdict::kUnknown);
  ASSERT_TRUE(exhausted->checkpoint.has_value());

  for (size_t threads : {1u, 2u, 8u}) {
    RcdpOptions resume;
    resume.num_threads = threads;
    resume.resume = &*exhausted->checkpoint;
    auto resumed = DecideRcdp(*in.q, *in.db, *in.master, in.v, resume);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_EQ(RcdpKey(*uninterrupted), RcdpKey(*resumed))
        << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ExhaustionMatrixTest,
                         ::testing::Values(1, 2, 8));

// ---------------------------------------------------------------------------
// Rolling checkpoints (RcdpOptions::progress): every checkpoint a
// decider reports must be one it could have returned on a tripped
// budget — increasing, and resumable to the uninterrupted decision —
// and must arrive on the thread that called the decider. Named
// Parallel* so the tsan preset runs it: at more than one thread search
// workers record the advances that the calling thread reports.

class ParallelProgressTest : public ::testing::TestWithParam<int> {
 protected:
  size_t threads() const { return static_cast<size_t>(GetParam()); }
};

/// A sink appending to `out`. The decider serializes its calls and
/// makes each on the thread that created the sink (the test's).
ProgressSink Collect(std::vector<SearchCheckpoint>* out) {
  return [out, caller = std::this_thread::get_id()](const SearchCheckpoint& c) {
    EXPECT_EQ(std::this_thread::get_id(), caller) << c.Serialize();
    out->push_back(c);
  };
}

CompletenessSpec ParseOrDie(const std::string& text) {
  auto spec = ParseCompletenessSpec(text);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return std::move(*spec);
}

/// The far-corner grid (both columns bound to the master, only (5, 6)
/// missing) audited by a two-disjunct UCQ: the first disjunct, pinned
/// to x = 0, has no counterexample, so the search finishes it and
/// moves on to the second.
std::string GridUcqSpec() {
  std::string s =
      "relation S(a, b)\nmaster relation M(m)\nmaster relation N(n)\n";
  for (int x = 0; x <= 5; ++x) {
    for (int y = 0; y <= 6; ++y) {
      if (x == 5 && y == 6) continue;
      s += StrCat("fact S(", x, ", ", y, ")\n");
    }
  }
  for (int m = 0; m <= 5; ++m) s += StrCat("master fact M(", m, ")\n");
  for (int n = 0; n <= 6; ++n) s += StrCat("master fact N(", n, ")\n");
  s += "constraint c0(x) :- S(x, y) |= M[0]\n";
  s += "constraint c1(y) :- S(x, y) |= N[0]\n";
  s += "query ucq Q(x, y) :- S(x, y), x = 0. Q(x, y) :- S(x, y)\n";
  return s;
}

TEST_P(ParallelProgressTest, RcdpCheckpointsIncreaseAndResumeBitForBit) {
  const CompletenessSpec spec = ParseOrDie(GridUcqSpec());
  const AnyQuery& q = spec.queries[0];
  RcdpOptions plain;
  plain.num_threads = threads();
  auto uninterrupted =
      DecideRcdp(q, spec.db, spec.master, spec.constraints, plain);
  ASSERT_TRUE(uninterrupted.ok()) << uninterrupted.status().ToString();
  ASSERT_EQ(uninterrupted->verdict, Verdict::kIncomplete);

  std::vector<SearchCheckpoint> seen;
  RcdpOptions rolling = plain;
  rolling.progress = Collect(&seen);
  auto reported =
      DecideRcdp(q, spec.db, spec.master, spec.constraints, rolling);
  ASSERT_TRUE(reported.ok()) << reported.status().ToString();
  EXPECT_EQ(RcdpKey(*uninterrupted), RcdpKey(*reported));
  // Disjunct 0 has no counterexample, so disjunct 1 always starts, and
  // its start is always reported. How many unit advances are reported
  // depends on the schedule above one thread: advances that land
  // together are reported once, and one landing at the end of the rank
  // space is not reported at all.
  EXPECT_EQ(std::count_if(seen.begin(), seen.end(),
                          [](const SearchCheckpoint& c) {
                            return c.disjunct == 1 && c.rank == 0;
                          }),
            1);
  if (threads() == 1) {
    EXPECT_GE(seen.size(), 3u);
  }
  for (size_t i = 0; i < seen.size(); ++i) {
    SCOPED_TRACE(seen[i].Serialize());
    EXPECT_EQ(seen[i].decider, "rcdp");
    if (i > 0) {
      EXPECT_LT(std::make_pair(seen[i - 1].disjunct, seen[i - 1].rank),
                std::make_pair(seen[i].disjunct, seen[i].rank));
    }
    RcdpOptions resume = plain;
    resume.resume = &seen[i];
    auto resumed =
        DecideRcdp(q, spec.db, spec.master, spec.constraints, resume);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_EQ(RcdpKey(*uninterrupted), RcdpKey(*resumed));
  }
  if (threads() == 1) {
    // Serial units finish in rank order: the sequence is deterministic.
    std::vector<SearchCheckpoint> again;
    rolling.progress = Collect(&again);
    ASSERT_TRUE(
        DecideRcdp(q, spec.db, spec.master, spec.constraints, rolling).ok());
    EXPECT_EQ(again, seen);
  }
}

std::string RcqpKey(const RcqpResult& r) {
  return StrCat(VerdictToString(r.verdict), "|", r.exists, "|", r.method,
                "|", r.unbounded_variables.size(), "|",
                r.witness.has_value() ? r.witness->ToString()
                                      : std::string("<none>"));
}

/// Runs DecideRcqp on `text` with a sink, checks that every report is
/// a `phase` checkpoint and that `order` (a per-phase position) strictly
/// increases, then resumes from each report and expects the
/// uninterrupted decision. Returns the number of reports, which above
/// one thread depends on the schedule.
size_t CheckRcqpReports(
    const std::string& text, RcqpOptions options, const std::string& phase,
    const std::function<std::pair<size_t, size_t>(const SearchCheckpoint&)>&
        order) {
  const CompletenessSpec spec = ParseOrDie(text);
  const AnyQuery& q = spec.queries[0];
  auto uninterrupted =
      DecideRcqp(q, spec.db_schema, spec.master, spec.constraints, options);
  EXPECT_TRUE(uninterrupted.ok()) << uninterrupted.status().ToString();
  if (!uninterrupted.ok()) return 0;

  std::vector<SearchCheckpoint> seen;
  RcqpOptions rolling = options;
  rolling.rcdp.progress = Collect(&seen);
  auto reported =
      DecideRcqp(q, spec.db_schema, spec.master, spec.constraints, rolling);
  EXPECT_TRUE(reported.ok()) << reported.status().ToString();
  if (!reported.ok()) return 0;
  EXPECT_EQ(RcqpKey(*uninterrupted), RcqpKey(*reported));
  for (size_t i = 0; i < seen.size(); ++i) {
    SCOPED_TRACE(seen[i].Serialize());
    EXPECT_EQ(seen[i].decider, phase);
    if (i > 0) {
      EXPECT_LT(order(seen[i - 1]), order(seen[i]));
    }
    RcqpOptions resume = options;
    resume.resume = &seen[i];
    auto resumed =
        DecideRcqp(q, spec.db_schema, spec.master, spec.constraints, resume);
    EXPECT_TRUE(resumed.ok()) << resumed.status().ToString();
    if (resumed.ok()) {
      EXPECT_EQ(RcqpKey(*uninterrupted), RcqpKey(*resumed));
    }
  }
  return seen.size();
}

TEST_P(ParallelProgressTest, RcqpPhaseCheckpointsResumeToTheSameDecision) {
  RcqpOptions options;
  options.rcdp.num_threads = threads();
  auto by_rank = [](const SearchCheckpoint& c) {
    return std::make_pair(c.disjunct, c.rank);
  };
  const size_t at_least = threads() == 1 ? 2 : 0;

  // rcqp-ind: S's first column must lie in M and in N, which share no
  // value, so the realizability probe walks its whole space.
  std::string ind =
      "relation S(a, b)\nmaster relation M(m)\nmaster relation N(n)\n";
  for (int m = 0; m <= 9; ++m) ind += StrCat("master fact M(", m, ")\n");
  for (int n = 10; n <= 19; ++n) ind += StrCat("master fact N(", n, ")\n");
  ind += "constraint c0(x) :- S(x, w) |= M[0]\n";
  ind += "constraint c1(x) :- S(x, w) |= N[0]\n";
  ind += "query cq Q(x, w) :- S(x, w)\n";
  EXPECT_GE(CheckRcqpReports(ind, options, "rcqp-ind", by_rank), at_least);

  // rcqp-empty: a non-IND constraint no S tuple can satisfy (E is
  // empty), so the empty database is complete and its RCDP search
  // walks every unit; the inner checkpoint rides in the payload.
  std::string empty =
      "relation S(a, b)\nmaster relation E(e)\nmaster relation P(p)\n";
  for (int p = 0; p < 20; ++p) empty += StrCat("master fact P(", p, ")\n");
  empty += "constraint c0(x) :- S(x, y), S(x, z) |= E[0]\n";
  empty += "query cq Q(x, y) :- S(x, y)\n";
  EXPECT_GE(CheckRcqpReports(empty, options, "rcqp-empty",
                             [](const SearchCheckpoint& c) {
                               auto inner =
                                   SearchCheckpoint::Deserialize(c.payload);
                               EXPECT_TRUE(inner.ok());
                               return inner.ok()
                                          ? std::make_pair(inner->disjunct,
                                                           inner->rank)
                                          : std::make_pair(size_t{0},
                                                           size_t{0});
                             }),
            at_least);

  // rcqp-pool: no single tuple is a complete witness, the first pair
  // covering both master values is; the chase is off so the pool
  // search runs, and every judged non-witness leaf is reported.
  const std::string pool =
      "relation S(a, b)\nmaster relation M(m)\n"
      "master fact M(0)\nmaster fact M(1)\n"
      "constraint c0(x) :- S(x, y), S(x, z) |= M[0]\n"
      "query cq Q(x) :- S(x, y)\n";
  RcqpOptions pool_options = options;
  pool_options.max_chase_rounds = 0;
  pool_options.max_witness_tuples = 2;
  // The pool search is serial: its reports do not depend on threads.
  EXPECT_GE(CheckRcqpReports(pool, pool_options, "rcqp-pool", by_rank), 2u);
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelProgressTest,
                         ::testing::Values(1, 2, 8));

// ---------------------------------------------------------------------------
// Decision-point leases: each pool worker claims its point numbers in
// runs (ExecutionBudget::Lease), checks every limit at every point, and
// hands back the numbers it did not use. Named Parallel* so the tsan
// preset runs them.

TEST(ParallelLeaseTest, CancelOnlyBudgetCountsTheSameStepsAtEveryThreadCount) {
  // Every work unit of the complete grid runs to exhaustion, so the
  // search uses the same decision points at every thread count.
  const CompletenessSpec spec = ParseOrDie(CompleteGridUcqSpec(31, 31));
  const AnyQuery& q = spec.queries[0];
  auto steps_at = [&](size_t threads) -> size_t {
    CancelSource cancel;
    ExecutionBudget budget;
    budget.set_cancel_token(cancel.token());
    RcdpOptions options;
    options.num_threads = threads;
    options.budget = &budget;
    auto r = DecideRcdp(q, spec.db, spec.master, spec.constraints, options);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (r.ok()) EXPECT_EQ(r->verdict, Verdict::kComplete) << threads;
    return budget.steps();
  };
  const size_t serial = steps_at(1);
  // Enough points that every one of 8 workers claims more than one run.
  ASSERT_GT(serial, 2 * 8 * ExecutionBudget::kLeaseLength);
  EXPECT_EQ(steps_at(2), serial);
  EXPECT_EQ(steps_at(8), serial);
}

class ParallelLeaseTest : public ::testing::TestWithParam<int> {
 protected:
  size_t threads() const { return static_cast<size_t>(GetParam()); }
};

TEST_P(ParallelLeaseTest, CancelAndPastDeadlineStopLeasingWorkersResumably) {
  const CompletenessSpec spec = ParseOrDie(CompleteGridUcqSpec(31, 31));
  const AnyQuery& q = spec.queries[0];
  RcdpOptions plain;
  plain.num_threads = threads();
  auto uninterrupted =
      DecideRcdp(q, spec.db, spec.master, spec.constraints, plain);
  ASSERT_TRUE(uninterrupted.ok()) << uninterrupted.status().ToString();
  ASSERT_EQ(uninterrupted->verdict, Verdict::kComplete);

  for (const BudgetKind kind : {BudgetKind::kCancel, BudgetKind::kDeadline}) {
    SCOPED_TRACE(BudgetKindToString(kind));
    CancelSource cancel;
    ExecutionBudget budget;
    RcdpOptions options = plain;
    options.budget = &budget;
    if (kind == BudgetKind::kCancel) {
      // The first report fires the token mid-search: at the latest the
      // second disjunct's start, so its workers always see it.
      budget.set_cancel_token(cancel.token());
      options.progress = [&cancel](const SearchCheckpoint&) {
        cancel.RequestCancel();
      };
    } else {
      // Each leasing worker reads the clock at its first point.
      budget.set_deadline(std::chrono::steady_clock::now() -
                          std::chrono::seconds(1));
    }
    auto stopped =
        DecideRcdp(q, spec.db, spec.master, spec.constraints, options);
    ASSERT_TRUE(stopped.ok()) << stopped.status().ToString();
    ASSERT_EQ(stopped->verdict, Verdict::kUnknown);
    EXPECT_EQ(stopped->exhaustion.kind, kind);
    ASSERT_TRUE(stopped->checkpoint.has_value());

    RcdpOptions resume = plain;
    resume.resume = &*stopped->checkpoint;
    auto resumed =
        DecideRcdp(q, spec.db, spec.master, spec.constraints, resume);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_EQ(RcdpKey(*uninterrupted), RcdpKey(*resumed));
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelLeaseTest, ::testing::Values(2, 8));

// ---------------------------------------------------------------------------
// Checkpoint misuse.

TEST(CheckpointValidationTest, FingerprintMismatchIsRejected) {
  IncompleteInstance in = IncompleteInstance::Make();
  ExecutionBudget budget;
  budget.set_max_steps(3);
  RcdpOptions bounded;
  bounded.budget = &budget;
  auto exhausted = DecideRcdp(*in.q, *in.db, *in.master, in.v, bounded);
  ASSERT_TRUE(exhausted.ok());
  ASSERT_TRUE(exhausted->checkpoint.has_value());

  // Same checkpoint, different database: must be refused, not resumed.
  Database other(in.db_schema);
  other.InsertUnchecked("S", Tuple({Value::Int(0), Value::Int(1)}));
  RcdpOptions resume;
  resume.resume = &*exhausted->checkpoint;
  auto mismatched = DecideRcdp(*in.q, other, *in.master, in.v, resume);
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.status().code(), StatusCode::kInvalidArgument)
      << mismatched.status().ToString();

  // Wrong decider kind: an RCDP checkpoint handed to RCQP.
  RcqpOptions rcqp_resume;
  rcqp_resume.resume = &*exhausted->checkpoint;
  auto wrong_kind =
      DecideRcqp(*in.q, in.db_schema, *in.master, in.v, rcqp_resume);
  ASSERT_FALSE(wrong_kind.ok());
  EXPECT_EQ(wrong_kind.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// User cancellation vs. internal stop-token cancellation (the driver
// cancels losing workers internally; that must never leak, while a
// user cancel must never be swallowed).

TEST(CancellationTest, UserCancelPropagatesInternalCancelDoesNot) {
  IncompleteInstance in = IncompleteInstance::Make();

  // Internal: a parallel run on an incomplete instance cancels losing
  // units internally; the caller sees a clean kIncomplete.
  RcdpOptions parallel;
  parallel.num_threads = 8;
  auto clean = DecideRcdp(*in.q, *in.db, *in.master, in.v, parallel);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_EQ(clean->verdict, Verdict::kIncomplete);

  // User: a fired CancelToken surfaces as kUnknown/kCancel, with the
  // kCancelled status preserved in the exhaustion record.
  CancelSource cancel;
  cancel.RequestCancel();
  ExecutionBudget budget;
  budget.set_cancel_token(cancel.token());
  RcdpOptions cancelled = parallel;
  cancelled.budget = &budget;
  auto stopped = DecideRcdp(*in.q, *in.db, *in.master, in.v, cancelled);
  ASSERT_TRUE(stopped.ok()) << stopped.status().ToString();
  EXPECT_EQ(stopped->verdict, Verdict::kUnknown);
  EXPECT_EQ(stopped->exhaustion.kind, BudgetKind::kCancel);
  EXPECT_EQ(budget.exhaustion_status().code(), StatusCode::kCancelled);
}

// ---------------------------------------------------------------------------
// Deterministic fault-injection sweep: inject each fault kind at every
// decision point of a complete (fully enumerated) instance. Every
// injection must produce a clean kUnknown, leave the inputs untouched,
// and a repeat call must return the uninterrupted verdict.

TEST(FaultInjectionSweepTest, EveryDecisionPointUnwindsCleanlySerial) {
  CompleteInstance in = CompleteInstance::Make();

  // Learn the uninterrupted decision-point count with a counting (but
  // non-tripping) budget.
  ExecutionBudget counter;
  counter.set_max_steps(1u << 30);
  RcdpOptions counted;
  counted.num_threads = 1;
  counted.budget = &counter;
  auto baseline = DecideRcdp(*in.q, *in.db, *in.master, in.v, counted);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_EQ(baseline->verdict, Verdict::kComplete);
  const size_t total_points = counter.steps();
  ASSERT_GT(total_points, 0u);

  const std::string db_before = in.db->ToString();
  const std::string master_before = in.master->ToString();

  const FaultInjector::Fault kinds[] = {
      FaultInjector::Fault::kCancel,
      FaultInjector::Fault::kDeadline,
      FaultInjector::Fault::kAllocFailure,
  };
  for (FaultInjector::Fault fault : kinds) {
    for (size_t point = 0; point < total_points; ++point) {
      FaultInjector inject(fault, point);
      ExecutionBudget budget;
      budget.set_fault_injector(&inject);
      RcdpOptions options;
      options.num_threads = 1;
      options.budget = &budget;
      auto r = DecideRcdp(*in.q, *in.db, *in.master, in.v, options);
      ASSERT_TRUE(r.ok())
          << "fault " << static_cast<int>(fault) << " at " << point << ": "
          << r.status().ToString();
      ASSERT_EQ(r->verdict, Verdict::kUnknown)
          << "fault " << static_cast<int>(fault) << " at " << point;
      ASSERT_TRUE(r->checkpoint.has_value());
      // The unwind left the frozen core untouched.
      ASSERT_EQ(in.db->ToString(), db_before)
          << "fault " << static_cast<int>(fault) << " at " << point;
      ASSERT_EQ(in.master->ToString(), master_before);
      // A repeat call (fresh budget, no fault) reaches the
      // uninterrupted verdict: nothing was corrupted by the unwind.
      auto repeat = DecideRcdp(*in.q, *in.db, *in.master, in.v, {});
      ASSERT_TRUE(repeat.ok());
      ASSERT_EQ(repeat->verdict, Verdict::kComplete)
          << "fault " << static_cast<int>(fault) << " at " << point;
      // And resuming from the checkpoint completes the search.
      RcdpOptions resume;
      resume.num_threads = 1;
      resume.resume = &*r->checkpoint;
      auto resumed = DecideRcdp(*in.q, *in.db, *in.master, in.v, resume);
      ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
      ASSERT_EQ(resumed->verdict, Verdict::kComplete)
          << "fault " << static_cast<int>(fault) << " at " << point << ": "
          << resumed->ToString();
    }
  }
}

TEST(FaultInjectionSweepTest, SampledPointsUnwindCleanlyParallel) {
  CompleteInstance in = CompleteInstance::Make();

  ExecutionBudget counter;
  counter.set_max_steps(1u << 30);
  RcdpOptions counted;
  counted.num_threads = 1;
  counted.budget = &counter;
  auto baseline = DecideRcdp(*in.q, *in.db, *in.master, in.v, counted);
  ASSERT_TRUE(baseline.ok());
  const size_t total_points = counter.steps();
  const std::string db_before = in.db->ToString();

  for (size_t threads : {2u, 8u}) {
    for (size_t point : {size_t{0}, total_points / 2, total_points - 1}) {
      FaultInjector inject(FaultInjector::Fault::kDeadline, point);
      ExecutionBudget budget;
      budget.set_fault_injector(&inject);
      RcdpOptions options;
      options.num_threads = threads;
      options.budget = &budget;
      auto r = DecideRcdp(*in.q, *in.db, *in.master, in.v, options);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ASSERT_EQ(r->verdict, Verdict::kUnknown)
          << "threads " << threads << " point " << point;
      ASSERT_EQ(in.db->ToString(), db_before);
      ASSERT_TRUE(r->checkpoint.has_value());
      RcdpOptions resume;
      resume.num_threads = threads;
      resume.resume = &*r->checkpoint;
      auto resumed = DecideRcdp(*in.q, *in.db, *in.master, in.v, resume);
      ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
      ASSERT_EQ(resumed->verdict, Verdict::kComplete)
          << "threads " << threads << " point " << point;
    }
  }
}

/// Seedable sweep over the chase: inject at a few points spread over
/// the full chase run; exhaustion must keep partial progress and the
/// resumed chase must converge to the uninterrupted database.
TEST(FaultInjectionSweepTest, ChaseSweepKeepsPartialProgress) {
  ChaseableInstance in = ChaseableInstance::Make();

  ExecutionBudget counter;
  counter.set_max_steps(1u << 30);
  RcdpOptions counted;
  counted.num_threads = 1;
  counted.budget = &counter;
  auto baseline =
      ChaseToCompleteness(*in.q, *in.db, *in.master, in.v, 32, counted);
  ASSERT_TRUE(baseline.ok());
  ASSERT_EQ(baseline->verdict, Verdict::kComplete);
  const size_t total_points = counter.steps();
  ASSERT_GT(total_points, 4u);

  for (size_t point :
       {size_t{0}, total_points / 4, total_points / 2, total_points - 1}) {
    FaultInjector inject(FaultInjector::Fault::kAllocFailure, point);
    ExecutionBudget budget;
    budget.set_fault_injector(&inject);
    RcdpOptions options;
    options.num_threads = 1;
    options.budget = &budget;
    auto r = ChaseToCompleteness(*in.q, *in.db, *in.master, in.v, 32,
                                 options);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->verdict, Verdict::kUnknown) << "point " << point;
    ASSERT_TRUE(r->checkpoint.has_value());
    ASSERT_GE(r->db.TotalTuples(), in.db->TotalTuples());
    RcdpOptions resume;
    resume.resume = &*r->checkpoint;
    auto resumed =
        ChaseToCompleteness(*in.q, r->db, *in.master, in.v, 32, resume);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    ASSERT_EQ(resumed->verdict, Verdict::kComplete) << "point " << point;
    EXPECT_EQ(baseline->db.ToString(), resumed->db.ToString())
        << "point " << point;
  }
}

// ---------------------------------------------------------------------------
// The chase rounds cap also rides the graceful-degradation path.

TEST(ChaseBudgetTest, RoundsCapYieldsUnknownWithRoundsKind) {
  IncompleteInstance in = IncompleteInstance::Make();
  auto r = ChaseToCompleteness(*in.q, *in.db, *in.master, in.v,
                               /*max_rounds=*/1, {});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // One round cannot close a 4-of-8 gap here.
  ASSERT_EQ(r->verdict, Verdict::kUnknown) << r->ToString();
  EXPECT_EQ(r->exhaustion.kind, BudgetKind::kRounds);
  EXPECT_GE(r->db.TotalTuples(), in.db->TotalTuples());
}

}  // namespace
}  // namespace relcomp
