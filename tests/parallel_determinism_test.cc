#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "completeness/active_domain.h"
#include "completeness/rcdp.h"
#include "completeness/rcqp.h"
#include "completeness/valuation_search.h"
#include "constraints/constraint_check.h"
#include "constraints/integrity_constraints.h"
#include "query/parser.h"
#include "workload/generators.h"

namespace relcomp {
namespace {

/// The parallel valuation search must be invisible: for every thread
/// count the RCDP verdict, the counterexample Δ and the new answer
/// tuple are bit-for-bit those of the serial search (lowest-work-unit
/// winner resolution over contiguous rank shards). These sweeps check
/// that on randomized instances (per-worker delta sessions).

std::string DeltaKey(const RcdpResult& r) {
  if (!r.counterexample_delta.has_value()) return "<none>";
  return r.counterexample_delta->ToString();
}

std::string AnswerKey(const RcdpResult& r) {
  if (!r.new_answer.has_value()) return "<none>";
  return r.new_answer->ToString();
}

void ExpectSameDecision(const RcdpResult& serial, const RcdpResult& parallel,
                        size_t threads, const std::string& context) {
  EXPECT_EQ(serial.complete, parallel.complete)
      << "threads=" << threads << "\n" << context;
  EXPECT_EQ(DeltaKey(serial), DeltaKey(parallel))
      << "threads=" << threads << "\n" << context;
  EXPECT_EQ(AnswerKey(serial), AnswerKey(parallel))
      << "threads=" << threads << "\n" << context;
  // Each work unit re-binds its shard prefix and cancelled units do
  // partial work, so the parallel step count bounds the serial one
  // from above (no budget in play here).
  EXPECT_GE(parallel.stats.bindings_tried, serial.stats.bindings_tried)
      << "threads=" << threads << "\n" << context;
}

class ParallelDeterminismTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelDeterminismTest, RcdpAgreesAcrossThreadCounts) {
  Rng rng(GetParam() * 271);
  RandomInstanceOptions db_options;
  db_options.num_relations = 1;
  db_options.min_arity = 2;
  db_options.max_arity = 2;
  db_options.value_pool = 3;
  db_options.tuples_per_relation = 3;
  auto db_schema = RandomSchema(db_options, &rng);
  auto master_schema = std::make_shared<Schema>();
  ASSERT_TRUE(master_schema->AddRelation("M", 1).ok());

  RandomCqOptions cq_options;
  cq_options.num_atoms = 2;
  cq_options.num_variables = 3;
  cq_options.num_head_terms = 1;
  cq_options.value_pool = 3;

  int checked = 0;
  for (int attempt = 0; attempt < 40 && checked < 5; ++attempt) {
    Database db = RandomDatabase(db_schema, db_options, &rng);
    Database master(master_schema);
    std::uniform_int_distribution<int64_t> value(0, 3);
    for (int i = 0; i < 2; ++i) {
      master.InsertUnchecked("M", Tuple({Value::Int(value(rng))}));
    }
    auto constraints = RandomIndConstraints(*db_schema, *master_schema,
                                            1, &rng);
    ASSERT_TRUE(constraints.ok());
    ConjunctiveQuery cq = RandomCq(*db_schema, cq_options, &rng);
    if (!cq.Validate(*db_schema).ok()) continue;
    AnyQuery q = AnyQuery::Cq(cq);
    auto closed = Satisfies(*constraints, db, master);
    ASSERT_TRUE(closed.ok());
    if (!*closed) continue;
    std::string context = cq.ToString() + "\n" + db.ToString();

    RcdpOptions serial_options;
    serial_options.num_threads = 1;
    auto serial = DecideRcdp(q, db, master, *constraints, serial_options);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    for (size_t threads : {size_t{2}, size_t{8}}) {
      RcdpOptions parallel_options = serial_options;
      parallel_options.num_threads = threads;
      auto parallel =
          DecideRcdp(q, db, master, *constraints, parallel_options);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      ExpectSameDecision(*serial, *parallel, threads, context);
    }
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

TEST_P(ParallelDeterminismTest, RcqpAgreesAcrossThreadCounts) {
  Rng rng(GetParam() * 397);
  RandomInstanceOptions db_options;
  db_options.num_relations = 1;
  db_options.min_arity = 2;
  db_options.max_arity = 2;
  auto db_schema = RandomSchema(db_options, &rng);
  auto master_schema = std::make_shared<Schema>();
  ASSERT_TRUE(master_schema->AddRelation("M", 1).ok());

  RandomCqOptions cq_options;
  cq_options.num_atoms = 2;
  cq_options.num_variables = 2;
  cq_options.num_head_terms = 1;
  cq_options.value_pool = 2;

  int checked = 0;
  for (int attempt = 0; attempt < 30 && checked < 4; ++attempt) {
    Database master(master_schema);
    std::uniform_int_distribution<int64_t> value(0, 2);
    master.InsertUnchecked("M", Tuple({Value::Int(value(rng))}));
    auto constraints =
        RandomIndConstraints(*db_schema, *master_schema, 1, &rng);
    ASSERT_TRUE(constraints.ok());
    ConjunctiveQuery cq = RandomCq(*db_schema, cq_options, &rng);
    if (!cq.Validate(*db_schema).ok()) continue;
    AnyQuery q = AnyQuery::Cq(cq);

    RcqpOptions serial_options;
    serial_options.rcdp.num_threads = 1;
    auto serial = DecideRcqp(q, db_schema, master, *constraints,
                             serial_options);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    for (size_t threads : {size_t{2}, size_t{8}}) {
      RcqpOptions parallel_options;
      parallel_options.rcdp.num_threads = threads;
      auto parallel = DecideRcqp(q, db_schema, master, *constraints,
                                 parallel_options);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      EXPECT_EQ(serial->exists, parallel->exists)
          << "threads=" << threads << "\n" << cq.ToString();
      EXPECT_EQ(serial->method, parallel->method)
          << "threads=" << threads << "\n" << cq.ToString();
      EXPECT_EQ(serial->witness.has_value(), parallel->witness.has_value())
          << "threads=" << threads << "\n" << cq.ToString();
      if (serial->witness.has_value() && parallel->witness.has_value()) {
        EXPECT_EQ(serial->witness->ToString(), parallel->witness->ToString())
            << "threads=" << threads << "\n" << cq.ToString();
      }
    }
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelDeterminismTest,
                         ::testing::Range(1, 7));

/// The shared step budget: with num_threads > 1 every worker claims
/// its decision points on one ExecutionBudget, so a tiny cap must
/// surface as kUnknown no matter how the units are scheduled — and must
/// stop every worker (the search returns promptly instead of running
/// the full space).
TEST(ParallelBudgetTest, SharedBudgetExhaustsAcrossWorkers) {
  auto db_schema = std::make_shared<Schema>();
  ASSERT_TRUE(db_schema->AddRelation("S", 2).ok());
  auto master_schema = std::make_shared<Schema>();
  ASSERT_TRUE(master_schema->AddRelation("M", 1).ok());
  Database db(db_schema);
  for (int64_t i = 0; i < 4; ++i) {
    db.InsertUnchecked("S", Tuple({Value::Int(i), Value::Int(i + 1)}));
  }
  Database master(master_schema);
  for (int64_t i = 0; i < 8; ++i) {
    master.InsertUnchecked("M", Tuple({Value::Int(i)}));
  }
  ConstraintSet v;
  auto ind = MakeIndToMaster(*db_schema, "S", {0}, "M", {0});
  ASSERT_TRUE(ind.ok());
  v.Add(*ind);
  auto q = ParseQuery("Q(x, y) :- S(x, y).", QueryLanguage::kCq);
  ASSERT_TRUE(q.ok());

  // Sanity: without a budget the instance decides (incomplete — fresh
  // M-backed tuples extend the answer).
  RcdpOptions unbounded;
  unbounded.num_threads = 8;
  auto decided = DecideRcdp(*q, db, master, v, unbounded);
  ASSERT_TRUE(decided.ok()) << decided.status().ToString();

  ExecutionBudget budget;
  budget.set_max_steps(3);
  RcdpOptions bounded;
  bounded.num_threads = 8;
  bounded.budget = &budget;
  auto exhausted = DecideRcdp(*q, db, master, v, bounded);
  // The counterexample may be found within the budget (the serial-first
  // winner sits in unit 0); otherwise the shared cap must surface as a
  // kUnknown verdict with a resume checkpoint, never as a wrong verdict
  // or a hang.
  ASSERT_TRUE(exhausted.ok()) << exhausted.status().ToString();
  EXPECT_FALSE(exhausted->complete);
  if (exhausted->verdict == Verdict::kUnknown) {
    EXPECT_TRUE(exhausted->exhaustion.exhausted());
    EXPECT_TRUE(exhausted->checkpoint.has_value());
  } else {
    EXPECT_EQ(exhausted->verdict, Verdict::kIncomplete);
  }
}

/// The lowest-unit-wins stop rule, deterministically: with unit 2
/// published as the winner, enumerations of units 0 and 2 deliver every
/// valuation of their shard, and the enumeration of unit 3 cancels
/// before delivering any. Units below a winner are never cancelled —
/// the serial-first hit may sit there — so the driver can never leave
/// one unresolved.
TEST(ParallelStopRuleTest, OnlyUnitsAboveThePublishedWinnerCancel) {
  auto db_schema = std::make_shared<Schema>();
  ASSERT_TRUE(db_schema->AddRelation("S", 2).ok());
  auto q = ParseQuery("Q(x) :- S(x, y).", QueryLanguage::kCq);
  ASSERT_TRUE(q.ok());
  auto tableau =
      TableauQuery::FromConjunctive(*q.value().as_cq(), *db_schema);
  ASSERT_TRUE(tableau.ok());
  ActiveDomain adom = ActiveDomain::Build(
      {Value::Int(1), Value::Int(2), Value::Int(3), Value::Int(4)}, 0);
  ValueInterner interner;
  std::atomic<size_t> best_unit{2};

  auto run_unit = [&](size_t unit, size_t* delivered) {
    ValuationEnumerator::Options options;
    options.interner = &interner;
    options.shard_depth = 1;  // one unit per candidate of the first var
    options.shard_begin = unit;
    options.shard_end = unit + 1;
    options.best_unit = &best_unit;
    options.unit = unit;
    ValuationEnumerator enumerator(&*tableau, &adom, options);
    return enumerator.EnumerateIds(nullptr, [&](const IdValuation&) {
      ++*delivered;
      return true;
    });
  };
  for (size_t unit : {size_t{0}, size_t{2}}) {
    size_t delivered = 0;
    Status st = run_unit(unit, &delivered);
    EXPECT_TRUE(st.ok()) << "unit " << unit << ": " << st.ToString();
    EXPECT_EQ(delivered, 4u) << "unit " << unit;  // 1 x-value × 4 y-values
  }
  size_t delivered = 0;
  Status st = run_unit(3, &delivered);
  EXPECT_EQ(st.code(), StatusCode::kCancelled) << st.ToString();
  EXPECT_EQ(delivered, 0u);
}

/// Rolling reports come from the thread that called the driver, while
/// the pool searches on. Each of the 16 work units binds one value of
/// x, and every unit but unit 0 waits at its first binding until a
/// report has arrived: the first report (rank 1, unit 0 exhausted) is
/// then made while those units are in flight, and by a thread that is
/// running none of them.
TEST(ParallelReportTest, CallingThreadReportsWhileWorkersSearch) {
  auto db_schema = std::make_shared<Schema>();
  ASSERT_TRUE(db_schema->AddRelation("S", 2).ok());
  auto q = ParseQuery("Q(x) :- S(x, y).", QueryLanguage::kCq);
  ASSERT_TRUE(q.ok());
  auto tableau =
      TableauQuery::FromConjunctive(*q.value().as_cq(), *db_schema);
  ASSERT_TRUE(tableau.ok());
  std::set<Value> base;
  for (int64_t i = 0; i < static_cast<int64_t>(kControlledUnits); ++i) {
    base.insert(Value::Int(i));
  }
  ActiveDomain adom = ActiveDomain::Build(base, 0);
  ValueInterner interner;
  ValuationEnumerator::Options enum_options;
  enum_options.interner = &interner;

  for (size_t threads : {1, 2, 8}) {
    SCOPED_TRACE(threads);
    std::mutex mu;
    std::condition_variable reported;
    std::vector<size_t> ranks;  // guarded by mu
    const std::thread::id caller = std::this_thread::get_id();
    ParallelSearchOptions parallel_options;
    parallel_options.num_threads = threads;
    parallel_options.on_progress = [&](size_t rank) {
      EXPECT_EQ(std::this_thread::get_id(), caller) << rank;
      std::lock_guard<std::mutex> lock(mu);
      ranks.push_back(rank);
      reported.notify_all();
    };
    auto prune = [&](size_t, const IdValuation& v) {
      if (v.depth == 1 &&
          v.enumerator->ResolveId(v.ids[0]) != Value::Int(0)) {
        std::unique_lock<std::mutex> lock(mu);
        reported.wait(lock, [&] { return !ranks.empty(); });
      }
      return false;
    };
    ParallelSearchOutcome outcome;
    ParallelValuationSearchIds(
        *tableau, adom, enum_options, parallel_options, prune,
        [](size_t, const IdValuation&) { return true; },
        [](size_t) { return ParallelUnitResult(); }, &outcome);
    EXPECT_TRUE(outcome.failure.ok()) << outcome.failure.ToString();
    EXPECT_FALSE(outcome.found);
    EXPECT_EQ(outcome.next_rank, kControlledUnits);
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_FALSE(ranks.empty());
    EXPECT_EQ(ranks.front(), 1u);
    for (size_t i = 0; i < ranks.size(); ++i) {
      EXPECT_LT(ranks[i], kControlledUnits);
      if (i > 0) EXPECT_LT(ranks[i - 1], ranks[i]);
    }
  }
}

}  // namespace
}  // namespace relcomp
