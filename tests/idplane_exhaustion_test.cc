// Exhaustion coverage for the id-plane hot path's memory charges:
// per-worker arena blocks flow through ExecutionBudget::TrackBytes, trip
// the byte cap as kResourceExhausted, and the decider's
// checkpoint/resume contract holds across a trip.
// (Suite names carry "Exhaustion" so the tsan preset's filter runs
// them under the race detector.)

#include <gtest/gtest.h>

#include <optional>

#include "completeness/rcdp.h"
#include "constraints/integrity_constraints.h"
#include "query/parser.h"
#include "relational/database.h"
#include "util/execution_control.h"

namespace relcomp {
namespace {

TEST(ArenaBytesExhaustionTest, DeciderChargesArenasAndResumeRoundTrips) {
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
  ASSERT_TRUE(ind.ok()) << ind.status().ToString();
  v.Add(*ind);
  auto q = ParseQuery("Q(x, y) :- S(x, y).", QueryLanguage::kCq);
  ASSERT_TRUE(q.ok()) << q.status().ToString();

  // Uninterrupted run: arenas are on by default, do real work, and
  // report their footprint.
  RcdpOptions plain;
  plain.num_threads = 1;
  auto uninterrupted = DecideRcdp(*q, db, master, v, plain);
  ASSERT_TRUE(uninterrupted.ok()) << uninterrupted.status().ToString();
  ASSERT_EQ(uninterrupted->verdict, Verdict::kIncomplete);
  EXPECT_GT(uninterrupted->stats.arena_bytes, 0u);

  // A byte cap below one arena block: the charge trips the budget at a
  // decision point, the verdict degrades to kUnknown/kMemory with a
  // checkpoint.
  ExecutionBudget budget;
  budget.set_max_tracked_bytes(256);
  RcdpOptions bounded = plain;
  bounded.budget = &budget;
  auto exhausted = DecideRcdp(*q, db, master, v, bounded);
  ASSERT_TRUE(exhausted.ok()) << exhausted.status().ToString();
  ASSERT_EQ(exhausted->verdict, Verdict::kUnknown) << exhausted->ToString();
  EXPECT_EQ(exhausted->exhaustion.kind, BudgetKind::kMemory)
      << exhausted->exhaustion.ToString();
  ASSERT_TRUE(exhausted->checkpoint.has_value());

  // Resume with no budget: combined search equals the uninterrupted
  // one (verdict and evidence bit-for-bit).
  RcdpOptions resume = plain;
  resume.resume = &*exhausted->checkpoint;
  auto resumed = DecideRcdp(*q, db, master, v, resume);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->verdict, uninterrupted->verdict);
  ASSERT_TRUE(resumed->new_answer.has_value());
  ASSERT_TRUE(uninterrupted->new_answer.has_value());
  EXPECT_EQ(*resumed->new_answer, *uninterrupted->new_answer);
  ASSERT_TRUE(resumed->counterexample_delta.has_value());
  ASSERT_TRUE(uninterrupted->counterexample_delta.has_value());
  EXPECT_EQ(*resumed->counterexample_delta,
            *uninterrupted->counterexample_delta);

  // The ablation path without arenas must not report arena bytes.
  RcdpOptions no_arena = plain;
  no_arena.use_arena = false;
  auto off = DecideRcdp(*q, db, master, v, no_arena);
  ASSERT_TRUE(off.ok()) << off.status().ToString();
  EXPECT_EQ(off->stats.arena_bytes, 0u);
  EXPECT_EQ(off->verdict, uninterrupted->verdict);
}

}  // namespace
}  // namespace relcomp
