#include <gtest/gtest.h>

#include "completeness/brute_force.h"
#include "completeness/rcdp.h"
#include "completeness/rcqp.h"
#include "constraints/integrity_constraints.h"
#include "query/parser.h"
#include "util/execution_control.h"
#include "workload/crm_scenario.h"

namespace relcomp {
namespace {

class RcqpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db_schema = std::make_shared<Schema>();
    ASSERT_TRUE(db_schema->AddRelation("R", 2).ok());
    ASSERT_TRUE(db_schema
                    ->AddRelation(RelationSchema(
                        "B", {AttributeDef::Over("b", Domain::Boolean()),
                              AttributeDef::Inf("v")}))
                    .ok());
    db_schema_ = db_schema;
    auto master_schema = std::make_shared<Schema>();
    ASSERT_TRUE(master_schema->AddRelation("M", 1).ok());
    master_schema_ = master_schema;
    master_ = Database(master_schema_);
  }

  std::shared_ptr<const Schema> db_schema_;
  std::shared_ptr<const Schema> master_schema_;
  Database master_;
};

TEST_F(RcqpTest, UnboundedHeadVariableWithoutConstraints) {
  // Q(x) :- R(x, y) with V = ∅: x ranges over the infinite domain with
  // nothing bounding it — no complete database exists (Prop 4.3).
  auto q = ParseQuery("Q(x) :- R(x, y).", QueryLanguage::kCq);
  ASSERT_TRUE(q.ok());
  ConstraintSet none;
  auto result = DecideRcqp(*q, db_schema_, master_, none);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->exists);
  EXPECT_TRUE(result->exhaustive);
  EXPECT_EQ(result->method, "ind-syntactic");
  ASSERT_EQ(result->unbounded_variables.size(), 1u);
  EXPECT_EQ(result->unbounded_variables[0].variable, "x");
}

TEST_F(RcqpTest, IndBoundedHeadVariableExists) {
  // With π0(R) ⊆ M the head variable is bounded (E4) — a complete
  // database exists, and the constructed witness passes RCDP.
  ASSERT_TRUE(master_.Insert("M", Tuple::Ints({1})).ok());
  ASSERT_TRUE(master_.Insert("M", Tuple::Ints({2})).ok());
  ConstraintSet v;
  auto ind = MakeIndToMaster(*db_schema_, "R", {0}, "M", {0});
  ASSERT_TRUE(ind.ok());
  v.Add(*ind);
  auto q = ParseQuery("Q(x) :- R(x, y).", QueryLanguage::kCq);
  ASSERT_TRUE(q.ok());
  auto result = DecideRcqp(*q, db_schema_, master_, v);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->exists);
  ASSERT_TRUE(result->witness.has_value());
  auto verify = DecideRcdp(*q, *result->witness, master_, v);
  ASSERT_TRUE(verify.ok()) << verify.status().ToString();
  EXPECT_TRUE(verify->complete);
}

TEST_F(RcqpTest, FiniteDomainHeadVariableExists) {
  // E3: the head variable ranges over the Boolean domain.
  auto q = ParseQuery("Q(b) :- B(b, v).", QueryLanguage::kCq);
  ASSERT_TRUE(q.ok());
  ConstraintSet none;
  auto result = DecideRcqp(*q, db_schema_, master_, none);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->exists);
  if (result->witness.has_value()) {
    auto verify = DecideRcdp(*q, *result->witness, master_, none);
    ASSERT_TRUE(verify.ok());
    EXPECT_TRUE(verify->complete);
  }
}

TEST_F(RcqpTest, AllFiniteDomainsWitnessInterruptedIsUnknownAndResumes) {
  // E1: the head variable ranges over the Boolean domain and the FD
  // b → v is no IND, so the general path decides "exists" at once and
  // chases the empty database for the witness. A budget that trips
  // mid-chase must not answer kComplete without the witness: it
  // answers kUnknown with a checkpoint whose resume rebuilds it.
  FunctionalDependency fd("B", {0}, {1});
  auto ccs = fd.ToContainmentConstraints(*db_schema_);
  ASSERT_TRUE(ccs.ok()) << ccs.status().ToString();
  ConstraintSet v;
  for (auto& cc : *ccs) v.Add(std::move(cc));
  ASSERT_FALSE(v.IsIndsOnly());
  auto q = ParseQuery("Q(b) :- B(b, v).", QueryLanguage::kCq);
  ASSERT_TRUE(q.ok());

  // One search thread: the decision points a capped run claims are
  // then those of the counted run, so every cap below lands mid-chase.
  ExecutionBudget counter;
  RcqpOptions counted;
  counted.rcdp.num_threads = 1;
  counted.rcdp.budget = &counter;
  auto uninterrupted = DecideRcqp(*q, db_schema_, master_, v, counted);
  ASSERT_TRUE(uninterrupted.ok()) << uninterrupted.status().ToString();
  ASSERT_EQ(uninterrupted->verdict, Verdict::kComplete);
  EXPECT_EQ(uninterrupted->method, "all-finite-domains");
  ASSERT_TRUE(uninterrupted->witness.has_value());
  const size_t total = counter.steps();
  ASSERT_GT(total, 1u);

  for (size_t cap = 1; cap < total; ++cap) {
    ExecutionBudget budget;
    budget.set_max_steps(cap);
    RcqpOptions capped;
    capped.rcdp.num_threads = 1;
    capped.rcdp.budget = &budget;
    auto stopped = DecideRcqp(*q, db_schema_, master_, v, capped);
    ASSERT_TRUE(stopped.ok()) << stopped.status().ToString();
    ASSERT_EQ(stopped->verdict, Verdict::kUnknown) << "cap " << cap;
    EXPECT_FALSE(stopped->witness.has_value());
    EXPECT_EQ(stopped->exhaustion.kind, BudgetKind::kSteps);
    ASSERT_TRUE(stopped->checkpoint.has_value()) << "cap " << cap;
    EXPECT_EQ(stopped->checkpoint->decider, "rcqp-chase");

    RcqpOptions resumed_options;
    resumed_options.resume = &*stopped->checkpoint;
    auto resumed = DecideRcqp(*q, db_schema_, master_, v, resumed_options);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_EQ(resumed->ToString(), uninterrupted->ToString()) << "cap " << cap;
  }
}

TEST_F(RcqpTest, UnrealizableDisjunctDoesNotBlockExistence) {
  // V forbids any R tuple (π0(R) ⊆ M with M empty): the R-disjunct is
  // unrealizable, so only the B-disjunct matters — exists.
  ConstraintSet v;
  auto ind = MakeIndToMaster(*db_schema_, "R", {0}, "M", {0});
  ASSERT_TRUE(ind.ok());
  v.Add(*ind);
  auto q = ParseQuery("Q(x) :- R(x, y).\nQ(x) :- B(x, y), x = 1.",
                      QueryLanguage::kUcq);
  ASSERT_TRUE(q.ok());
  auto result = DecideRcqp(*q, db_schema_, master_, v);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->exists);
}

TEST_F(RcqpTest, Example41FdBlocksAdditions) {
  // Example 4.1: Q4 finds Supt tuples with eid = e0 and dept = d0; the
  // FD eid → dept makes Q4 relatively complete: the witness D− holds a
  // single tuple (e0, d', c) with d' != d0, which blocks any (e0, d0, ·)
  // addition. General-constraints path (the FD compiles to CQ CCs).
  auto scenario = CrmScenario::Make();
  ASSERT_TRUE(scenario.ok());
  FunctionalDependency fd("Supt", {0}, {1});
  auto ccs = fd.ToContainmentConstraints(*scenario->db_schema());
  ASSERT_TRUE(ccs.ok());
  ConstraintSet v;
  for (auto& cc : *ccs) v.Add(std::move(cc));
  auto q4 = scenario->Q4();
  ASSERT_TRUE(q4.ok());

  RcqpOptions options;
  options.max_witness_tuples = 1;
  options.max_pool_size = 2048;
  auto result = DecideRcqp(*q4, scenario->db_schema(), scenario->master(), v,
                           options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->exists);
  ASSERT_TRUE(result->witness.has_value());
  // The witness must itself be verified complete (the decider verifies
  // with RCDP before returning; double-check here).
  auto verify = DecideRcdp(*q4, *result->witness, scenario->master(), v);
  ASSERT_TRUE(verify.ok());
  EXPECT_TRUE(verify->complete);
}

TEST_F(RcqpTest, Example41Q2NotCompleteUnderEidDeptFdAlone) {
  // Example 4.1 second part: with only eid → dept (cid free), Q2 is
  // not relatively complete — fresh cid values can always be pumped.
  auto scenario = CrmScenario::Make();
  ASSERT_TRUE(scenario.ok());
  FunctionalDependency fd("Supt", {0}, {1});
  auto ccs = fd.ToContainmentConstraints(*scenario->db_schema());
  ASSERT_TRUE(ccs.ok());
  ConstraintSet v;
  for (auto& cc : *ccs) v.Add(std::move(cc));
  auto q2 = scenario->Q2();
  ASSERT_TRUE(q2.ok());

  // About 29,000 judged pool candidates' worth of decision points.
  ExecutionBudget budget;
  budget.set_max_steps(400000);
  RcqpOptions options;
  options.max_witness_tuples = 2;
  options.max_pool_size = 600;
  options.rcdp.budget = &budget;
  auto result = DecideRcqp(*q2, scenario->db_schema(), scenario->master(), v,
                           options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->exists);
  // The search is budget-bounded here, so NotExists need not be
  // exhaustive — but it must never claim exhaustiveness wrongly.
  if (result->exhaustive) {
    BruteForceOptions bf;
    bf.max_database_tuples = 2;
    auto brute = BruteForceRcqp(*q2, scenario->db_schema(),
                                scenario->master(), v, bf);
    ASSERT_TRUE(brute.ok());
    EXPECT_FALSE(brute->exists);
  }
}

TEST_F(RcqpTest, Example41Q2CompleteUnderFullFd) {
  // With eid → dept, cid (the paper's Σ2), Q2 is relatively complete:
  // witness D+ = {(e0, d0, c0)} pins e0's single supported customer.
  auto scenario = CrmScenario::Make();
  ASSERT_TRUE(scenario.ok());
  auto sigma2 = scenario->FdSigma2();
  ASSERT_TRUE(sigma2.ok());
  auto q2 = scenario->Q2();
  ASSERT_TRUE(q2.ok());

  RcqpOptions options;
  options.max_witness_tuples = 1;
  options.max_pool_size = 2048;
  auto result = DecideRcqp(*q2, scenario->db_schema(), scenario->master(),
                           *sigma2, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->exists);
  ASSERT_TRUE(result->witness.has_value());
}

TEST_F(RcqpTest, EmptyWitnessWhenConstraintsForbidEverything) {
  // π0(R) ⊆ M with empty master: no R tuple can ever exist, so the
  // empty database is complete for any R query.
  ConstraintSet v;
  auto ind = MakeIndToMaster(*db_schema_, "R", {0}, "M", {0});
  ASSERT_TRUE(ind.ok());
  v.Add(*ind);
  auto q = ParseQuery("Q(x, y) :- R(x, y).", QueryLanguage::kCq);
  ASSERT_TRUE(q.ok());
  auto result = DecideRcqp(*q, db_schema_, master_, v);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->exists);
  ASSERT_TRUE(result->witness.has_value());
  EXPECT_TRUE(result->witness->Empty());
}

TEST_F(RcqpTest, NoPartiallyClosedDatabaseAtAll) {
  // A constant-true CC with an empty target can never be satisfied:
  // q() :- . ⊆ ∅ — RCQ is empty because no D is partially closed.
  ConstraintSet v;
  auto q_true = ParseConjunctiveQuery("always() :- .");
  ASSERT_TRUE(q_true.ok());
  v.Add(ContainmentConstraint::SubsetOfEmpty(AnyQuery::Cq(*q_true)));
  auto q = ParseQuery("Q(x, y) :- R(x, y).", QueryLanguage::kCq);
  ASSERT_TRUE(q.ok());
  auto result = DecideRcqp(*q, db_schema_, master_, v);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->exists);
  EXPECT_TRUE(result->exhaustive);
  EXPECT_EQ(result->method, "no-partially-closed-database");
}

TEST_F(RcqpTest, UnsatisfiableQueryAlwaysExists) {
  auto q = ParseQuery("Q(x) :- R(x, y), x = 1, x = 2.", QueryLanguage::kCq);
  ASSERT_TRUE(q.ok());
  ConstraintSet none;
  auto result = DecideRcqp(*q, db_schema_, master_, none);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->exists);
}

TEST_F(RcqpTest, UndecidableLanguagesAreRefused) {
  auto fp = ParseQuery("T(x) :- R(x, y).\nT(x) :- R(x, y), T(y).",
                       QueryLanguage::kDatalog);
  ASSERT_TRUE(fp.ok());
  ConstraintSet none;
  auto result = DecideRcqp(*fp, db_schema_, master_, none);
  EXPECT_EQ(result.status().code(), StatusCode::kUnsupported);
}

TEST_F(RcqpTest, AnalyzeIndBoundednessReportsPerVariable) {
  ASSERT_TRUE(master_.Insert("M", Tuple::Ints({1})).ok());
  ConstraintSet v;
  auto ind = MakeIndToMaster(*db_schema_, "R", {0}, "M", {0});
  ASSERT_TRUE(ind.ok());
  v.Add(*ind);
  auto q = ParseQuery("Q(x, y) :- R(x, y).", QueryLanguage::kCq);
  ASSERT_TRUE(q.ok());
  auto analysis = AnalyzeIndBoundedness(*q, v, *db_schema_);
  ASSERT_TRUE(analysis.ok());
  ASSERT_EQ(analysis->size(), 1u);
  ASSERT_EQ((*analysis)[0].size(), 2u);
  EXPECT_EQ((*analysis)[0][0].variable, "x");
  EXPECT_TRUE((*analysis)[0][0].ind_bounded);
  EXPECT_FALSE((*analysis)[0][0].finite_domain);
  EXPECT_EQ((*analysis)[0][1].variable, "y");
  EXPECT_FALSE((*analysis)[0][1].bounded());
}

// Exhaustive agreement with brute force on a micro instance where the
// pool is fully enumerable.
TEST_F(RcqpTest, WitnessSearchAgreesWithBruteForceOnMicroInstance) {
  // Schema with a single unary relation bounded by a key-style CC:
  // S(x), S(y), x != y ⊆ ∅ (at most one S tuple). Q(x) :- S(x) is then
  // relatively complete: witness = any single tuple.
  auto schema = std::make_shared<Schema>();
  ASSERT_TRUE(schema->AddRelation("S", 1).ok());
  ConstraintSet v;
  auto at_most_one =
      ParseConjunctiveQuery("amo() :- S(x), S(y), x != y.");
  ASSERT_TRUE(at_most_one.ok());
  v.Add(ContainmentConstraint::SubsetOfEmpty(AnyQuery::Cq(*at_most_one)));
  auto q = ParseQuery("Q(x) :- S(x).", QueryLanguage::kCq);
  ASSERT_TRUE(q.ok());

  RcqpOptions options;
  options.max_witness_tuples = 4;
  auto result = DecideRcqp(*q, schema, master_, v, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->exists);
  ASSERT_TRUE(result->witness.has_value());
  EXPECT_EQ(result->witness->TotalTuples(), 1u);

  BruteForceOptions bf;
  bf.max_database_tuples = 1;
  auto brute = BruteForceRcqp(*q, schema, master_, v, bf);
  ASSERT_TRUE(brute.ok());
  EXPECT_TRUE(brute->exists);
}

TEST_F(RcqpTest, GeneralPathNotExistsIsExactWhenExhaustive) {
  // Q(x) :- S(x) with a CC that merely caps duplicates per value but
  // never bounds x: q(x) :- S(x) ⊆ π(M) with M empty would forbid all
  // tuples (exists). Instead use a CC that allows tuples but cannot
  // bound x: the pair constraint from the previous test plus master
  // value... here: no constraints at all, general path forced by a
  // non-IND CC that is vacuous: q() :- S(x), S(y), x = y, x != y ⊆ ∅.
  auto schema = std::make_shared<Schema>();
  ASSERT_TRUE(schema->AddRelation("S", 1).ok());
  ConstraintSet v;
  auto vacuous = ParseConjunctiveQuery("vac() :- S(x), S(y), x = y, x != y.");
  ASSERT_TRUE(vacuous.ok());
  v.Add(ContainmentConstraint::SubsetOfEmpty(AnyQuery::Cq(*vacuous)));
  auto q = ParseQuery("Q(x) :- S(x).", QueryLanguage::kCq);
  ASSERT_TRUE(q.ok());

  RcqpOptions options;
  options.max_witness_tuples = 16;  // ≥ pool size for exhaustiveness
  options.max_pool_size = 16;
  auto result = DecideRcqp(*q, schema, master_, v, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->exists);
  EXPECT_TRUE(result->exhaustive);
}

}  // namespace
}  // namespace relcomp
