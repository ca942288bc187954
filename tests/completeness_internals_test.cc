#include <gtest/gtest.h>

#include "completeness/active_domain.h"
#include "completeness/brute_force.h"
#include "completeness/valuation_search.h"
#include "constraints/integrity_constraints.h"
#include "query/parser.h"
#include "tableau/tableau.h"

namespace relcomp {
namespace {

// ---------------------------------------------------------------------------
// ActiveDomain.

TEST(ActiveDomainTest, MintsFreshValuesOutsideBase) {
  std::set<Value> base = {Value::Int(1), Value::Str("_new$0")};
  ActiveDomain adom = ActiveDomain::Build(base, 3);
  EXPECT_EQ(adom.base().size(), 2u);
  EXPECT_EQ(adom.fresh().size(), 3u);
  for (const Value& f : adom.fresh()) {
    EXPECT_EQ(base.count(f), 0u) << f.ToString();
    EXPECT_TRUE(adom.IsFresh(f));
  }
  // The colliding name "_new$0" was skipped, not reused.
  EXPECT_FALSE(adom.IsFresh(Value::Str("_new$0")));
}

TEST(ActiveDomainTest, CandidatesRespectFiniteDomains) {
  ActiveDomain adom = ActiveDomain::Build({Value::Int(7)}, 2);
  auto finite = adom.CandidatesFor(*Domain::Boolean());
  EXPECT_EQ(finite.size(), 2u);  // exactly {0, 1}, no fresh values
  auto infinite = adom.CandidatesFor(*Domain::Infinite());
  EXPECT_EQ(infinite.size(), 3u);  // base + 2 fresh
}

// ---------------------------------------------------------------------------
// ValuationEnumerator.

class ValuationSearchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto schema = std::make_shared<Schema>();
    ASSERT_TRUE(schema->AddRelation("R", 2).ok());
    ASSERT_TRUE(schema
                    ->AddRelation(RelationSchema(
                        "B", {AttributeDef::Over("b", Domain::Boolean()),
                              AttributeDef::Inf("v")}))
                    .ok());
    schema_ = schema;
  }

  TableauQuery Tableau(const std::string& text) {
    auto q = ParseConjunctiveQuery(text);
    EXPECT_TRUE(q.ok());
    auto t = TableauQuery::FromConjunctive(*q, *schema_);
    EXPECT_TRUE(t.ok());
    return *t;
  }

  size_t CountTotals(const TableauQuery& tableau, const ActiveDomain& adom,
                     ValuationEnumerator::Options options) {
    options.interner = &interner_;
    ValuationEnumerator enumerator(&tableau, &adom, options);
    size_t count = 0;
    EXPECT_TRUE(enumerator
                    .EnumerateIds(nullptr,
                                  [&](const IdValuation&) {
                                    ++count;
                                    return true;
                                  })
                    .ok());
    return count;
  }

  std::shared_ptr<const Schema> schema_;
  ValueInterner interner_;
};

TEST_F(ValuationSearchTest, NaiveCountsFullProduct) {
  TableauQuery t = Tableau("Q(x) :- R(x, y).");
  ActiveDomain adom = ActiveDomain::Build({Value::Int(1), Value::Int(2)}, 2);
  ValuationEnumerator::Options naive;
  naive.pruned = false;
  naive.symmetry_break_fresh = false;
  // 2 vars × (2 base + 2 fresh) candidates = 16 totals.
  EXPECT_EQ(CountTotals(t, adom, naive), 16u);
}

TEST_F(ValuationSearchTest, SymmetryBreakingShrinksFreshChoices) {
  TableauQuery t = Tableau("Q(x) :- R(x, y).");
  ActiveDomain adom = ActiveDomain::Build({Value::Int(1)}, 2);
  ValuationEnumerator::Options options;  // pruned + symmetry break
  // Position 0: 1 base + 1 fresh; position 1: 1 base + 2 fresh.
  EXPECT_EQ(CountTotals(t, adom, options), 6u);
}

TEST_F(ValuationSearchTest, DisequalitiesPruneEagerly) {
  TableauQuery t = Tableau("Q(x) :- R(x, y), x != y.");
  ActiveDomain adom = ActiveDomain::Build({Value::Int(1), Value::Int(2)}, 0);
  ValuationEnumerator::Options options;
  options.symmetry_break_fresh = false;
  // 2×2 minus the two diagonal assignments.
  EXPECT_EQ(CountTotals(t, adom, options), 2u);
  // Naive mode delivers the same valid totals (validity at the leaf).
  ValuationEnumerator::Options naive;
  naive.pruned = false;
  naive.symmetry_break_fresh = false;
  EXPECT_EQ(CountTotals(t, adom, naive), 2u);
}

TEST_F(ValuationSearchTest, FiniteDomainVariablesUseTheirDomain) {
  TableauQuery t = Tableau("Q(b) :- B(b, v).");
  ActiveDomain adom =
      ActiveDomain::Build({Value::Int(7), Value::Int(8)}, 1);
  ValuationEnumerator::Options options;
  options.symmetry_break_fresh = false;
  // b ∈ {0,1} (Boolean column), v ∈ 2 base + 1 fresh.
  EXPECT_EQ(CountTotals(t, adom, options), 6u);
}

TEST_F(ValuationSearchTest, UnsatisfiableTableauYieldsNothing) {
  TableauQuery t = Tableau("Q() :- R(x, y), x = 1, x = 2.");
  ActiveDomain adom = ActiveDomain::Build({Value::Int(1)}, 1);
  EXPECT_EQ(CountTotals(t, adom, ValuationEnumerator::Options()), 0u);
}

TEST_F(ValuationSearchTest, BudgetSurfacesAsResourceExhausted) {
  TableauQuery t = Tableau("Q(x) :- R(x, y).");
  ActiveDomain adom = ActiveDomain::Build({Value::Int(1), Value::Int(2)}, 4);
  ExecutionBudget budget;
  budget.set_max_steps(3);
  ValuationEnumerator::Options options;
  options.budget = &budget;
  options.interner = &interner_;
  ValuationEnumerator enumerator(&t, &adom, options);
  Status st = enumerator.EnumerateIds(
      nullptr, [](const IdValuation&) { return true; });
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(enumerator.stats().bindings_tried, 3u);
}

TEST_F(ValuationSearchTest, CandidateOverridesApply) {
  TableauQuery t = Tableau("Q(x) :- R(x, y).");
  ActiveDomain adom = ActiveDomain::Build({Value::Int(1), Value::Int(2)}, 2);
  std::map<std::string, std::vector<Value>> overrides;
  overrides["y"] = {Value::Int(9)};
  ValuationEnumerator::Options options;
  options.candidate_overrides = &overrides;
  options.symmetry_break_fresh = false;
  // x: 4 candidates; y: forced to the single override.
  EXPECT_EQ(CountTotals(t, adom, options), 4u);
}

TEST_F(ValuationSearchTest, CallerPruneCutsSubtrees) {
  TableauQuery t = Tableau("Q(x) :- R(x, y).");
  ActiveDomain adom = ActiveDomain::Build({Value::Int(1), Value::Int(2)}, 0);
  ValuationEnumerator::Options options;
  options.interner = &interner_;
  ValuationEnumerator enumerator(&t, &adom, options);
  size_t totals = 0;
  ASSERT_TRUE(enumerator
                  .EnumerateIds(
                      [](const IdValuation& partial) {
                        // Cut every subtree where x = 1.
                        std::optional<Value> x = partial.ToBindings().Get("x");
                        return x.has_value() && *x == Value::Int(1);
                      },
                      [&](const IdValuation&) {
                        ++totals;
                        return true;
                      })
                  .ok());
  EXPECT_EQ(totals, 2u);  // only x = 2 survives, with 2 choices of y
  EXPECT_GT(enumerator.stats().prunes, 0u);
}

// ---------------------------------------------------------------------------
// Brute-force oracles.

TEST(BruteForceTest, TuplePoolRespectsDomains) {
  auto schema = std::make_shared<Schema>();
  ASSERT_TRUE(schema
                  ->AddRelation(RelationSchema(
                      "B", {AttributeDef::Over("b", Domain::Boolean()),
                            AttributeDef::Inf("v")}))
                  .ok());
  std::vector<Value> universe = {Value::Int(5), Value::Int(6)};
  auto pool = AllTuplesOver(*schema, universe);
  // b ∈ {0,1}, v ∈ {5,6} → 4 tuples.
  EXPECT_EQ(pool.size(), 4u);
  for (const auto& [relation, tuple] : pool) {
    EXPECT_TRUE(tuple[0] == Value::Int(0) || tuple[0] == Value::Int(1));
  }
}

TEST(BruteForceTest, RcdpFindsMinimalCounterexample) {
  auto schema = std::make_shared<Schema>();
  ASSERT_TRUE(schema->AddRelation("S", 1).ok());
  auto master_schema = std::make_shared<Schema>();
  ASSERT_TRUE(master_schema->AddRelation("M", 1).ok());
  Database db(schema);
  Database master(master_schema);
  ASSERT_TRUE(master.Insert("M", Tuple::Ints({1})).ok());
  ASSERT_TRUE(master.Insert("M", Tuple::Ints({2})).ok());
  ConstraintSet v;
  auto ind = MakeIndToMaster(*schema, "S", {0}, "M", {0});
  ASSERT_TRUE(ind.ok());
  v.Add(*ind);
  auto q = ParseQuery("Q(x) :- S(x).", QueryLanguage::kCq);
  ASSERT_TRUE(q.ok());
  BruteForceOptions options;
  options.max_delta_tuples = 1;
  auto result = BruteForceRcdp(*q, db, master, v, options);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->complete);
  ASSERT_TRUE(result->counterexample_delta.has_value());
  EXPECT_EQ(result->counterexample_delta->TotalTuples(), 1u);
}

TEST(BruteForceTest, RcqpFindsSingletonWitness) {
  auto schema = std::make_shared<Schema>();
  ASSERT_TRUE(schema->AddRelation("S", 1).ok());
  auto master_schema = std::make_shared<Schema>();
  ASSERT_TRUE(master_schema->AddRelation("M", 1).ok());
  Database master(master_schema);
  ASSERT_TRUE(master.Insert("M", Tuple::Ints({1})).ok());
  ConstraintSet v;
  auto ind = MakeIndToMaster(*schema, "S", {0}, "M", {0});
  ASSERT_TRUE(ind.ok());
  v.Add(*ind);
  auto q = ParseQuery("Q(x) :- S(x).", QueryLanguage::kCq);
  ASSERT_TRUE(q.ok());
  BruteForceOptions options;
  options.max_database_tuples = 1;
  options.max_delta_tuples = 1;
  auto result = BruteForceRcqp(*q, schema, master, v, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->exists);
  ASSERT_TRUE(result->witness.has_value());
  // The witness is {S(1)}: the only master-allowed tuple.
  EXPECT_TRUE(result->witness->Contains("S", Tuple::Ints({1})));
}

}  // namespace
}  // namespace relcomp
