// Id-row staging: the overlay's two entry points (Add(Tuple) and
// AddIds) stage alike, staging memory is charged by capacity, and the
// decider that stages id rows straight from the valuation search keeps
// the serial decision points, bindings and evidence.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "completeness/rcdp.h"
#include "eval/conjunctive_eval.h"
#include "query/parser.h"
#include "relational/database_overlay.h"
#include "util/execution_control.h"
#include "workload/crm_scenario.h"

namespace relcomp {
namespace {

using Staged = std::vector<std::pair<std::string, Tuple>>;

/// R(a, b), S(b) with R = {(1, 2), (3, 4)}, S = {2}.
class EvalEquivalenceStagingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto schema = std::make_shared<Schema>();
    ASSERT_TRUE(schema->AddRelation("R", 2).ok());
    ASSERT_TRUE(schema->AddRelation("S", 1).ok());
    base_ = Database(schema);
    ASSERT_TRUE(base_.Insert("R", Tuple::Ints({1, 2})).ok());
    ASSERT_TRUE(base_.Insert("R", Tuple::Ints({3, 4})).ok());
    ASSERT_TRUE(base_.Insert("S", Tuple::Ints({2})).ok());
  }

  /// Stages `delta` through Add(Tuple), and through AddIds after
  /// interning its values into the family (as ActiveDomain::Build does
  /// before a search); both must report the same new rows.
  void StageBothWays(const Staged& delta, DatabaseOverlay* by_tuple,
                     DatabaseOverlay* by_ids) {
    for (const auto& [relation, t] : delta) {
      std::vector<ValueId> row;
      for (const Value& v : t.values()) {
        row.push_back(base_.interner()->Intern(v));
      }
      const size_t slot = by_ids->Slot(relation, t.arity());
      ASSERT_NE(slot, DatabaseOverlay::kNoSlot) << relation;
      const bool added_ids = by_ids->AddIds(slot, row.data());
      EXPECT_EQ(by_tuple->Add(relation, t), added_ids)
          << relation << t.ToString();
    }
  }

  Relation Eval(const std::string& text, const DatabaseOverlay& view) {
    auto q = ParseConjunctiveQuery(text);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    auto answer = EvalConjunctive(*q, view);
    EXPECT_TRUE(answer.ok()) << answer.status().ToString();
    return *answer;
  }

  Database base_;
};

TEST_F(EvalEquivalenceStagingTest, TupleAndIdRowStagingMatchAlike) {
  const Staged delta = {
      {"R", Tuple::Ints({1, 2})},          // already in the base
      {"R", Tuple::Ints({5, 2})},          // new
      {"R", Tuple::Ints({5, 2})},          // duplicate within the delta
      {"S", Tuple::Ints({4})},             // new; joins the base's (3, 4)
      {"R$ccdelta", Tuple::Ints({7, 4})},  // virtual relation
      {"R$ccdelta", Tuple::Ints({7, 4})},
  };
  DatabaseOverlay by_tuple(&base_);
  DatabaseOverlay by_ids(&base_);
  StageBothWays(delta, &by_tuple, &by_ids);
  EXPECT_EQ(by_tuple.PendingCount(), 3u);
  EXPECT_EQ(by_ids.PendingCount(), 3u);
  EXPECT_EQ(by_ids.Pending("R$ccdelta").size(), 1u);

  for (const char* text :
       {"Q(x, y) :- R(x, y), S(y).", "Q(x) :- R$ccdelta(x, y), S(y).",
        "Q(x, z) :- R(x, y), R$ccdelta(z, y).", "Q(y) :- R(x, y), x != 5."}) {
    Relation expected = Eval(text, by_tuple);
    EXPECT_EQ(Eval(text, by_ids), expected) << text;
    EXPECT_FALSE(expected.empty()) << text;
  }
  EXPECT_EQ(by_tuple.Materialize(), by_ids.Materialize());
  EXPECT_EQ(by_ids.Materialize().Get("R").size(), 3u);

  // Clearing keeps the slots: the next candidate stages alike again.
  by_tuple.Clear();
  by_ids.Clear();
  StageBothWays({{"S", Tuple::Ints({4})}}, &by_tuple, &by_ids);
  EXPECT_EQ(Eval("Q(x) :- R(x, y), S(y).", by_ids),
            Eval("Q(x) :- R(x, y), S(y).", by_tuple));
}

TEST_F(EvalEquivalenceStagingTest, NeverInternedStagedValueJoinsAConstant) {
  // "zz" is in neither the base nor its interner: the overlay gives it
  // a synthetic id, and a query constant "zz" must resolve to the same
  // one — on a per-call run and on a bound one alike.
  const Value zz = Value::Str("zz");
  ASSERT_FALSE(base_.interner()->TryGet(zz).has_value());
  DatabaseOverlay view(&base_);
  ASSERT_TRUE(view.Add("R", Tuple({Value::Int(9), zz})));
  EXPECT_TRUE(view.IsSynthetic(view.IdOf(zz)));
  EXPECT_TRUE(view.Contains("R", Tuple({Value::Int(9), zz})));

  Relation expected(1);
  expected.Insert(Tuple::Ints({9}));
  EXPECT_EQ(Eval("Q(x) :- R(x, \"zz\").", view), expected);
  EXPECT_EQ(Eval("Q(x) :- R(x, y), y = \"zz\".", view), expected);

  auto q = ParseConjunctiveQuery("Q(x) :- R(x, \"zz\").");
  ASSERT_TRUE(q.ok());
  CompiledCq compiled(*q);
  CqBinding binding = compiled.Bind(&view);
  std::vector<Value> heads;
  ASSERT_TRUE(compiled
                  .ForEachHeadMatch(view, &binding, ConjunctiveEvalOptions(),
                                    [&](const ValueId*, const Value* const* v) {
                                      heads.push_back(*v[0]);
                                      return true;
                                    })
                  .ok());
  EXPECT_EQ(heads, std::vector<Value>{Value::Int(9)});
  // The base never learned the value.
  EXPECT_FALSE(base_.interner()->TryGet(zz).has_value());
  EXPECT_EQ(view.Materialize().Get("R").size(), 3u);
}

TEST_F(EvalEquivalenceStagingTest, StagingChargesCapacityNotRows) {
  ExecutionBudget budget;
  {
    DatabaseOverlay view(&base_);
    view.set_memory_tracker(&budget);
    const size_t slot = view.Slot("R", 2);
    std::vector<ValueId> rows;
    for (int64_t i = 10; i < 20; ++i) {
      rows.push_back(base_.interner()->Intern(Value::Int(i)));
      rows.push_back(base_.interner()->Intern(Value::Int(i + 1)));
    }
    auto stage = [&] {
      for (size_t k = 0; k < rows.size(); k += 2) {
        view.AddIds(slot, rows.data() + k);
      }
    };
    stage();
    const size_t charged = budget.tracked_bytes();
    EXPECT_GT(charged, 0u);
    EXPECT_EQ(charged, view.capacity_bytes());
    for (int cycle = 0; cycle < 1000; ++cycle) {
      view.Clear();
      stage();
      ASSERT_EQ(budget.tracked_bytes(), charged) << "cycle " << cycle;
    }
    EXPECT_EQ(view.PendingCount(), 10u);
  }
  EXPECT_EQ(budget.tracked_bytes(), 0u);
}

/// CRM Q1 under φ0 with n = 16 (the instance of DESIGN §8's "n = 16"
/// rows). The counts and the evidence were read from the decider that
/// staged Value tuples per candidate.
class ParallelIdRowDecideTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CrmOptions options;
    options.num_domestic = 16;
    options.num_international = 8;
    options.num_employees = 2;
    options.support_per_employee = 2;
    auto crm = CrmScenario::Make(options);
    ASSERT_TRUE(crm.ok()) << crm.status().ToString();
    crm_ = std::make_unique<CrmScenario>(std::move(*crm));
    auto phi0 = crm_->Phi0();
    ASSERT_TRUE(phi0.ok());
    v_.Add(*phi0);
  }

  RcdpResult Decide(size_t threads, ExecutionBudget* budget) {
    auto q1 = crm_->Q1();
    EXPECT_TRUE(q1.ok());
    RcdpOptions options;
    options.num_threads = threads;
    options.budget = budget;
    auto result = DecideRcdp(*q1, crm_->db(), crm_->master(), v_, options);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return *result;
  }

  std::unique_ptr<CrmScenario> crm_;
  ConstraintSet v_;
};

TEST_F(ParallelIdRowDecideTest, CrmQ1Phi0N16KeepsCountsAndEvidence) {
  const std::string evidence =
      "INCOMPLETE; adding Δ yields new answer (\"c1\")\nΔ =\n"
      "Cust = {(\"c1\", \"n0\", \"01\", \"908\", \"555-1000\")}\n";
  ExecutionBudget serial_budget;
  serial_budget.set_max_steps(size_t{1} << 40);
  RcdpResult serial = Decide(1, &serial_budget);
  EXPECT_EQ(serial.verdict, Verdict::kIncomplete);
  EXPECT_EQ(serial_budget.steps(), 111135u);
  EXPECT_EQ(serial.stats.bindings_tried, 56671u);
  EXPECT_EQ(serial.ToString(), evidence);
  for (size_t threads : {2, 8}) {
    ExecutionBudget budget;
    budget.set_max_steps(size_t{1} << 40);
    RcdpResult parallel = Decide(threads, &budget);
    EXPECT_EQ(parallel.verdict, Verdict::kIncomplete) << threads;
    EXPECT_EQ(parallel.ToString(), evidence) << threads;
    EXPECT_EQ(parallel.counterexample_delta, serial.counterexample_delta);
  }
}

}  // namespace
}  // namespace relcomp
