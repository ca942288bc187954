#include <gtest/gtest.h>

#include "completeness/brute_force.h"
#include "completeness/rcdp.h"
#include "completeness/rcqp.h"
#include "constraints/constraint_check.h"
#include "constraints/integrity_constraints.h"
#include "eval/query_eval.h"
#include "workload/crm_scenario.h"

namespace relcomp {
namespace {

class CrmScenarioTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto scenario = CrmScenario::Make();
    ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
    crm_ = std::make_unique<CrmScenario>(std::move(*scenario));
  }
  std::unique_ptr<CrmScenario> crm_;
};

TEST_F(CrmScenarioTest, GeneratedInstancesArePartiallyClosed) {
  auto phi0 = crm_->Phi0();
  ASSERT_TRUE(phi0.ok());
  ConstraintSet v;
  v.Add(*phi0);
  auto inds = crm_->IndConstraints();
  ASSERT_TRUE(inds.ok());
  for (const ContainmentConstraint& cc : inds->constraints()) v.Add(cc);
  auto closed = Satisfies(v, crm_->db(), crm_->master());
  ASSERT_TRUE(closed.ok()) << closed.status().ToString();
  EXPECT_TRUE(*closed);
}

TEST_F(CrmScenarioTest, ScalesWithOptions) {
  CrmOptions options;
  options.num_domestic = 10;
  options.num_international = 5;
  options.num_employees = 4;
  options.support_per_employee = 3;
  auto big = CrmScenario::Make(options);
  ASSERT_TRUE(big.ok());
  EXPECT_EQ(big->master().Get("DCust").size(), 10u);
  EXPECT_EQ(big->db().Get("Cust").size(), 15u);
  EXPECT_EQ(big->db().Get("Supt").size(), 12u);
}

TEST_F(CrmScenarioTest, QueriesEvaluate) {
  for (auto query : {crm_->Q0(), crm_->Q1(), crm_->Q2(), crm_->Q3Cq(),
                     crm_->Q3Datalog(), crm_->Q4()}) {
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    auto answer = Evaluate(*query, crm_->db());
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  }
}

TEST_F(CrmScenarioTest, Q3DatalogComputesManagementChain) {
  auto q3 = crm_->Q3Datalog();
  ASSERT_TRUE(q3.ok());
  auto answer = Evaluate(*q3, crm_->db());
  ASSERT_TRUE(answer.ok());
  // The chain has manage_chain - 1 people above e0.
  EXPECT_EQ(answer->size(), crm_->options().manage_chain - 1);
}

// Section 2.3 paradigm (1): assessing the completeness of the data.
TEST_F(CrmScenarioTest, Paradigm1AssessCompleteness) {
  auto q0 = crm_->Q0();
  ASSERT_TRUE(q0.ok());
  auto phi0 = crm_->Phi0();
  ASSERT_TRUE(phi0.ok());
  ConstraintSet v;
  v.Add(*phi0);
  // Q0 asks over Cust alone; nothing bounds Cust rows with fresh cids,
  // so D is not complete for Q0.
  auto result = DecideRcdp(*q0, crm_->db(), crm_->master(), v);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->complete);
}

// Section 2.3 paradigm (2): guidance for what data to collect — the
// chase yields a concrete extension; paradigm (3): when no complete
// database exists, the master data itself must grow.
TEST_F(CrmScenarioTest, Paradigm3MasterDataMustGrow) {
  auto q0 = crm_->Q0();
  ASSERT_TRUE(q0.ok());
  auto phi0 = crm_->Phi0();
  ASSERT_TRUE(phi0.ok());
  ConstraintSet v;
  v.Add(*phi0);
  // RCQP: no partially closed database is complete for Q0 — the head
  // variable (cid of Cust) is not IND-bounded by φ0 (which constrains
  // only supported domestic customers via the Cust ⋈ Supt join, not
  // Cust alone) — so the master data must be expanded.
  RcqpOptions options;
  options.max_witness_tuples = 1;
  options.max_pool_size = 512;
  auto result =
      DecideRcqp(*q0, crm_->db_schema(), crm_->master(), v, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->exists);

  // Expanding the master coverage to bound Cust's (cid, name) pair
  // (an IND π_{cid,name}(Cust) ⊆ π_{cid,name}(DCust)) bounds both head
  // variables of Q0 — now a relatively complete database exists. Note
  // that bounding cid alone would NOT suffice: Q0 also returns the
  // name, which fresh values could keep pumping.
  ConstraintSet expanded;
  auto cust_ind =
      MakeIndToMaster(*crm_->db_schema(), "Cust", {0, 1}, "DCust", {0, 1});
  ASSERT_TRUE(cust_ind.ok());
  expanded.Add(*cust_ind);
  auto with_master = DecideRcqp(*q0, crm_->db_schema(), crm_->master(),
                                expanded, options);
  ASSERT_TRUE(with_master.ok()) << with_master.status().ToString();
  EXPECT_TRUE(with_master->exists);

  ConstraintSet cid_only;
  auto cid_ind =
      MakeIndToMaster(*crm_->db_schema(), "Cust", {0}, "DCust", {0});
  ASSERT_TRUE(cid_ind.ok());
  cid_only.Add(*cid_ind);
  auto still_missing = DecideRcqp(*q0, crm_->db_schema(), crm_->master(),
                                  cid_only, options);
  ASSERT_TRUE(still_missing.ok());
  EXPECT_FALSE(still_missing->exists);
}

// Example 1.1's Q3 observation: completeness is relative to the query
// language. Under the IND Manage ⊆ Managem, the CQ version of Q3 is
// complete on D = Managem-mirror, and the bounded brute force agrees
// that the datalog version is complete too (Manage cannot grow beyond
// Managem, and Managem's chain is already in D).
TEST_F(CrmScenarioTest, Q3LanguageRelativity) {
  auto inds = crm_->IndConstraints();
  ASSERT_TRUE(inds.ok());
  ConstraintSet v;
  v.Add(inds->constraints()[1]);  // Manage ⊆ Managem

  auto q3cq = crm_->Q3Cq();
  ASSERT_TRUE(q3cq.ok());
  auto cq_result = DecideRcdp(*q3cq, crm_->db(), crm_->master(), v);
  ASSERT_TRUE(cq_result.ok());
  EXPECT_TRUE(cq_result->complete);

  auto q3fp = crm_->Q3Datalog();
  ASSERT_TRUE(q3fp.ok());
  // The decider refuses FP (undecidable cell) ...
  auto refused = DecideRcdp(*q3fp, crm_->db(), crm_->master(), v);
  EXPECT_EQ(refused.status().code(), StatusCode::kUnsupported);
  // ... but definition-chasing over the bounded space demonstrates the
  // claim: D ⊇ Managem is complete for the datalog query since Manage
  // is capped by master data.
  BruteForceOptions bf;
  bf.max_delta_tuples = 1;
  // Restrict the value universe to the management ids (plus one fresh
  // value) — the full constant universe makes the 5-ary Cust tuple
  // space explode, and Q3 only reads Manage anyway.
  bf.universe = {Value::Str("e0"), Value::Str("e1"), Value::Str("e2"),
                 Value::Str("ghost")};
  auto brute =
      BruteForceRcdp(*q3fp, crm_->db(), crm_->master(), v, bf);
  ASSERT_TRUE(brute.ok()) << brute.status().ToString();
  EXPECT_TRUE(brute->complete);
}

// The paper's contrast: WITHOUT the transitive closure materialized in
// Manage, the CQ Q3 misses indirect reports while datalog does not —
// seen directly on answers.
TEST_F(CrmScenarioTest, TransitiveClosureContrast) {
  auto q3cq = crm_->Q3Cq();
  auto q3fp = crm_->Q3Datalog();
  ASSERT_TRUE(q3cq.ok());
  ASSERT_TRUE(q3fp.ok());
  auto cq_answer = Evaluate(*q3cq, crm_->db());
  auto fp_answer = Evaluate(*q3fp, crm_->db());
  ASSERT_TRUE(cq_answer.ok());
  ASSERT_TRUE(fp_answer.ok());
  // Chain e2 -> e1 -> e0: CQ sees only e1; datalog sees e1 and e2.
  EXPECT_EQ(cq_answer->size(), 1u);
  EXPECT_EQ(fp_answer->size(), 2u);
  EXPECT_TRUE(cq_answer->IsSubsetOf(*fp_answer));
}

}  // namespace
}  // namespace relcomp
