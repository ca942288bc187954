#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <vector>

#include "completeness/brute_force.h"
#include "completeness/rcdp.h"
#include "constraints/integrity_constraints.h"
#include "eval/query_eval.h"
#include "query/parser.h"
#include "util/str.h"
#include "workload/crm_scenario.h"
#include "workload/generators.h"

namespace relcomp {
namespace {

// ---------------------------------------------------------------------------
// The paper's worked examples (Examples 1.1, 2.2, 3.1).

class CrmRcdpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto scenario = CrmScenario::Make();
    ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
    crm_ = std::make_unique<CrmScenario>(std::move(*scenario));
  }
  std::unique_ptr<CrmScenario> crm_;
};

TEST_F(CrmRcdpTest, Q1CompleteOnceAllMasterCustomersAreSupported) {
  // Example 2.2: with φ0, D is complete for Q1 provided the answer
  // covers all 908-area master customers. The generated D supports only
  // some customers, so initially Q1 is incomplete; the chase closes it.
  auto q1 = crm_->Q1();
  ASSERT_TRUE(q1.ok());
  auto phi0 = crm_->Phi0();
  ASSERT_TRUE(phi0.ok());
  ConstraintSet v;
  v.Add(*phi0);

  auto before =
      DecideRcdp(*q1, crm_->db(), crm_->master(), v);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_FALSE(before->complete);
  ASSERT_TRUE(before->counterexample_delta.has_value());
  ASSERT_TRUE(before->new_answer.has_value());

  auto completed =
      ChaseToCompleteness(*q1, crm_->db(), crm_->master(), v, 32);
  ASSERT_TRUE(completed.ok()) << completed.status().ToString();
  ASSERT_EQ(completed->verdict, Verdict::kComplete) << completed->ToString();
  auto after = DecideRcdp(*q1, completed->db, crm_->master(), v);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->complete);
  // φ0 bounds only the cid attribute, so partially closed extensions
  // may pair any master customer with area code 908 — the complete
  // answer covers all domestic master customers, not just those whose
  // master record says 908. (Bounding (cid, ac) jointly would shrink
  // this to 2; see the master_data_design example.)
  auto answer = Evaluate(*q1, completed->db);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->size(), crm_->options().num_domestic);
}

TEST_F(CrmRcdpTest, Q2IncompleteWithoutConstraints) {
  // Q2 (customers of e0) over unconstrained Supt: always incomplete.
  auto q2 = crm_->Q2();
  ASSERT_TRUE(q2.ok());
  ConstraintSet empty;
  auto result = DecideRcdp(*q2, crm_->db(), crm_->master(), empty);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->complete);
}

TEST_F(CrmRcdpTest, Phi1MakesQ2CompleteAtTheKBound) {
  // Example 3.1 / D1: when e0 already supports k distinct customers,
  // the at-most-k constraint blocks further additions — complete.
  auto q2 = crm_->Q2();
  ASSERT_TRUE(q2.ok());
  const size_t k = 2;  // the generator gives e0 exactly 2 customers
  auto phi1 = crm_->Phi1(k);
  ASSERT_TRUE(phi1.ok());
  ConstraintSet v;
  v.Add(*phi1);
  auto answer = Evaluate(*q2, crm_->db());
  ASSERT_TRUE(answer.ok());
  ASSERT_EQ(answer->size(), k);
  auto result = DecideRcdp(*q2, crm_->db(), crm_->master(), v);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->complete);

  // With a looser bound (k+1) the same database is incomplete again.
  auto phi1_loose = crm_->Phi1(k + 1);
  ASSERT_TRUE(phi1_loose.ok());
  ConstraintSet v_loose;
  v_loose.Add(*phi1_loose);
  auto loose = DecideRcdp(*q2, crm_->db(), crm_->master(), v_loose);
  ASSERT_TRUE(loose.ok());
  EXPECT_FALSE(loose->complete);
}

TEST_F(CrmRcdpTest, FdMakesQ2CompleteWhenNonempty) {
  // Example 3.1 / D2: under the FD eid → dept, cid (compiled to CCs),
  // a nonempty answer for e0 pins every Supt tuple of e0 — complete.
  auto q2 = crm_->Q2();
  ASSERT_TRUE(q2.ok());
  auto sigma2 = crm_->FdSigma2();
  ASSERT_TRUE(sigma2.ok());

  // The generated D violates the FD only if e0 supports two customers;
  // build a custom D with exactly one Supt tuple for e0.
  Database db(crm_->db_schema());
  ASSERT_TRUE(
      db.Insert("Supt", Tuple({Value::Str("e0"), Value::Str("d0"),
                               Value::Str("c0")}))
          .ok());
  auto complete = DecideRcdp(*q2, db, crm_->master(), *sigma2);
  ASSERT_TRUE(complete.ok()) << complete.status().ToString();
  EXPECT_TRUE(complete->complete);

  // With an empty answer the FD gives no protection (the paper's D2).
  Database empty_db(crm_->db_schema());
  auto incomplete = DecideRcdp(*q2, empty_db, crm_->master(), *sigma2);
  ASSERT_TRUE(incomplete.ok());
  EXPECT_FALSE(incomplete->complete);
}

TEST_F(CrmRcdpTest, Q3CqIncompleteUntilTransitiveClosure) {
  // Example 1.1 / Q3: Manage ⊇ Managem via IND; the CQ "direct
  // managers of e0" is complete only because e0's direct managers are
  // bounded... here the IND bounds Manage by Managem, so D = Managem
  // is complete for the CQ.
  auto q3 = crm_->Q3Cq();
  ASSERT_TRUE(q3.ok());
  auto inds = crm_->IndConstraints();
  ASSERT_TRUE(inds.ok());
  // Keep only the Manage ⊆ Managem IND.
  ConstraintSet v;
  v.Add(inds->constraints()[1]);
  auto result = DecideRcdp(*q3, crm_->db(), crm_->master(), v);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->complete);
}

TEST_F(CrmRcdpTest, UndecidableLanguagesAreRefused) {
  auto q3 = crm_->Q3Datalog();
  ASSERT_TRUE(q3.ok());
  ConstraintSet empty;
  auto fp_result = DecideRcdp(*q3, crm_->db(), crm_->master(), empty);
  EXPECT_EQ(fp_result.status().code(), StatusCode::kUnsupported);

  auto fo = ParseFoQuery("Q(x) := exists d, c. (Supt(x, d, c) & !Manage(x, x))");
  ASSERT_TRUE(fo.ok());
  auto fo_result = DecideRcdp(AnyQuery::Fo(*fo), crm_->db(), crm_->master(),
                              empty);
  EXPECT_EQ(fo_result.status().code(), StatusCode::kUnsupported);
}

TEST_F(CrmRcdpTest, RejectsNonPartiallyClosedInput) {
  auto q1 = crm_->Q1();
  ASSERT_TRUE(q1.ok());
  auto inds = crm_->IndConstraints();
  ASSERT_TRUE(inds.ok());
  Database db = crm_->db();
  // A supported customer that is not in DCust violates the IND.
  ASSERT_TRUE(db.Insert("Supt", Tuple({Value::Str("e0"), Value::Str("d0"),
                                       Value::Str("ghost")}))
                  .ok());
  auto result = DecideRcdp(*q1, db, crm_->master(), *inds);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// A set of INDs goes through the one delta session like any other set:
// matches through Δ = μ(T) \ D alone, which for INDs is Corollary 3.4's
// check of μ(T). The decision points and evidence are pinned to those
// of the dedicated IND path the session replaced (CRM n = 16).
TEST(IndOnlyRcdpTest, DecisionPointsAndEvidenceArePinned) {
  CrmOptions crm_options;
  crm_options.num_domestic = 16;
  crm_options.num_international = 8;
  auto crm = CrmScenario::Make(crm_options);
  ASSERT_TRUE(crm.ok()) << crm.status().ToString();
  auto inds = crm->IndConstraints();
  ASSERT_TRUE(inds.ok());
  struct Case {
    const char* name;
    Result<AnyQuery> query;
    size_t points;
    const char* delta;
    const char* answer;
  };
  const Case cases[] = {
      {"Q1", crm->Q1(), 210,
       "Cust = {(\"c1\", \"n0\", \"01\", \"908\", \"555-1000\")}\n",
       "(\"c1\")"},
      {"Q2", crm->Q2(), 209, "Supt = {(\"e0\", \"d0\", \"c10\")}\n",
       "(\"c10\")"},
  };
  for (const Case& c : cases) {
    ASSERT_TRUE(c.query.ok());
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      SCOPED_TRACE(StrCat(c.name, " at ", threads, " threads"));
      ExecutionBudget budget;
      budget.set_max_steps(size_t{1} << 40);
      RcdpOptions options;
      options.num_threads = threads;
      options.budget = &budget;
      auto r = DecideRcdp(*c.query, crm->db(), crm->master(), *inds, options);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ASSERT_EQ(r->verdict, Verdict::kIncomplete);
      EXPECT_EQ(r->counterexample_delta->ToString(), c.delta);
      EXPECT_EQ(r->new_answer->ToString(), c.answer);
      if (threads == 1) {
        EXPECT_EQ(budget.steps(), c.points);
      } else {
        // Every unit below the winner runs to exhaustion and the winner
        // stops where the serial search does; units above it claim a
        // schedule-dependent share before they are cancelled.
        EXPECT_GE(budget.steps(), c.points);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Small hand-built cases exercising the characterizations directly.

class SmallRcdpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db_schema = std::make_shared<Schema>();
    ASSERT_TRUE(db_schema->AddRelation("R", 2).ok());
    db_schema_ = db_schema;
    auto master_schema = std::make_shared<Schema>();
    ASSERT_TRUE(master_schema->AddRelation("M", 1).ok());
    master_schema_ = master_schema;
    db_ = Database(db_schema_);
    master_ = Database(master_schema_);
  }

  std::shared_ptr<const Schema> db_schema_;
  std::shared_ptr<const Schema> master_schema_;
  Database db_;
  Database master_;
};

TEST_F(SmallRcdpTest, IndBoundedColumnYieldsCompleteness) {
  // V: π0(R) ⊆ M; M = {1}; D = {R(1, 5)}. Q(x) :- R(x, y): the first
  // column is exhausted... but y is free, so new tuples R(1, fresh)
  // still change Q(x, y). With Q(x) alone, (1) is already the answer
  // and any addition keeps Q = {1} — complete.
  ASSERT_TRUE(master_.Insert("M", Tuple::Ints({1})).ok());
  ASSERT_TRUE(db_.Insert("R", Tuple::Ints({1, 5})).ok());
  ConstraintSet v;
  auto ind = MakeIndToMaster(*db_schema_, "R", {0}, "M", {0});
  ASSERT_TRUE(ind.ok());
  v.Add(*ind);

  auto q = ParseQuery("Q(x) :- R(x, y).", QueryLanguage::kCq);
  ASSERT_TRUE(q.ok());
  auto complete = DecideRcdp(*q, db_, master_, v);
  ASSERT_TRUE(complete.ok()) << complete.status().ToString();
  EXPECT_TRUE(complete->complete);

  auto q_xy = ParseQuery("Q(x, y) :- R(x, y).", QueryLanguage::kCq);
  ASSERT_TRUE(q_xy.ok());
  auto incomplete = DecideRcdp(*q_xy, db_, master_, v);
  ASSERT_TRUE(incomplete.ok());
  EXPECT_FALSE(incomplete->complete);
}

TEST_F(SmallRcdpTest, EmptyAnswerIsCompleteOnlyIfBlocked) {
  // Q(x) :- R(x, x); D = ∅. With no constraints, adding R(a, a) changes
  // the answer — incomplete. With π0(R) ⊆ M and empty M, nothing can
  // ever be added — complete.
  auto q = ParseQuery("Q(x) :- R(x, x).", QueryLanguage::kCq);
  ASSERT_TRUE(q.ok());
  ConstraintSet none;
  auto incomplete = DecideRcdp(*q, db_, master_, none);
  ASSERT_TRUE(incomplete.ok());
  EXPECT_FALSE(incomplete->complete);

  ConstraintSet v;
  auto ind = MakeIndToMaster(*db_schema_, "R", {0}, "M", {0});
  ASSERT_TRUE(ind.ok());
  v.Add(*ind);
  auto complete = DecideRcdp(*q, db_, master_, v);
  ASSERT_TRUE(complete.ok());
  EXPECT_TRUE(complete->complete);
}

TEST_F(SmallRcdpTest, UnsatisfiableQueryIsTriviallyComplete) {
  auto q = ParseQuery("Q(x) :- R(x, y), x = 1, x = 2.", QueryLanguage::kCq);
  ASSERT_TRUE(q.ok());
  ConstraintSet none;
  auto result = DecideRcdp(*q, db_, master_, none);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->complete);
}

TEST_F(SmallRcdpTest, BooleanQueryCompleteOnceTrue) {
  auto q = ParseQuery("Q() :- R(x, y).", QueryLanguage::kCq);
  ASSERT_TRUE(q.ok());
  ConstraintSet none;
  auto incomplete = DecideRcdp(*q, db_, master_, none);
  ASSERT_TRUE(incomplete.ok());
  EXPECT_FALSE(incomplete->complete);  // ∅ can still flip to true
  ASSERT_TRUE(db_.Insert("R", Tuple::Ints({1, 2})).ok());
  auto complete = DecideRcdp(*q, db_, master_, none);
  ASSERT_TRUE(complete.ok());
  EXPECT_TRUE(complete->complete);  // monotone Boolean query, already true
}

TEST_F(SmallRcdpTest, UcqAndPositiveDispatch) {
  ASSERT_TRUE(master_.Insert("M", Tuple::Ints({1})).ok());
  ConstraintSet v;
  auto ind = MakeIndToMaster(*db_schema_, "R", {0}, "M", {0});
  ASSERT_TRUE(ind.ok());
  v.Add(*ind);
  ASSERT_TRUE(db_.Insert("R", Tuple::Ints({1, 1})).ok());

  auto ucq = ParseQuery("Q(x) :- R(x, y).\nQ(x) :- R(y, x), x = 1.",
                        QueryLanguage::kUcq);
  ASSERT_TRUE(ucq.ok());
  auto r1 = DecideRcdp(*ucq, db_, master_, v);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_TRUE(r1->complete);

  auto positive = ParseQuery("Q(x) := exists y. (R(x, y) | R(y, x) & x = 1)",
                             QueryLanguage::kPositive);
  ASSERT_TRUE(positive.ok());
  auto r2 = DecideRcdp(*positive, db_, master_, v);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_TRUE(r2->complete);
}

TEST_F(SmallRcdpTest, CounterexampleIsGenuine) {
  // Whenever the decider says incomplete, the returned Δ must satisfy V
  // and change the answer — verified by direct evaluation.
  ASSERT_TRUE(master_.Insert("M", Tuple::Ints({1})).ok());
  ASSERT_TRUE(master_.Insert("M", Tuple::Ints({2})).ok());
  ASSERT_TRUE(db_.Insert("R", Tuple::Ints({1, 1})).ok());
  ConstraintSet v;
  auto ind = MakeIndToMaster(*db_schema_, "R", {0}, "M", {0});
  ASSERT_TRUE(ind.ok());
  v.Add(*ind);
  auto q = ParseQuery("Q(x) :- R(x, y).", QueryLanguage::kCq);
  ASSERT_TRUE(q.ok());
  auto result = DecideRcdp(*q, db_, master_, v);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->complete);
  Database extended = db_;
  extended.UnionWith(*result->counterexample_delta);
  auto closed = Satisfies(v, extended, master_);
  ASSERT_TRUE(closed.ok());
  EXPECT_TRUE(*closed);
  auto before = Evaluate(*q, db_);
  auto after = Evaluate(*q, extended);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(after.ok());
  EXPECT_NE(*before, *after);
  EXPECT_TRUE(after->Contains(*result->new_answer));
  EXPECT_FALSE(before->Contains(*result->new_answer));
}

// ---------------------------------------------------------------------------
// Ablation configurations: every configuration bench_ablation times must
// reach the default's verdict, with genuine evidence.

struct NamedOptions {
  const char* name;
  RcdpOptions options;
};

/// The default, each decider toggle off alone, and the paper-literal
/// algorithm (prune, collapse and indexes all off).
std::vector<NamedOptions> AblationConfigs(size_t num_threads) {
  std::vector<NamedOptions> configs;
  auto add = [&](const char* name, std::vector<bool RcdpOptions::*> off) {
    RcdpOptions options;
    options.num_threads = num_threads;
    for (bool RcdpOptions::*toggle : off) options.*toggle = false;
    configs.push_back({name, options});
  };
  add("default", {});
  add("no_prune", {&RcdpOptions::prune});
  add("no_collapse", {&RcdpOptions::collapse_dont_care});
  add("no_indexes", {&RcdpOptions::use_indexes});
  add("no_arena", {&RcdpOptions::use_arena});
  add("paper_literal",
      {&RcdpOptions::prune, &RcdpOptions::collapse_dont_care,
       &RcdpOptions::use_indexes});
  return configs;
}

/// A kIncomplete verdict's evidence is genuine: Δ is new, (D ∪ Δ, Dm)
/// satisfies V, and the new answer is in Q(D ∪ Δ) but not in Q(D).
void ExpectGenuineEvidence(const AnyQuery& q, const Database& db,
                           const Database& master, const ConstraintSet& v,
                           const RcdpResult& result) {
  if (result.verdict != Verdict::kIncomplete) return;
  ASSERT_TRUE(result.counterexample_delta.has_value());
  ASSERT_TRUE(result.new_answer.has_value());
  Database extended = db;
  for (const std::string& name : db.schema().relation_names()) {
    for (const Tuple& t : result.counterexample_delta->Get(name)) {
      EXPECT_FALSE(db.Contains(name, t)) << name << t.ToString();
      extended.InsertUnchecked(name, t);
    }
  }
  auto closed = Satisfies(v, extended, master);
  ASSERT_TRUE(closed.ok()) << closed.status().ToString();
  EXPECT_TRUE(*closed) << "Δ breaks V";
  auto before = Evaluate(q, db);
  auto after = Evaluate(q, extended);
  ASSERT_TRUE(before.ok() && after.ok());
  EXPECT_TRUE(after->Contains(*result.new_answer));
  EXPECT_FALSE(before->Contains(*result.new_answer));
}

/// Every ablation configuration agrees with the default on one instance
/// and returns genuine evidence; `check` (may be null) sees each result.
/// Returns the default's verdict.
Verdict ExpectConfigsAgree(
    const AnyQuery& q, const Database& db, const Database& master,
    const ConstraintSet& v, size_t num_threads,
    const std::function<void(const RcdpResult&)>& check = nullptr) {
  std::optional<Verdict> expected;
  for (const NamedOptions& config : AblationConfigs(num_threads)) {
    SCOPED_TRACE(StrCat(config.name, " at num_threads=", num_threads));
    auto decided = DecideRcdp(q, db, master, v, config.options);
    EXPECT_TRUE(decided.ok()) << decided.status().ToString();
    if (!decided.ok()) continue;
    EXPECT_NE(decided->verdict, Verdict::kUnknown);
    if (!expected.has_value()) expected = decided->verdict;
    EXPECT_EQ(decided->verdict, *expected);
    ExpectGenuineEvidence(q, db, master, v, *decided);
    if (check) check(*decided);
  }
  return expected.value_or(Verdict::kUnknown);
}

// Named "Parallel…" so the tsan preset's filter runs it: every
// configuration, paper-literal included, runs the parallel search.
class ParallelAblationTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    // The instance bench_ablation times.
    CrmOptions options;
    options.num_domestic = 2;
    options.num_international = 0;
    options.num_employees = 1;
    options.support_per_employee = 1;
    options.manage_chain = 2;
    auto scenario = CrmScenario::Make(options);
    ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
    crm_ = std::make_unique<CrmScenario>(std::move(*scenario));
  }
  std::unique_ptr<CrmScenario> crm_;
};

TEST_P(ParallelAblationTest, Q1UnderPhi0AgreesAcrossConfigs) {
  // φ0 is a CQ constraint: the delta session and the collapse both run.
  auto q1 = crm_->Q1();
  auto phi0 = crm_->Phi0();
  ASSERT_TRUE(q1.ok() && phi0.ok());
  ConstraintSet v;
  v.Add(*phi0);
  EXPECT_EQ(ExpectConfigsAgree(*q1, crm_->db(), crm_->master(), v,
                               GetParam()),
            Verdict::kIncomplete);
}

TEST_P(ParallelAblationTest, Q2UnderPhi1AgreesAcrossConfigs) {
  auto q2 = crm_->Q2();
  auto phi1 = crm_->Phi1(2);
  ASSERT_TRUE(q2.ok() && phi1.ok());
  ConstraintSet v;
  v.Add(*phi1);
  EXPECT_EQ(ExpectConfigsAgree(*q2, crm_->db(), crm_->master(), v,
                               GetParam()),
            Verdict::kIncomplete);
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelAblationTest,
                         ::testing::Values(size_t{1}, size_t{4}));

// ---------------------------------------------------------------------------
// Property sweep: the decider agrees with the definition-chasing brute
// force on random small instances with random IND constraints, under
// every ablation configuration.

/// True when the decider's counterexample is small enough that the
/// bounded brute force must find one too (same tuple budget; fresh
/// values transfer by genericity).
bool result_fits_bound(const RcdpResult& result,
                       const BruteForceOptions& bf) {
  return result.counterexample_delta.has_value() &&
         result.counterexample_delta->TotalTuples() <= bf.max_delta_tuples;
}

class RcdpPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(RcdpPropertyTest, AgreesWithBruteForce) {
  Rng rng(GetParam());
  RandomInstanceOptions db_options;
  db_options.num_relations = 1;
  db_options.min_arity = 2;
  db_options.max_arity = 2;
  db_options.value_pool = 2;
  db_options.tuples_per_relation = 2;
  auto db_schema = RandomSchema(db_options, &rng);
  auto master_schema = std::make_shared<Schema>();
  ASSERT_TRUE(master_schema->AddRelation("M", 1).ok());

  RandomCqOptions cq_options;
  cq_options.num_atoms = 2;
  cq_options.num_variables = 2;
  cq_options.num_head_terms = 1;
  cq_options.value_pool = 2;

  int checked = 0;
  for (int attempt = 0; attempt < 40 && checked < 6; ++attempt) {
    Database db = RandomDatabase(db_schema, db_options, &rng);
    Database master(master_schema);
    std::uniform_int_distribution<int64_t> value(0, 2);
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

    BruteForceOptions bf;
    bf.extra_fresh = 2;
    bf.max_delta_tuples = 2;
    auto brute = BruteForceRcdp(q, db, master, *constraints, bf);
    ASSERT_TRUE(brute.ok()) << brute.status().ToString();

    SCOPED_TRACE(cq.ToString() + "\n" + db.ToString());
    ExpectConfigsAgree(q, db, master, *constraints, /*num_threads=*/0,
                       [&](const RcdpResult& decided) {
      // Brute force is bounded: "incomplete" verdicts are always sound,
      // so decider-complete ⇒ brute-complete. The decider is exact, so
      // brute-incomplete ⇒ decider-incomplete (same check), and
      // decider-incomplete ⇒ its Δ is genuine (within the brute bound
      // the two must then agree whenever Δ fits the bound).
      if (decided.complete) {
        EXPECT_TRUE(brute->complete);
      } else if (result_fits_bound(decided, bf)) {
        EXPECT_FALSE(brute->complete);
      }
    });
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RcdpPropertyTest, ::testing::Range(1, 13));

}  // namespace
}  // namespace relcomp
