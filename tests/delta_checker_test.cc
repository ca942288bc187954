#include <gtest/gtest.h>

#include "completeness/brute_force.h"
#include "completeness/rcdp.h"
#include "completeness/rcqp.h"
#include "constraints/constraint_check.h"
#include "constraints/integrity_constraints.h"
#include "query/parser.h"
#include "spec/spec_parser.h"
#include "util/str.h"
#include "workload/generators.h"

namespace relcomp {
namespace {

class DeltaCheckerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db_schema = std::make_shared<Schema>();
    ASSERT_TRUE(db_schema->AddRelation("R", 2).ok());
    ASSERT_TRUE(db_schema->AddRelation("S", 1).ok());
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

TEST_F(DeltaCheckerTest, AgreesWithFullCheckOnSingleDeltas) {
  ASSERT_TRUE(master_.Insert("M", Tuple::Ints({1})).ok());
  ASSERT_TRUE(db_.Insert("R", Tuple::Ints({1, 2})).ok());
  ConstraintSet v;
  auto ind = MakeIndToMaster(*db_schema_, "R", {0}, "M", {0});
  ASSERT_TRUE(ind.ok());
  v.Add(*ind);
  auto pair_cc = ParseConjunctiveQuery(
      "amo() :- R(x, y1), R(x, y2), y1 != y2.");
  ASSERT_TRUE(pair_cc.ok());
  v.Add(ContainmentConstraint::SubsetOfEmpty(AnyQuery::Cq(*pair_cc)));

  auto checker = DeltaConstraintChecker::Make(v, db_schema_, master_);
  ASSERT_TRUE(checker.ok()) << checker.status().ToString();
  auto session = checker->NewSession(db_);

  struct Case {
    Tuple tuple;
    bool expect_ok;
  };
  Case cases[] = {
      {Tuple::Ints({1, 2}), true},   // duplicate of existing: no-op
      {Tuple::Ints({1, 3}), false},  // violates the at-most-one pair CC
      {Tuple::Ints({9, 9}), false},  // 9 ∉ M: violates the IND
  };
  for (const Case& c : cases) {
    std::vector<std::pair<std::string, Tuple>> delta = {{"R", c.tuple}};
    auto incremental = session.Check(delta);
    ASSERT_TRUE(incremental.ok()) << incremental.status().ToString();
    // Reference: full re-check on a copy.
    Database extended = db_;
    extended.InsertUnchecked("R", c.tuple);
    auto full = Satisfies(v, extended, master_);
    ASSERT_TRUE(full.ok());
    EXPECT_EQ(*incremental, *full) << c.tuple.ToString();
    EXPECT_EQ(*incremental, c.expect_ok) << c.tuple.ToString();
  }
}

TEST_F(DeltaCheckerTest, SessionRollsBackBetweenChecks) {
  ASSERT_TRUE(master_.Insert("M", Tuple::Ints({1})).ok());
  ConstraintSet v;
  auto ind = MakeIndToMaster(*db_schema_, "R", {0}, "M", {0});
  ASSERT_TRUE(ind.ok());
  v.Add(*ind);
  auto checker = DeltaConstraintChecker::Make(v, db_schema_, master_);
  ASSERT_TRUE(checker.ok());
  auto session = checker->NewSession(db_);
  // A violating delta must not leak into the next check.
  std::vector<std::pair<std::string, Tuple>> bad = {
      {"R", Tuple::Ints({9, 9})}};
  auto first = session.Check(bad);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(*first);
  std::vector<std::pair<std::string, Tuple>> good = {
      {"R", Tuple::Ints({1, 1})}};
  auto second = session.Check(good);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(*second);
  // And repeating the same good delta still works (state restored).
  auto third = session.Check(good);
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(*third);
}

TEST_F(DeltaCheckerTest, RefusesUndecidableConstraintLanguages) {
  ConditionalInd cind("R", {0}, {}, "S", {0}, {});
  auto fo_cc = cind.ToContainmentConstraint(*db_schema_);
  ASSERT_TRUE(fo_cc.ok());
  ConstraintSet v;
  v.Add(*fo_cc);
  auto checker = DeltaConstraintChecker::Make(v, db_schema_, master_);
  EXPECT_FALSE(checker.ok());
}

TEST(DeltaCheckerAliasTest, RefusesARelationNamedLikeTheDeltaAlias) {
  // Identifiers may contain '$', so a schema can declare R$ccdelta
  // beside R. The checker stages R's new tuples under that name as a
  // virtual relation of the overlay, which would shadow the real one;
  // the checker and both deciders refuse such a schema instead, for a
  // CQ constraint set and for an IND set alike.
  for (const char* constraint :
       {"constraint q0(c) :- Supt(e, d, c), Supt$ccdelta(e, d, c) |= "
        "DCust[0]",
        "constraint q0(c) :- Supt(e, d, c) |= DCust[0]"}) {
    SCOPED_TRACE(constraint);
    const std::string text = StrCat(R"(
relation Supt(eid, dept, cid)
relation Supt$ccdelta(eid, dept, cid)
master relation DCust(cid)
master fact DCust("c0")
fact Supt("e0", "d0", "c0")
query cq Q(c) :- Supt(e, d, c)
)", constraint, "\n");
    auto spec = ParseCompletenessSpec(text);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();

    auto checker = DeltaConstraintChecker::Make(
        spec->constraints, spec->db.schema_ptr(), spec->master);
    ASSERT_FALSE(checker.ok());
    EXPECT_EQ(checker.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(checker.status().message(),
              "duplicate relation schema: Supt$ccdelta");

    auto decided = DecideRcdp(spec->queries[0], spec->db, spec->master,
                              spec->constraints);
    ASSERT_FALSE(decided.ok());
    EXPECT_EQ(decided.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(decided.status().message(),
              "duplicate relation schema: Supt$ccdelta");

    auto rcqp = DecideRcqp(spec->queries[0], spec->db_schema, spec->master,
                           spec->constraints);
    ASSERT_FALSE(rcqp.ok());
    EXPECT_EQ(rcqp.status().message(),
              "duplicate relation schema: Supt$ccdelta");
  }
}

/// Every one- and two-tuple delta over `universe`: a session over `base`
/// agrees with a full check of the extended copy. RCQP stages all of
/// μ(T) at once over ∅, so multi-tuple deltas matter.
void ExpectSessionAgreesWithFullCheck(const ConstraintSet& v,
                                      const Database& base,
                                      const Database& master,
                                      const std::vector<Value>& universe) {
  auto closed = Satisfies(v, base, master);
  ASSERT_TRUE(closed.ok());
  ASSERT_TRUE(*closed) << "the base must be partially closed";
  auto checker = DeltaConstraintChecker::Make(v, base.schema_ptr(), master);
  ASSERT_TRUE(checker.ok()) << checker.status().ToString();
  auto session = checker->NewSession(base);
  auto pool = AllTuplesOver(base.schema(), universe);
  for (size_t i = 0; i < pool.size(); ++i) {
    for (size_t j = i; j < pool.size(); ++j) {
      // j == i is the one-tuple delta {pool[i]}.
      std::vector<std::pair<std::string, Tuple>> delta = {pool[i]};
      if (j != i) delta.push_back(pool[j]);
      auto incremental = session.Check(delta);
      ASSERT_TRUE(incremental.ok()) << incremental.status().ToString();
      Database extended = base;
      for (const auto& [relation, tuple] : delta) {
        extended.InsertUnchecked(relation, tuple);
      }
      auto full = Satisfies(v, extended, master);
      ASSERT_TRUE(full.ok());
      ASSERT_EQ(*incremental, *full)
          << extended.ToString() << "\n" << v.ToString();
    }
  }
}

TEST_F(DeltaCheckerTest, RandomAgreementSweep) {
  Rng rng(2024);
  RandomInstanceOptions options;
  options.num_relations = 2;
  options.value_pool = 3;
  options.tuples_per_relation = 3;
  RandomCqOptions cq_options;
  cq_options.num_variables = 2;
  cq_options.num_head_terms = 1;
  cq_options.value_pool = 2;
  for (int round = 0; round < 10; ++round) {
    SCOPED_TRACE(round);
    auto schema = RandomSchema(options, &rng);
    auto master_schema = std::make_shared<Schema>();
    ASSERT_TRUE(master_schema->AddRelation("M", 1).ok());
    Database master(master_schema);
    master.InsertUnchecked("M", Tuple::Ints({0}));
    master.InsertUnchecked("M", Tuple::Ints({1}));
    // The empty base satisfies every IND and every CQ constraint whose
    // query has a relation atom.
    Database base(schema);
    auto inds = RandomIndConstraints(*schema, *master_schema, 2, &rng);
    ASSERT_TRUE(inds.ok());
    ExpectSessionAgreesWithFullCheck(*inds, base, master,
                                     {Value::Int(0), Value::Int(5)});
    // A CQ set: a random join projected into M, and a random join that
    // must stay empty.
    ConstraintSet cqs;
    cqs.Add(ContainmentConstraint::Subset(
        AnyQuery::Cq(RandomCq(*schema, cq_options, &rng)), "M", {0}));
    RandomCqOptions empty_options = cq_options;
    empty_options.num_head_terms = 0;
    empty_options.disequality_pct = 100;
    cqs.Add(ContainmentConstraint::SubsetOfEmpty(
        AnyQuery::Cq(RandomCq(*schema, empty_options, &rng))));
    ExpectSessionAgreesWithFullCheck(cqs, base, master,
                                     {Value::Int(0), Value::Int(1)});
  }
}

}  // namespace
}  // namespace relcomp
