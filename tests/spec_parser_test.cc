#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "completeness/rcdp.h"
#include "constraints/constraint_check.h"
#include "eval/query_eval.h"
#include "query/parser.h"
#include "spec/spec_parser.h"
#include "util/str.h"

namespace relcomp {
namespace {

constexpr char kCrmSpec[] = R"spec(
% comment line
relation Cust(cid, name, cc, ac, phn)
relation Supt(eid, dept, cid)
master relation DCust(cid, name, ac, phn)

master fact DCust("c0", "n0", "908", "p0")   % trailing comment
master fact DCust("c1", "n1", "201", "p1")
fact Cust("c0", "n0", "01", "908", "p0")
fact Supt("e0", "d0", "c0")

constraint q0(c) :- Cust(c, n, cc, a, p), Supt(e, d, c), cc = "01" |= DCust[0]
constraint amo() :- Supt(e, d1, c1), Supt(e, d2, c2), c1 != c2 |= empty

query cq Q1(c) :- Supt(e, d, c), e = "e0"
)spec";

TEST(SpecParserTest, ParsesTheCrmSpec) {
  auto spec = ParseCompletenessSpec(kCrmSpec);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->db_schema->size(), 2u);
  EXPECT_EQ(spec->master_schema->size(), 1u);
  EXPECT_EQ(spec->db.TotalTuples(), 2u);
  EXPECT_EQ(spec->master.TotalTuples(), 2u);
  EXPECT_EQ(spec->constraints.size(), 2u);
  ASSERT_EQ(spec->queries.size(), 1u);
  EXPECT_EQ(spec->queries[0].language(), QueryLanguage::kCq);

  auto closed = Satisfies(spec->constraints, spec->db, spec->master);
  ASSERT_TRUE(closed.ok());
  EXPECT_TRUE(*closed);

  // The parsed artifacts drive the decider end to end: the at-most-one
  // constraint plus e0's existing tuple make Q1 complete (the paper's
  // Example 3.1 pattern).
  auto verdict = DecideRcdp(spec->queries[0], spec->db, spec->master,
                            spec->constraints);
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
  EXPECT_TRUE(verdict->complete);

  // Dropping the at-most-one constraint reopens the query.
  ConstraintSet phi0_only;
  phi0_only.Add(spec->constraints.constraints()[0]);
  auto open_verdict = DecideRcdp(spec->queries[0], spec->db, spec->master,
                                 phi0_only);
  ASSERT_TRUE(open_verdict.ok());
  EXPECT_FALSE(open_verdict->complete);
}

TEST(SpecParserTest, DomainAnnotations) {
  auto spec = ParseCompletenessSpec(R"(
relation Flag(f: bool, note)
relation Slot(s: int(4), v: inf)
fact Flag(1, "on")
fact Slot(3, "x")
query cq Q(f) :- Flag(f, n)
)");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const RelationSchema* flag = spec->db_schema->FindRelation("Flag");
  ASSERT_NE(flag, nullptr);
  EXPECT_TRUE(flag->attribute(0).domain->is_finite());
  EXPECT_TRUE(flag->attribute(1).domain->is_infinite());
  const RelationSchema* slot = spec->db_schema->FindRelation("Slot");
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(slot->attribute(0).domain->finite_values().size(), 4u);
  // Out-of-domain facts are rejected with the line number.
  auto bad = ParseCompletenessSpec(
      "relation Flag(f: bool)\nfact Flag(7)\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line 2"), std::string::npos);
}

TEST(SpecParserTest, AllQueryLanguages) {
  auto spec = ParseCompletenessSpec(R"(
relation R(a, b)
relation S(a)
query cq   Qc(x) :- R(x, y)
query ucq  Qu(x) :- R(x, y). Qu(x) :- S(x)
query efo  Qe(x) := S(x) | exists y. R(x, y)
query fo   Qf(x) := S(x) & !(exists y. R(x, y))
query fp   T(x) :- S(x). T(x) :- R(x, y), T(y)
)");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  ASSERT_EQ(spec->queries.size(), 5u);
  EXPECT_EQ(spec->queries[0].language(), QueryLanguage::kCq);
  EXPECT_EQ(spec->queries[1].language(), QueryLanguage::kUcq);
  EXPECT_EQ(spec->queries[2].language(), QueryLanguage::kPositive);
  EXPECT_EQ(spec->queries[3].language(), QueryLanguage::kFo);
  EXPECT_EQ(spec->queries[4].language(), QueryLanguage::kDatalog);
}

TEST(SpecParserTest, FoConstraintsGetTaggedByFragment) {
  auto spec = ParseCompletenessSpec(R"(
relation R(a, b)
constraint q(x) := exists y. R(x, y) |= empty
constraint p(x) := R(x, x) & !(exists y. R(x, y)) |= empty
)");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  ASSERT_EQ(spec->constraints.size(), 2u);
  EXPECT_EQ(spec->constraints.constraints()[0].language(),
            QueryLanguage::kPositive);
  EXPECT_EQ(spec->constraints.constraints()[1].language(),
            QueryLanguage::kFo);
}

TEST(SpecParserTest, ErrorsCarryLineNumbers) {
  struct Case {
    const char* text;
    const char* expect;
  };
  Case cases[] = {
      {"relatoin R(a)\n", "line 1"},
      {"relation R(a)\nfact R(x)\n", "line 2"},      // variable in fact
      {"relation R(a)\nconstraint q() :- R(x)\n", "line 2"},  // missing |=
      {"relation R(a)\nquery zz Q(x) :- R(x)\n", "unknown query language"},
      {"relation R(a)\nrelation R(b)\n", "line 2"},  // duplicate
      {"relation R(a)\nconstraint q(x) :- R(x) |= M[0]\n", "line 2"},
  };
  for (const Case& c : cases) {
    auto spec = ParseCompletenessSpec(c.text);
    ASSERT_FALSE(spec.ok()) << c.text;
    EXPECT_NE(spec.status().message().find(c.expect), std::string::npos)
        << spec.status().ToString();
  }
}

TEST(SpecParserTest, CommentCharactersInsideStringsSurvive) {
  auto spec = ParseCompletenessSpec(R"(
relation R(a)
fact R("100% #1")
query cq Q(x) :- R(x)
)");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_TRUE(spec->db.Contains("R", Tuple({Value::Str("100% #1")})));
}

// ---------------------------------------------------------------------------
// Hostile-input corpus: adversarial spec and query fragments must come
// back as kInvalidArgument with position info — never a crash, a hang,
// or an unbounded allocation.

TEST(SpecParserHardeningTest, DeeplyNestedFormulaIsRejectedNotOverflowed) {
  // 100k nested parens would overflow the recursive-descent stack
  // without the depth cap.
  std::string q = "Q(x) := ";
  for (int i = 0; i < 100000; ++i) q += '(';
  q += "R(x)";
  for (int i = 0; i < 100000; ++i) q += ')';
  auto parsed = ParseQuery(q, QueryLanguage::kFo);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("depth"), std::string::npos)
      << parsed.status().ToString();
  EXPECT_NE(parsed.status().message().find("offset"), std::string::npos)
      << parsed.status().ToString();
}

TEST(SpecParserHardeningTest, DeepNegationChainIsRejectedNotOverflowed) {
  std::string q = "Q(x) := " + std::string(100000, '!') + "R(x)";
  auto parsed = ParseQuery(q, QueryLanguage::kFo);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("depth"), std::string::npos);
}

TEST(SpecParserHardeningTest, ModerateNestingStillParses) {
  std::string q = "Q(x) := ";
  for (int i = 0; i < 200; ++i) q += '(';
  q += "R(x)";
  for (int i = 0; i < 200; ++i) q += ')';
  auto parsed = ParseQuery(q, QueryLanguage::kFo);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
}

TEST(SpecParserHardeningTest, HugeArityArgListIsRejected) {
  std::string q = "Q(x) :- R(x";
  for (int i = 0; i < 5000; ++i) q += ", x";
  q += ").";
  auto parsed = ParseQuery(q, QueryLanguage::kCq);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("argument list"),
            std::string::npos)
      << parsed.status().ToString();
}

TEST(SpecParserHardeningTest, HugeRelationArityIsRejectedWithLine) {
  std::string spec = "\nrelation R(a0";
  for (int i = 1; i < 5000; ++i) spec += ", a" + std::to_string(i);
  spec += ")\n";
  auto parsed = ParseCompletenessSpec(spec);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("spec line 2"), std::string::npos)
      << parsed.status().ToString();
  EXPECT_NE(parsed.status().message().find("arity"), std::string::npos);
}

TEST(SpecParserHardeningTest, GiantFiniteDomainIsRejectedNotAllocated) {
  // int(2^40) would eagerly materialize a terabyte of Values.
  auto parsed =
      ParseCompletenessSpec("relation R(a: int(1099511627776))\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("finite domain"),
            std::string::npos)
      << parsed.status().ToString();
}

TEST(SpecParserHardeningTest, TruncatedTokensErrorCleanly) {
  // Every prefix-truncated fragment must produce a clean
  // kInvalidArgument (position info where applicable) — no hang, no
  // crash, no out-of-range read.
  const char* corpus[] = {
      "relation",
      "relation R(",
      "relation R(a",
      "relation R(a:",
      "relation R(a: int(",
      "fact",
      "fact R(",
      "fact R(\"unterminated",
      "constraint",
      "constraint q() :- R(x)",
      "constraint q() :- R(x) |=",
      "constraint q() :- R(x) |= T[",
      "constraint q() :- R(x) |= T[0",
      "query",
      "query cq",
      "query cq Q(x) :-",
      "query cq Q(x) :- R(",
      "query fo Q(x) :=",
      "query fo Q(x) := exists",
      "query fo Q(x) := exists y",
      "query fo Q(x) := (R(x)",
      "master",
      "master relation R(a",
      ":",
      "@@@@",
  };
  for (const char* fragment : corpus) {
    auto parsed = ParseCompletenessSpec(fragment);
    ASSERT_FALSE(parsed.ok()) << "accepted: " << fragment;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
        << fragment << " -> " << parsed.status().ToString();
    EXPECT_FALSE(parsed.status().message().empty()) << fragment;
  }
}

TEST(SpecParserHardeningTest, QueryParserTruncationCorpus) {
  struct Case {
    const char* text;
    QueryLanguage lang;
  };
  const Case corpus[] = {
      {"", QueryLanguage::kCq},
      {"Q", QueryLanguage::kCq},
      {"Q(", QueryLanguage::kCq},
      {"Q(x", QueryLanguage::kCq},
      {"Q(x)", QueryLanguage::kCq},
      {"Q(x) :- R(x,", QueryLanguage::kCq},
      {"Q(x) :- R(x) R", QueryLanguage::kCq},
      {"Q(x) := ", QueryLanguage::kFo},
      {"Q(x) := R(x) &", QueryLanguage::kFo},
      {"Q(x) := R(x) |", QueryLanguage::kFo},
      {"Q(x) := forall .", QueryLanguage::kFo},
      {"Q(x) := \"dangling", QueryLanguage::kFo},
      {"Q(1) := R(x)", QueryLanguage::kFo},
  };
  for (const Case& c : corpus) {
    auto parsed = ParseQuery(c.text, c.lang);
    ASSERT_FALSE(parsed.ok()) << "accepted: " << c.text;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
        << c.text << " -> " << parsed.status().ToString();
  }
}

TEST(SpecParserHardeningTest, OffsetsPointIntoTheInput) {
  auto parsed = ParseQuery("Q(x) :- R(x) @", QueryLanguage::kCq);
  ASSERT_FALSE(parsed.ok());
  // "unexpected character '@' at offset 13"
  EXPECT_NE(parsed.status().message().find("offset 13"), std::string::npos)
      << parsed.status().ToString();
}

// ---------------------------------------------------------------------------
// ParseGroundAtom against the rule parser facts used to go through: a
// fact was read as the one-atom body of `f() :- <fact>.`. Over a
// generated corpus both must accept the same strings and yield the
// same tuples. The corpus stays within what ParseFact is given: spec
// comments are stripped first, so `%` occurs only inside literals.

/// The rule-parser route: a value iff `text` reads as a single relation
/// atom whose arguments are all constants.
std::optional<GroundAtom> ParseFactAsRuleBody(std::string_view text) {
  auto rule = ParseConjunctiveQuery(StrCat("f() :- ", text, "."));
  if (!rule.ok() || rule->body().size() != 1 ||
      !rule->body()[0].is_relation()) {
    return std::nullopt;
  }
  std::vector<Value> values;
  for (const Term& t : rule->body()[0].args()) {
    if (!t.is_constant()) return std::nullopt;
    values.push_back(t.value());
  }
  return GroundAtom{rule->body()[0].relation(), Tuple(std::move(values))};
}

class FactGenerator {
 public:
  explicit FactGenerator(uint64_t seed) : rng_(seed) {}

  std::string Next() {
    std::string fact = Space() + Name() + Space() + "(" + Space();
    // Now and then an argument list around the 4,096-term limit.
    const bool long_list = Below(100) == 0;
    const size_t n = long_list ? 4090 + Below(12) : Below(7);
    for (size_t i = 0; i < n; ++i) {
      if (i > 0) fact += Space() + "," + Space();
      fact += long_list ? "7" : Arg();
    }
    fact += Space() + ")" + Space();
    if (Below(8) == 0) fact += "," + Space();
    if (Below(4) == 0) {
      static const char kStray[] = {'.', '=', ','};
      fact.insert(Below(fact.size() + 1), 1, kStray[Below(3)]);
    }
    if (Below(5) == 0) fact.resize(Below(fact.size() + 1));
    return fact;
  }

 private:
  size_t Below(size_t n) {
    return std::uniform_int_distribution<size_t>(0, n - 1)(rng_);
  }

  std::string Space() {
    static const char* kSpaces[] = {"", "", " ", "  ", "\t", " \r", "\v",
                                    "\f ", "\n"};
    return kSpaces[Below(std::size(kSpaces))];
  }

  std::string Ident() {
    static const char kStart[] =
        "abcxyzABCXYZ_";
    static const char kRest[] = "abcxyzABCXYZ_$0123456789";
    std::string out(1, kStart[Below(sizeof(kStart) - 1)]);
    for (size_t i = Below(6); i > 0; --i) out += kRest[Below(sizeof(kRest) - 1)];
    return out;
  }

  std::string Name() {
    static const char* kNames[] = {"R", "Cust", "_", "exists", "a$b"};
    return Below(2) == 0 ? kNames[Below(std::size(kNames))] : Ident();
  }

  std::string Arg() {
    switch (Below(8)) {
      case 0:
      case 1:
        return std::to_string(static_cast<int64_t>(rng_()) >>
                              Below(64));  // negative half the time
      case 2: {
        static const char* kEdges[] = {
            "9223372036854775807",  "-9223372036854775808",
            "9223372036854775808",  "-9223372036854775809",
            "99999999999999999999", "-0",
            "007",                  "- 5",
            "-"};
        return kEdges[Below(std::size(kEdges))];
      }
      case 3:
        return Ident();  // a variable
      default: {
        static const char kPayload[] = "ab Z09%#,)(.=\"'-_";
        const char quote = Below(2) == 0 ? '"' : '\'';
        std::string out(1, quote);
        for (size_t i = Below(8); i > 0; --i) {
          const char c = kPayload[Below(sizeof(kPayload) - 1)];
          if (c != quote) out += c;
        }
        return out + quote;
      }
    }
  }

  std::mt19937_64 rng_;
};

TEST(SpecParserTest, GroundAtomParserAgreesWithTheRuleParser) {
  FactGenerator gen(20091);
  size_t accepted = 0;
  size_t rejected = 0;
  for (int k = 0; k < 12000; ++k) {
    const std::string text = gen.Next();
    const std::optional<GroundAtom> want = ParseFactAsRuleBody(text);
    const Result<GroundAtom> got = ParseGroundAtom(text);
    ASSERT_EQ(got.ok(), want.has_value())
        << "input: [" << text << "] " << got.status().ToString();
    if (!want.has_value()) {
      EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
      ++rejected;
      continue;
    }
    ++accepted;
    EXPECT_EQ(got->relation, want->relation) << text;
    EXPECT_EQ(got->tuple, want->tuple) << text;
  }
  // Both sides of the boundary are well populated.
  EXPECT_GT(accepted, 3000u);
  EXPECT_GT(rejected, 3000u);
}

TEST(SpecParserTest, LoadsTheShippedExampleSpec) {
  auto spec = LoadCompletenessSpec(
      std::string(RELCOMP_SOURCE_DIR) + "/examples/specs/crm.rcspec");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->queries.size(), 2u);
  auto closed = Satisfies(spec->constraints, spec->db, spec->master);
  ASSERT_TRUE(closed.ok());
  EXPECT_TRUE(*closed);
}

}  // namespace
}  // namespace relcomp
