// The incremental re-certification layer: delta batches on the id
// plane, content fingerprints, the constraint-to-relation dependency
// graph, certificate (de)serialization against a hostile corpus, and
// the headline property — RecertifyRcdp is bit-for-bit CertifyRcdp on
// the post-update instance, across randomized insert/delete sweeps on
// both D and Dm, under budgets, and at any thread count.

#include "completeness/incremental.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "completeness/rcdp.h"
#include "constraints/constraint_check.h"
#include "relational/delta_batch.h"
#include "spec/spec_parser.h"
#include "util/execution_control.h"
#include "util/str.h"
#include "workload/crm_scenario.h"
#include "test_support.h"

namespace relcomp {
namespace {

CompletenessSpec MustParse(const std::string& text) {
  auto spec = ParseCompletenessSpec(text);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return std::move(*spec);
}

/// The service's canonical evidence string — the bit-for-bit
/// comparison key between certification paths.
std::string Evidence(const RcdpResult& r) {
  return StrCat(VerdictToString(r.verdict), "|",
                r.counterexample_delta.has_value()
                    ? r.counterexample_delta->ToString()
                    : std::string("<none>"),
                "|",
                r.new_answer.has_value() ? r.new_answer->ToString()
                                         : std::string("<none>"));
}

DeltaOp Op(bool insert, const std::string& relation,
           std::vector<Value> values) {
  return DeltaOp{insert, relation, Tuple(std::move(values))};
}

// ---------------------------------------------------------------------------
// DeltaBatch: validate-then-apply semantics and the dirtiness report.

constexpr char kTwoRelationSpec[] = R"spec(
relation R(a, b)
relation T(a, b)
master relation M(m)
fact R(0, 0)
fact T(1, 0)
master fact M(0)
master fact M(1)
master fact M(2)
constraint c0(x) :- R(x, y) |= M[0]
query ucq Q(x) :- R(x, y). Q(x) :- T(x, y)
)spec";

TEST(DeltaBatchTest, AppliesEffectiveOpsAndCountsNoops) {
  CompletenessSpec spec = MustParse(kTwoRelationSpec);
  DeltaBatch batch;
  batch.db_ops.push_back(Op(true, "R", {Value::Int(1), Value::Int(1)}));
  batch.db_ops.push_back(Op(true, "R", {Value::Int(0), Value::Int(0)}));
  batch.db_ops.push_back(Op(false, "T", {Value::Int(1), Value::Int(0)}));
  batch.db_ops.push_back(Op(false, "T", {Value::Int(9), Value::Int(9)}));
  batch.master_ops.push_back(Op(false, "M", {Value::Int(2)}));

  auto report = ApplyDeltaBatch(batch, &spec.db, &spec.master);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->applied_inserts, 1u);
  EXPECT_EQ(report->applied_deletes, 2u);
  EXPECT_EQ(report->noops, 2u);
  EXPECT_EQ(report->db_inserted, std::set<std::string>{"R"});
  EXPECT_EQ(report->db_deleted, std::set<std::string>{"T"});
  EXPECT_TRUE(report->master_inserted.empty());
  EXPECT_EQ(report->master_deleted, std::set<std::string>{"M"});
  EXPECT_TRUE(report->db_changed("R"));
  EXPECT_TRUE(report->db_changed("T"));
  EXPECT_FALSE(report->db_changed("M"));
  EXPECT_TRUE(report->master_changed("M"));
  EXPECT_EQ(spec.db.Get("R").size(), 2u);
  EXPECT_EQ(spec.db.Get("T").size(), 0u);
  EXPECT_EQ(spec.master.Get("M").size(), 2u);
}

TEST(DeltaBatchTest, BadOpAppliesNothing) {
  CompletenessSpec spec = MustParse(kTwoRelationSpec);
  DeltaBatch batch;
  batch.db_ops.push_back(Op(true, "R", {Value::Int(3), Value::Int(3)}));
  batch.db_ops.push_back(Op(true, "NoSuch", {Value::Int(0)}));
  auto report = ApplyDeltaBatch(batch, &spec.db, &spec.master);
  EXPECT_EQ(report.status().code(), StatusCode::kNotFound)
      << report.status().ToString();
  // Validate-then-apply: the earlier good op must not have landed.
  EXPECT_EQ(spec.db.Get("R").size(), 1u);

  DeltaBatch arity;
  arity.db_ops.push_back(Op(true, "R", {Value::Int(0)}));
  EXPECT_EQ(ApplyDeltaBatch(arity, &spec.db, &spec.master).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DeltaBatchTest, ReportsDirtiedIndexes) {
  CompletenessSpec spec = MustParse(kTwoRelationSpec);
  // Materialize a per-column hash index on R.a and leave T untouched.
  const Relation& r = spec.db.Get("R");
  (void)r.Probe(0, Value::Int(0));
  ASSERT_EQ(r.BuiltIndexColumnSets(),
            (std::vector<std::vector<size_t>>{{0}}));

  DeltaBatch batch;
  batch.db_ops.push_back(Op(true, "R", {Value::Int(2), Value::Int(2)}));
  auto report = ApplyDeltaBatch(batch, &spec.db, &spec.master);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->dirtied_indexes.size(), 1u);
  EXPECT_EQ(report->dirtied_indexes[0].side, "db");
  EXPECT_EQ(report->dirtied_indexes[0].relation, "R");
  EXPECT_EQ(report->dirtied_indexes[0].columns, std::vector<size_t>{0});
  // The mutation dropped the lazy index; it rebuilds on the next probe.
  EXPECT_TRUE(spec.db.Get("R").BuiltIndexColumnSets().empty());
}

TEST(DeltaBatchTest, OverlayStagingRejectsDeletes) {
  CompletenessSpec spec = MustParse(kTwoRelationSpec);
  DatabaseOverlay overlay(&spec.db);
  DeltaBatch inserts;
  inserts.db_ops.push_back(Op(true, "R", {Value::Int(2), Value::Int(2)}));
  ASSERT_TRUE(StageInsertsOnOverlay(inserts, &overlay).ok());

  DeltaBatch deletes;
  deletes.db_ops.push_back(Op(false, "R", {Value::Int(0), Value::Int(0)}));
  EXPECT_EQ(StageInsertsOnOverlay(deletes, &overlay).code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Content fingerprints.

TEST(FingerprintTest, DatabaseFingerprintIsContentBased) {
  CompletenessSpec a = MustParse(kTwoRelationSpec);
  CompletenessSpec b = MustParse(kTwoRelationSpec);
  EXPECT_EQ(FingerprintDatabase(a.db), FingerprintDatabase(b.db));

  // Insertion order does not matter (tuples are hashed in their sorted
  // order)...
  ASSERT_TRUE(b.db.Insert("R", Tuple({Value::Int(1), Value::Int(1)})).ok());
  ASSERT_TRUE(b.db.Insert("R", Tuple({Value::Int(2), Value::Int(2)})).ok());
  ASSERT_TRUE(a.db.Insert("R", Tuple({Value::Int(2), Value::Int(2)})).ok());
  ASSERT_TRUE(a.db.Insert("R", Tuple({Value::Int(1), Value::Int(1)})).ok());
  EXPECT_EQ(FingerprintDatabase(a.db), FingerprintDatabase(b.db));

  // ...but a single tuple swap flips the fingerprint, even when the
  // tuple count is unchanged (the count-based checkpoint fingerprint
  // is blind to exactly this).
  ASSERT_TRUE(a.db.Erase("R", Tuple({Value::Int(1), Value::Int(1)})));
  ASSERT_TRUE(a.db.Insert("R", Tuple({Value::Int(3), Value::Int(1)})).ok());
  EXPECT_NE(FingerprintDatabase(a.db), FingerprintDatabase(b.db));

  // The same tuple under different relation names is different content.
  EXPECT_NE(FingerprintTuple("R", Tuple({Value::Int(0)})),
            FingerprintTuple("T", Tuple({Value::Int(0)})));
  // Int 0 and string "0" are different content.
  EXPECT_NE(FingerprintTuple("R", Tuple({Value::Int(0)})),
            FingerprintTuple("R", Tuple({Value::Str("0")})));
}

TEST(FingerprintTest, InstanceFingerprintCoversEveryComponent) {
  CompletenessSpec base = MustParse(kTwoRelationSpec);
  const uint64_t fp = FingerprintRcdpInstance(
      base.queries[0], base.db, base.master, base.constraints);

  CompletenessSpec db_changed = MustParse(kTwoRelationSpec);
  ASSERT_TRUE(
      db_changed.db.Insert("T", Tuple({Value::Int(2), Value::Int(2)})).ok());
  EXPECT_NE(fp, FingerprintRcdpInstance(db_changed.queries[0], db_changed.db,
                                        db_changed.master,
                                        db_changed.constraints));

  CompletenessSpec dm_changed = MustParse(kTwoRelationSpec);
  ASSERT_TRUE(dm_changed.master.Insert("M", Tuple({Value::Int(3)})).ok());
  EXPECT_NE(fp, FingerprintRcdpInstance(dm_changed.queries[0], dm_changed.db,
                                        dm_changed.master,
                                        dm_changed.constraints));

  // A different query over the same instance.
  std::string other = kTwoRelationSpec;
  other += "query cq P(x) :- R(x, y)\n";
  CompletenessSpec two = MustParse(other);
  EXPECT_NE(fp, FingerprintRcdpInstance(two.queries[1], two.db, two.master,
                                        two.constraints));
}

TEST(FingerprintTest, OptionsFingerprintExcludesRepresentationToggles) {
  RcdpOptions base;
  const uint64_t fp = FingerprintRcdpOptions(base);

  // Thread count and representation toggles do not change verdicts,
  // so certificates transfer across them.
  RcdpOptions threads = base;
  threads.num_threads = 8;
  EXPECT_EQ(fp, FingerprintRcdpOptions(threads));
  RcdpOptions no_indexes = base;
  no_indexes.use_indexes = false;
  no_indexes.use_arena = false;
  EXPECT_EQ(fp, FingerprintRcdpOptions(no_indexes));

  // Semantic knobs do.
  RcdpOptions pruned = base;
  pruned.prune = !pruned.prune;
  EXPECT_NE(fp, FingerprintRcdpOptions(pruned));

  // Pinned: certificates already on disk carry this value for the
  // default options, so a layout change must not move it.
  EXPECT_EQ(FingerprintRcdpOptions(RcdpOptions{}), 0x16a48f3ec5d71f4eull);
}

// ---------------------------------------------------------------------------
// Dependency graph.

TEST(DependencyGraphTest, ReadSetsPerDisjunctAndConstraint) {
  CompletenessSpec spec = MustParse(kTwoRelationSpec);
  auto graph = RcdpDependencyGraph::Build(spec.queries[0], spec.constraints,
                                          4096);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  ASSERT_EQ(graph->disjunct_relations.size(), 2u);
  EXPECT_EQ(graph->disjunct_relations[0], std::vector<std::string>{"R"});
  EXPECT_EQ(graph->disjunct_relations[1], std::vector<std::string>{"T"});
  ASSERT_EQ(graph->constraint_deps.size(), 1u);
  EXPECT_EQ(graph->constraint_deps[0].body_relations,
            std::vector<std::string>{"R"});
  EXPECT_FALSE(graph->constraint_deps[0].empty_target);
  EXPECT_EQ(graph->constraint_deps[0].master_relation, "M");
}

TEST(DependencyGraphTest, EmptyTargetConstraint) {
  CompletenessSpec spec = MustParse(StrCat(
      kTwoRelationSpec,
      "constraint amo() :- R(x, y1), R(x, y2), y1 != y2 |= empty\n"));
  auto graph = RcdpDependencyGraph::Build(spec.queries[0], spec.constraints,
                                          4096);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  ASSERT_EQ(graph->constraint_deps.size(), 2u);
  EXPECT_TRUE(graph->constraint_deps[1].empty_target);
  EXPECT_EQ(graph->constraint_deps[1].body_relations,
            std::vector<std::string>{"R"});
}

// ---------------------------------------------------------------------------
// Certificate codec.

TEST(CertificateTest, RoundTripsEveryVerdictShape) {
  CompletenessSpec spec = MustParse(kTwoRelationSpec);
  const AnyQuery& q = spec.queries[0];

  // kIncomplete (the seeded instance is incomplete for Q).
  auto incomplete = CertifyRcdp(q, spec.db, spec.master, spec.constraints);
  ASSERT_TRUE(incomplete.ok()) << incomplete.status().ToString();
  ASSERT_EQ(incomplete->result.verdict, Verdict::kIncomplete);
  auto round =
      RcdpCertificate::Deserialize(incomplete->certificate.Serialize());
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_TRUE(*round == incomplete->certificate);

  // kUnknown under a one-step budget carries the checkpoint.
  ExecutionBudget budget;
  budget.set_max_steps(1);
  RcdpOptions budgeted;
  budgeted.budget = &budget;
  auto unknown =
      CertifyRcdp(q, spec.db, spec.master, spec.constraints, budgeted);
  ASSERT_TRUE(unknown.ok()) << unknown.status().ToString();
  ASSERT_EQ(unknown->result.verdict, Verdict::kUnknown);
  ASSERT_TRUE(unknown->certificate.checkpoint.has_value());
  round = RcdpCertificate::Deserialize(unknown->certificate.Serialize());
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_TRUE(*round == unknown->certificate);

  // kComplete: chase a convergent instance closed first (both S
  // columns IND-bounded, so the chase closes the finite M × M space).
  CompletenessSpec chaseable = MustParse(R"spec(
relation S(a, b)
master relation M(m)
fact S(0, 1)
master fact M(0)
master fact M(1)
constraint c0(x) :- S(x, y) |= M[0]
constraint c1(y) :- S(x, y) |= M[0]
query cq Q(x, y) :- S(x, y)
)spec");
  auto chased = ChaseToCompleteness(chaseable.queries[0], chaseable.db,
                                    chaseable.master, chaseable.constraints,
                                    64);
  ASSERT_TRUE(chased.ok()) << chased.status().ToString();
  ASSERT_EQ(chased->verdict, Verdict::kComplete);
  auto complete = CertifyRcdp(chaseable.queries[0], chased->db,
                              chaseable.master, chaseable.constraints);
  ASSERT_TRUE(complete.ok()) << complete.status().ToString();
  ASSERT_EQ(complete->result.verdict, Verdict::kComplete);
  round = RcdpCertificate::Deserialize(complete->certificate.Serialize());
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_TRUE(*round == complete->certificate);

  // String values with spaces and quotes survive the length-prefixed
  // value codec.
  RcdpCertificate cert = incomplete->certificate;
  cert.cex_delta.emplace_back(
      "R", Tuple({Value::Str("a b:c 7:"), Value::Str("")}));
  round = RcdpCertificate::Deserialize(cert.Serialize());
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_TRUE(*round == cert);
}

TEST(CertificateTest, HostileCorpusNeverCrashes) {
  CompletenessSpec spec = MustParse(kTwoRelationSpec);
  auto certified =
      CertifyRcdp(spec.queries[0], spec.db, spec.master, spec.constraints);
  ASSERT_TRUE(certified.ok());
  const std::string valid = certified->certificate.Serialize();

  // Every strict prefix of a valid certificate is either rejected or —
  // when truncation happens to land on a parseable boundary (e.g. mid
  // trailing integer) — parses to something that re-serializes to the
  // exact prefix. Nothing in between, and never a crash.
  for (size_t len = 0; len < valid.size(); ++len) {
    const std::string prefix = valid.substr(0, len);
    auto r = RcdpCertificate::Deserialize(prefix);
    if (r.ok()) {
      EXPECT_EQ(r->Serialize(), prefix) << "prefix length " << len;
    } else {
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
          << "prefix length " << len;
    }
  }
  // Trailing garbage is malformed too.
  EXPECT_EQ(RcdpCertificate::Deserialize(StrCat(valid, " x")).status().code(),
            StatusCode::kInvalidArgument);

  const char* corpus[] = {
      "",
      "relcomp-cert/2 0 0 0 0 1 C",
      "not-a-cert",
      "relcomp-cert/1 ",
      "relcomp-cert/1 1 2 3 4 1 X",
      "relcomp-cert/1 99999999999999999999999 0 0 0 1 C",  // u64 overflow
      "relcomp-cert/1 1 2 3 4 0 I 0 A 1 i0 - 0",   // cex >= num_disjuncts
      "relcomp-cert/1 1 2 3 4 1 I 0 - 1 1:R 9 i0",  // arity 9, one value
      "relcomp-cert/1 1 2 3 4 1 I 0 A 1 s5:ab - 0",  // string overruns
      "relcomp-cert/1 1 2 3 4 1 U 5:junk!",
      "relcomp-cert/1 1 2 3 4 1 U 999999999:x",
      "relcomp-cert/1 1 2 3 4 1 I 0 A 1 i- - 0",
      "relcomp-cert/1 1 2 3 4 1048577 C",  // disjunct cap
  };
  for (const char* text : corpus) {
    auto r = RcdpCertificate::Deserialize(text);
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << "corpus entry: " << text;
  }
}

// ---------------------------------------------------------------------------
// The headline property: incremental == from-scratch, bit for bit.

/// One randomized update sweep: starting from the seeded two-relation
/// UCQ instance, apply random insert/delete batches to D and Dm,
/// chaining the certificate through RecertifyRcdp, and compare every
/// step against a from-scratch CertifyRcdp of the same post-update
/// instance — verdicts, evidence, counterexample disjunct, and the
/// whole serialized certificate must be identical. Closure-breaking
/// batches must fail identically on both paths (and are then rolled
/// back to keep the sweep going).
void RunRandomSweep(uint32_t seed, size_t steps, const RcdpOptions& options) {
  std::mt19937 rng(seed);
  CompletenessSpec spec = MustParse(kTwoRelationSpec);
  const AnyQuery& q = spec.queries[0];

  auto certified = CertifyRcdp(q, spec.db, spec.master, spec.constraints,
                               options);
  ASSERT_TRUE(certified.ok()) << certified.status().ToString();
  RcdpCertificate cert = certified->certificate;

  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_int_distribution<int> val(0, 3);
  std::uniform_int_distribution<int> ops(1, 3);
  std::uniform_int_distribution<int> target(0, 3);
  size_t skipped_not_closed = 0;

  for (size_t step = 0; step < steps; ++step) {
    DeltaBatch batch;
    const int n_ops = ops(rng);
    for (int i = 0; i < n_ops; ++i) {
      switch (target(rng)) {
        case 0:
          batch.db_ops.push_back(Op(coin(rng) != 0, "R",
                                    {Value::Int(val(rng)),
                                     Value::Int(val(rng))}));
          break;
        case 1:
          batch.db_ops.push_back(Op(coin(rng) != 0, "T",
                                    {Value::Int(val(rng)),
                                     Value::Int(val(rng))}));
          break;
        default:
          batch.master_ops.push_back(
              Op(coin(rng) != 0, "M", {Value::Int(val(rng))}));
          break;
      }
    }

    Database pre_db = spec.db;
    Database pre_master = spec.master;
    auto report = ApplyDeltaBatch(batch, &spec.db, &spec.master);
    ASSERT_TRUE(report.ok()) << report.status().ToString();

    auto scratch =
        CertifyRcdp(q, spec.db, spec.master, spec.constraints, options);
    auto inc = RecertifyRcdp(q, spec.db, spec.master, spec.constraints,
                             cert, *report, options);
    if (!scratch.ok()) {
      // Typically "not partially closed": the incremental path must
      // fail the identical way.
      EXPECT_EQ(inc.status().code(), scratch.status().code())
          << "step " << step;
      EXPECT_EQ(inc.status().ToString(), scratch.status().ToString())
          << "step " << step;
      spec.db = std::move(pre_db);
      spec.master = std::move(pre_master);
      ++skipped_not_closed;
      continue;
    }
    ASSERT_TRUE(inc.ok()) << "step " << step << ": "
                          << inc.status().ToString();
    EXPECT_EQ(inc->result.verdict, scratch->result.verdict)
        << "step " << step;
    EXPECT_EQ(Evidence(inc->result), Evidence(scratch->result))
        << "step " << step;
    EXPECT_EQ(inc->result.counterexample_disjunct,
              scratch->result.counterexample_disjunct)
        << "step " << step;
    EXPECT_TRUE(inc->certificate == scratch->certificate)
        << "step " << step << "\nincremental:  "
        << inc->certificate.ToString() << "\nfrom scratch: "
        << scratch->certificate.ToString();
    cert = inc->certificate;
  }
  // The sweep's delta mix must actually exercise the closure-error
  // path; if it never does, the generator has gone stale.
  EXPECT_GT(skipped_not_closed, 0u) << "seed " << seed;
}

TEST(IncrementalRcdpTest, RandomizedUpdateSweepMatchesFromScratch) {
  RunRandomSweep(/*seed=*/20260809, /*steps=*/40, RcdpOptions());
  RunRandomSweep(/*seed=*/7, /*steps=*/40, RcdpOptions());
}

TEST(IncrementalRcdpTest, RandomizedSweepMatchesAcrossThreadCounts) {
  for (size_t threads : {2u, 8u}) {
    RcdpOptions options;
    options.num_threads = threads;
    RunRandomSweep(/*seed=*/20260809, /*steps=*/20, options);
  }
}

TEST(IncrementalRcdpTest, CertificateTransfersAcrossThreadCounts) {
  // A certificate minted serially re-certifies at any thread count
  // (num_threads is excluded from the options fingerprint), and the
  // result matches the serial from-scratch one bit for bit.
  CompletenessSpec spec = MustParse(kTwoRelationSpec);
  const AnyQuery& q = spec.queries[0];
  auto serial = CertifyRcdp(q, spec.db, spec.master, spec.constraints);
  ASSERT_TRUE(serial.ok());

  DeltaBatch batch;
  batch.db_ops.push_back(Op(true, "R", {Value::Int(1), Value::Int(2)}));
  auto report = ApplyDeltaBatch(batch, &spec.db, &spec.master);
  ASSERT_TRUE(report.ok());
  auto scratch = CertifyRcdp(q, spec.db, spec.master, spec.constraints);
  ASSERT_TRUE(scratch.ok());

  for (size_t threads : {1u, 2u, 8u}) {
    RcdpOptions options;
    options.num_threads = threads;
    auto inc = RecertifyRcdp(q, spec.db, spec.master, spec.constraints,
                             serial->certificate, *report, options);
    ASSERT_TRUE(inc.ok()) << threads << " threads: "
                          << inc.status().ToString();
    EXPECT_TRUE(inc->certificate == scratch->certificate)
        << threads << " threads";
    EXPECT_EQ(Evidence(inc->result), Evidence(scratch->result))
        << threads << " threads";
  }
}

TEST(IncrementalRcdpTest, CleanSliceDeltaServesWithZeroSearch) {
  // CRM at the bench's largest scale: a Manage insert over existing
  // constants touches no relation Q1 or φ0 reads and leaves the active
  // domain unchanged, so re-certification does zero search work.
  CrmOptions options;
  options.num_domestic = 16;
  options.num_international = 8;
  options.num_employees = 2;
  options.support_per_employee = 2;
  auto crm = CrmScenario::Make(options);
  ASSERT_TRUE(crm.ok());
  ConstraintSet v;
  auto phi0 = crm->Phi0();
  ASSERT_TRUE(phi0.ok());
  v.Add(*phi0);
  auto q1 = crm->Q1();
  ASSERT_TRUE(q1.ok());

  auto base = CertifyRcdp(*q1, crm->db(), crm->master(), v);
  ASSERT_TRUE(base.ok());
  ASSERT_EQ(base->result.verdict, Verdict::kIncomplete);

  DeltaBatch batch;
  batch.db_ops.push_back(
      Op(true, "Manage", {Value::Str("e0"), Value::Str("e1")}));
  Database post = crm->db();
  auto report = ApplyDeltaBatch(batch, &post, nullptr);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  auto inc = RecertifyRcdp(*q1, post, crm->master(), v, base->certificate,
                           *report);
  ASSERT_TRUE(inc.ok()) << inc.status().ToString();
  EXPECT_EQ(inc->result.stats.bindings_tried, 0u);
  EXPECT_EQ(inc->result.stats.work_units, 0u);

  auto scratch = CertifyRcdp(*q1, post, crm->master(), v);
  ASSERT_TRUE(scratch.ok());
  EXPECT_TRUE(inc->certificate == scratch->certificate);
  EXPECT_EQ(Evidence(inc->result), Evidence(scratch->result));
}

TEST(IncrementalRcdpTest, ContentIdenticalBatchReservesUnknown) {
  // A batch that cancels itself out re-serves even an interrupted
  // (kUnknown) certificate: the embedded checkpoint resumes and the
  // combined run equals the uninterrupted one.
  CompletenessSpec spec = MustParse(kTwoRelationSpec);
  const AnyQuery& q = spec.queries[0];
  ExecutionBudget budget;
  budget.set_max_steps(2);
  RcdpOptions budgeted;
  budgeted.budget = &budget;
  auto partial =
      CertifyRcdp(q, spec.db, spec.master, spec.constraints, budgeted);
  ASSERT_TRUE(partial.ok());
  ASSERT_EQ(partial->result.verdict, Verdict::kUnknown);

  DeltaBatch noop;
  noop.db_ops.push_back(Op(true, "R", {Value::Int(2), Value::Int(2)}));
  noop.db_ops.push_back(Op(false, "R", {Value::Int(2), Value::Int(2)}));
  auto report = ApplyDeltaBatch(noop, &spec.db, &spec.master);
  ASSERT_TRUE(report.ok());
  // Both ops were effective, so the report flags R — it is the content
  // fingerprint, not the report, that proves the batch self-cancelled.
  EXPECT_TRUE(report->changed_any());

  auto resumed = RecertifyRcdp(q, spec.db, spec.master, spec.constraints,
                               partial->certificate, *report);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  auto scratch = CertifyRcdp(q, spec.db, spec.master, spec.constraints);
  ASSERT_TRUE(scratch.ok());
  EXPECT_EQ(resumed->result.verdict, scratch->result.verdict);
  EXPECT_EQ(Evidence(resumed->result), Evidence(scratch->result));
  EXPECT_TRUE(resumed->certificate == scratch->certificate);
}

TEST(IncrementalRcdpTest, BudgetedRecertifyNumbersLikePlainResume) {
  // Decision-point numbering contract under budgets: re-certifying an
  // interrupted certificate claims exactly the points a plain
  // DecideRcdp resume from its checkpoint claims, so the two stop at
  // the identical frontier. The frontier is schedule-free only at one
  // thread: at more, which units exhaust before a shared step cap trips
  // depends on the schedule, so the serial pass pins the ranks and the
  // parallel pass asserts only what holds at every thread count.
  CompletenessSpec spec = MustParse(kTwoRelationSpec);
  const AnyQuery& q = spec.queries[0];
  auto uninterrupted =
      CertifyRcdp(q, spec.db, spec.master, spec.constraints);
  ASSERT_TRUE(uninterrupted.ok());
  ASSERT_NE(uninterrupted->result.verdict, Verdict::kUnknown);

  // A budgeted step either stops with a checkpoint to resume from, or
  // lands on the uninterrupted verdict and evidence.
  auto expect_sound_step = [&](const RcdpCertified& step) {
    if (step.result.verdict == Verdict::kUnknown) {
      EXPECT_TRUE(step.result.checkpoint.has_value());
      EXPECT_TRUE(step.certificate.checkpoint.has_value());
    } else {
      EXPECT_EQ(step.result.verdict, uninterrupted->result.verdict);
      EXPECT_EQ(Evidence(step.result), Evidence(uninterrupted->result));
    }
  };
  // Chained to exhaustion-free completion, the anytime incremental run
  // lands bit-for-bit on the unbudgeted from-scratch verdict.
  auto expect_chain_converges = [&](RcdpCertified step, size_t threads) {
    for (int round = 0; step.result.verdict == Verdict::kUnknown; ++round) {
      ASSERT_LT(round, 64) << "budgeted chain failed to converge";
      ExecutionBudget slice;
      // Checkpoints are rank-granular: a slice below one rank unit's
      // cost records no durable progress, so widen the slice each round
      // (the same stall-widening the DecisionService applies).
      slice.set_max_steps(3 + static_cast<size_t>(round));
      RcdpOptions opt;
      opt.num_threads = threads;
      opt.budget = &slice;
      auto next = RecertifyRcdp(q, spec.db, spec.master, spec.constraints,
                                step.certificate, DeltaApplyReport(), opt);
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      expect_sound_step(*next);
      step = std::move(*next);
    }
    EXPECT_EQ(step.result.verdict, uninterrupted->result.verdict);
    EXPECT_EQ(Evidence(step.result), Evidence(uninterrupted->result));
  };

  // Serial: all three runs claim points in rank order.
  ExecutionBudget first;
  first.set_max_steps(2);
  RcdpOptions opt1;
  opt1.num_threads = 1;
  opt1.budget = &first;
  auto partial = CertifyRcdp(q, spec.db, spec.master, spec.constraints,
                             opt1);
  ASSERT_TRUE(partial.ok());
  ASSERT_EQ(partial->result.verdict, Verdict::kUnknown);
  ASSERT_TRUE(partial->certificate.checkpoint.has_value());

  ExecutionBudget second;
  second.set_max_steps(3);
  RcdpOptions opt2;
  opt2.num_threads = 1;
  opt2.budget = &second;
  auto inc = RecertifyRcdp(q, spec.db, spec.master, spec.constraints,
                           partial->certificate, DeltaApplyReport(), opt2);
  ASSERT_TRUE(inc.ok()) << inc.status().ToString();

  ExecutionBudget reference;
  reference.set_max_steps(3);
  RcdpOptions opt3;
  opt3.num_threads = 1;
  opt3.budget = &reference;
  opt3.resume = &*partial->certificate.checkpoint;
  auto plain = DecideRcdp(q, spec.db, spec.master, spec.constraints, opt3);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();

  EXPECT_EQ(inc->result.verdict, plain->verdict);
  EXPECT_EQ(Evidence(inc->result), Evidence(*plain));
  ASSERT_EQ(inc->result.checkpoint.has_value(),
            plain->checkpoint.has_value());
  if (inc->result.checkpoint.has_value()) {
    EXPECT_EQ(inc->result.checkpoint->disjunct,
              plain->checkpoint->disjunct);
    EXPECT_EQ(inc->result.checkpoint->rank, plain->checkpoint->rank);
  }
  expect_sound_step(*inc);
  expect_chain_converges(std::move(*inc), 1);

  // Four threads: every step is sound and the chain converges, but the
  // ranks it mints may differ from run to run.
  ExecutionBudget parallel_first;
  parallel_first.set_max_steps(2);
  RcdpOptions parallel;
  parallel.num_threads = 4;
  parallel.budget = &parallel_first;
  auto parallel_partial = CertifyRcdp(q, spec.db, spec.master,
                                      spec.constraints, parallel);
  ASSERT_TRUE(parallel_partial.ok());
  expect_sound_step(*parallel_partial);
  expect_chain_converges(std::move(*parallel_partial), 4);
}

TEST(IncrementalRcdpTest, StaleOptionsOrWidthFallBackToFullCertify) {
  CompletenessSpec spec = MustParse(kTwoRelationSpec);
  const AnyQuery& q = spec.queries[0];
  auto base = CertifyRcdp(q, spec.db, spec.master, spec.constraints);
  ASSERT_TRUE(base.ok());

  // Different semantic options: the certificate does not transfer, but
  // re-certification still returns the right (fresh) answer.
  RcdpOptions no_prune;
  no_prune.prune = false;
  auto inc = RecertifyRcdp(q, spec.db, spec.master, spec.constraints,
                           base->certificate, DeltaApplyReport(), no_prune);
  ASSERT_TRUE(inc.ok()) << inc.status().ToString();
  auto scratch =
      CertifyRcdp(q, spec.db, spec.master, spec.constraints, no_prune);
  ASSERT_TRUE(scratch.ok());
  EXPECT_TRUE(inc->certificate == scratch->certificate);

  // A corrupted disjunct count falls back likewise instead of trusting
  // a plan built for a different unfolding.
  RcdpCertificate wrong_width = base->certificate;
  wrong_width.num_disjuncts = 7;
  inc = RecertifyRcdp(q, spec.db, spec.master, spec.constraints,
                      wrong_width, DeltaApplyReport());
  ASSERT_TRUE(inc.ok()) << inc.status().ToString();
  EXPECT_TRUE(inc->certificate == base->certificate);
}

TEST(IncrementalRcdpTest, DeltaThatHoldsAnXorFoldOfTheAnswerStillMovesIt) {
  // Q(x, y) :- R(x, y), y = "t" reads the targets R("tk", "t") that
  // the master M allows; Q(x, y) :- S(x, y) reads the unconstrained S.
  // D holds R for t0..t2 and fillers ("wj", "u") in S, so disjunct 0's
  // counterexample is R("t3", "t"), gaining ("t3", "t"). The delta
  // touches only S: it inserts ("t3", "t") and fillers Q', and deletes
  // the fillers P, solved by Gaussian elimination so that
  // |P| = |Q'| + 1 and the XOR fold of per-tuple hashes over Q(D) is
  // unchanged. Then every target is in Q(D), the stored counterexample
  // gains nothing, and a fresh S tuple is the first counterexample. No
  // constraint reads S and the active domain holds (M names every
  // value), so only the answer fingerprint can tell that disjunct 0's
  // certificate no longer holds.
  constexpr size_t kFillers = 160;
  auto pair = [](const std::string& x, const std::string& y) {
    return Tuple({Value::Str(x), Value::Str(y)});
  };
  auto filler = [&pair](size_t j) { return pair(StrCat("w", j), "u"); };
  std::vector<uint64_t> fillers;
  for (size_t j = 0; j < kFillers; ++j) {
    fillers.push_back(FingerprintTuple("$answer", filler(j)));
  }
  std::vector<size_t> order(kFillers);
  std::iota(order.begin(), order.end(), 0);
  std::mt19937 rng(11);
  std::optional<std::vector<bool>> solution;
  for (int attempt = 0; attempt < 100 && !solution.has_value(); ++attempt) {
    std::shuffle(order.begin(), order.end(), rng);
    solution = XorSubset(fillers, order,
                         FingerprintTuple("$answer", pair("t3", "t")));
    if (solution.has_value() &&
        std::count(solution->begin(), solution->end(), true) % 2 == 0) {
      solution.reset();
    }
  }
  ASSERT_TRUE(solution.has_value());
  std::vector<size_t> p;        // in S before the delta only
  std::vector<size_t> q_prime;  // in S after the delta only
  for (size_t j = 0; j < kFillers; ++j) {
    if (!(*solution)[j]) continue;
    (q_prime.size() < p.size() ? q_prime : p).push_back(j);
  }
  ASSERT_EQ(p.size(), q_prime.size() + 1);

  std::string text =
      "relation R(a, b)\nrelation S(a, b)\nmaster relation M(a, b)\n";
  for (int k = 0; k < 4; ++k) {
    text += StrCat("master fact M(\"t", k, "\", \"t\")\n");
  }
  for (size_t j = 0; j < kFillers; ++j) {
    text += StrCat("master fact M(\"w", j, "\", \"u\")\n");
  }
  for (int k = 0; k < 3; ++k) text += StrCat("fact R(\"t", k, "\", \"t\")\n");
  for (size_t j : p) text += StrCat("fact S(\"w", j, "\", \"u\")\n");
  text += "constraint c0(x, y) :- R(x, y) |= M[0, 1]\n";
  text += "query ucq Q(x, y) :- R(x, y), y = \"t\". Q(x, y) :- S(x, y)\n";
  CompletenessSpec spec = MustParse(text);
  const AnyQuery& q = spec.queries[0];

  auto base = CertifyRcdp(q, spec.db, spec.master, spec.constraints);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  ASSERT_EQ(base->result.verdict, Verdict::kIncomplete);
  ASSERT_EQ(base->result.counterexample_disjunct, 0u);

  DeltaBatch batch;
  batch.db_ops.push_back(Op(true, "S", {Value::Str("t3"), Value::Str("t")}));
  for (size_t j : q_prime) {
    batch.db_ops.push_back(Op(true, "S", filler(j).values()));
  }
  for (size_t j : p) batch.db_ops.push_back(Op(false, "S", filler(j).values()));
  Database post = spec.db;
  auto report = ApplyDeltaBatch(batch, &post, nullptr);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // The forgery: Q(D) gained ("t3", "t"), and neither its XOR fold nor
  // its size moved.
  auto answer = [&q](const Database& db) {
    auto ucq = q.ToUnion(8);
    EXPECT_TRUE(ucq.ok());
    auto rel = EvalUnion(*ucq, db, ConjunctiveEvalOptions());
    EXPECT_TRUE(rel.ok());
    return std::move(*rel);
  };
  auto fold = [](const Relation& rel) {
    uint64_t acc = 0;
    for (const Tuple& t : rel) acc ^= FingerprintTuple("$answer", t);
    return acc;
  };
  const Relation before = answer(spec.db);
  const Relation after = answer(post);
  ASSERT_FALSE(before.Contains(pair("t3", "t")));
  ASSERT_TRUE(after.Contains(pair("t3", "t")));
  ASSERT_EQ(before.size(), after.size());
  ASSERT_EQ(fold(before), fold(after));

  auto inc = RecertifyRcdp(q, post, spec.master, spec.constraints,
                           base->certificate, *report);
  ASSERT_TRUE(inc.ok()) << inc.status().ToString();
  auto scratch = CertifyRcdp(q, post, spec.master, spec.constraints);
  ASSERT_TRUE(scratch.ok()) << scratch.status().ToString();
  ASSERT_EQ(scratch->result.counterexample_disjunct, 1u);
  EXPECT_EQ(Evidence(inc->result), Evidence(scratch->result));
  EXPECT_EQ(inc->result.counterexample_disjunct, 1u);
  EXPECT_TRUE(inc->certificate == scratch->certificate);
}

}  // namespace
}  // namespace relcomp
