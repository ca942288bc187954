// Ablations for the design choices DESIGN.md calls out: each series
// toggles one optimization of the RCDP decider (or a substrate
// algorithm) against the default configuration.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "completeness/rcdp.h"
#include "eval/datalog_eval.h"
#include "eval/fo_eval.h"
#include "eval/query_eval.h"
#include "query/parser.h"
#include "workload/crm_scenario.h"

namespace relcomp {
namespace ablation {

using bench::CheckOk;
using bench::ValueOrDie;

CrmScenario SmallCrm() {
  // Deliberately tiny: the paper-literal configuration enumerates the
  // full |Adom|^vars valuation space.
  CrmOptions options;
  options.num_domestic = 2;
  options.num_international = 0;
  options.num_employees = 1;
  options.support_per_employee = 1;
  options.manage_chain = 2;
  return ValueOrDie(CrmScenario::Make(options), "crm");
}

/// One RCDP configuration over Q1 under φ0, at one search thread: each
/// decide is sub-millisecond, and a pool built per call would bury the
/// toggle under thread start-up and scheduling.
void RunRcdpConfig(benchmark::State& state, RcdpOptions options) {
  options.num_threads = 1;
  CrmScenario crm = SmallCrm();
  ConstraintSet v;
  v.Add(ValueOrDie(crm.Phi0(), "phi0"));
  AnyQuery q1 = ValueOrDie(crm.Q1(), "q1");
  ValuationSearchStats stats;
  for (auto _ : state) {
    auto verdict = DecideRcdp(q1, crm.db(), crm.master(), v, options);
    CheckOk(verdict.status(), "decide");
    stats = verdict->stats;
    benchmark::DoNotOptimize(verdict->complete);
  }
  state.counters["search_steps"] = static_cast<double>(stats.bindings_tried);
  state.counters["index_probes"] = static_cast<double>(stats.index_probes);
  state.counters["relation_scans"] =
      static_cast<double>(stats.relation_scans);
  state.counters["overlay_hits"] = static_cast<double>(stats.overlay_hits);
  state.counters["arena_bytes"] = static_cast<double>(stats.arena_bytes);
}

void BM_RcdpDefault(benchmark::State& state) {
  RunRcdpConfig(state, RcdpOptions());
}
BENCHMARK(BM_RcdpDefault);

void BM_RcdpNoPrune(benchmark::State& state) {
  RcdpOptions options;
  options.prune = false;
  RunRcdpConfig(state, options);
}
BENCHMARK(BM_RcdpNoPrune);

void BM_RcdpNoCollapse(benchmark::State& state) {
  RcdpOptions options;
  options.collapse_dont_care = false;
  RunRcdpConfig(state, options);
}
BENCHMARK(BM_RcdpNoCollapse);

void BM_RcdpNoIndexes(benchmark::State& state) {
  RcdpOptions options;
  options.use_indexes = false;
  RunRcdpConfig(state, options);
}
BENCHMARK(BM_RcdpNoIndexes);

/// Per-worker arenas off: the matcher heap-allocates its per-call
/// scratch. Isolates the allocation layer of the id-plane refactor.
void BM_RcdpNoArena(benchmark::State& state) {
  RcdpOptions options;
  options.use_arena = false;
  RunRcdpConfig(state, options);
}
BENCHMARK(BM_RcdpNoArena);

/// The literal paper algorithm: enumerate every valuation over the
/// full Adom, then check (no pruning, no collapse, no symmetry
/// breaking, no column indexes). Each candidate D ∪ μ(T_Q) is staged on
/// the overlay, which denotes the same database a per-candidate copy
/// would; the check is the decider's one delta check, which examines
/// only the matches through μ(T_Q) \ D.
void BM_RcdpPaperLiteral(benchmark::State& state) {
  RcdpOptions options;
  options.prune = false;
  options.collapse_dont_care = false;
  options.use_indexes = false;
  RunRcdpConfig(state, options);
}
BENCHMARK(BM_RcdpPaperLiteral);

/// Datalog: semi-naive vs naive fixpoint on a transitive closure over
/// a chain of length n.
void RunDatalogConfig(benchmark::State& state, bool semi_naive) {
  const int n = static_cast<int>(state.range(0));
  auto schema = std::make_shared<Schema>();
  CheckOk(schema->AddRelation("E", 2), "schema");
  Database db(schema);
  for (int i = 0; i < n; ++i) {
    db.InsertUnchecked("E", Tuple::Ints({i, i + 1}));
  }
  auto program = ParseDatalogProgram(
      "T(x, y) :- E(x, y).\nT(x, z) :- E(x, y), T(y, z).");
  CheckOk(program.status(), "program");
  DatalogEvalOptions options;
  options.semi_naive = semi_naive;
  for (auto _ : state) {
    auto tc = EvalDatalog(*program, db, options);
    CheckOk(tc.status(), "eval");
    benchmark::DoNotOptimize(tc->size());
  }
}

void BM_DatalogSemiNaive(benchmark::State& state) {
  RunDatalogConfig(state, true);
}
BENCHMARK(BM_DatalogSemiNaive)->Arg(8)->Arg(16)->Arg(32);

void BM_DatalogNaive(benchmark::State& state) {
  RunDatalogConfig(state, false);
}
BENCHMARK(BM_DatalogNaive)->Arg(8)->Arg(16)->Arg(32);

/// ∃FO+ evaluation: DNF-unfolded joins vs active-domain formula
/// evaluation on a disjunctive customer query.
void BM_PositiveEvalUnfolded(benchmark::State& state) {
  CrmScenario crm = ValueOrDie(CrmScenario::Make(), "crm");
  auto q = ParseFoQuery(
      R"(Qp(c) := exists n, cc, a, p. (Cust(c, n, cc, a, p) &
          (a = "908" | a = "201" | cc = "44")))");
  CheckOk(q.status(), "q");
  AnyQuery positive = AnyQuery::Positive(*q);
  for (auto _ : state) {
    auto answer = Evaluate(positive, crm.db());
    CheckOk(answer.status(), "eval");
    benchmark::DoNotOptimize(answer->size());
  }
}
BENCHMARK(BM_PositiveEvalUnfolded);

void BM_PositiveEvalActiveDomain(benchmark::State& state) {
  CrmScenario crm = ValueOrDie(CrmScenario::Make(), "crm");
  auto q = ParseFoQuery(
      R"(Qp(c) := exists n, cc, a, p. (Cust(c, n, cc, a, p) &
          (a = "908" | a = "201" | cc = "44")))");
  CheckOk(q.status(), "q");
  for (auto _ : state) {
    auto answer = EvalFo(*q, crm.db());
    CheckOk(answer.status(), "eval");
    benchmark::DoNotOptimize(answer->size());
  }
}
BENCHMARK(BM_PositiveEvalActiveDomain);

/// Conjunctive matcher: greedy atom reordering and column-index
/// probing vs textual order and full scans on a selective join.
void RunMatcherConfig(benchmark::State& state, bool reorder,
                      bool use_indexes) {
  CrmOptions options;
  options.num_domestic = 32;
  options.num_employees = 4;
  options.support_per_employee = 4;
  CrmScenario crm = ValueOrDie(CrmScenario::Make(options), "crm");
  auto q = ParseConjunctiveQuery(
      R"(J(c, n) :- Cust(c, n, cc, a, p), Supt(e, d, c), e = "e0",
                    a = "908".)");
  CheckOk(q.status(), "q");
  EvalCounters counters;
  ConjunctiveEvalOptions eval_options;
  eval_options.reorder_atoms = reorder;
  eval_options.use_indexes = use_indexes;
  eval_options.counters = &counters;
  for (auto _ : state) {
    counters = EvalCounters();
    auto answer = EvalConjunctive(*q, crm.db(), eval_options);
    CheckOk(answer.status(), "eval");
    benchmark::DoNotOptimize(answer->size());
  }
  state.counters["index_probes"] = static_cast<double>(counters.index_probes);
  state.counters["relation_scans"] =
      static_cast<double>(counters.relation_scans);
  state.counters["rows_considered"] =
      static_cast<double>(counters.base_rows_considered);
}

void BM_MatcherReordered(benchmark::State& state) {
  RunMatcherConfig(state, /*reorder=*/true, /*use_indexes=*/true);
}
BENCHMARK(BM_MatcherReordered);

void BM_MatcherTextualOrder(benchmark::State& state) {
  RunMatcherConfig(state, /*reorder=*/false, /*use_indexes=*/true);
}
BENCHMARK(BM_MatcherTextualOrder);

void BM_MatcherNoIndexes(benchmark::State& state) {
  RunMatcherConfig(state, /*reorder=*/true, /*use_indexes=*/false);
}
BENCHMARK(BM_MatcherNoIndexes);

/// The naive textual-order, scan-only matcher — the paper-literal
/// baseline the indexed path is compared against.
void BM_MatcherPaperLiteral(benchmark::State& state) {
  RunMatcherConfig(state, /*reorder=*/false, /*use_indexes=*/false);
}
BENCHMARK(BM_MatcherPaperLiteral);

}  // namespace ablation
}  // namespace relcomp

BENCHMARK_MAIN();
