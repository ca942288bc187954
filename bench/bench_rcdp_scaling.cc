// Data vs combined complexity for RCDP — the "figures" the paper's
// theory predicts. For fixed Q and V, deciding completeness is
// polynomial in |D| (the valuation space depends on the active domain,
// the per-candidate checks on instance size); growing the query or the
// constraints triggers the Σ₂ᵖ blow-up.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "bench_util.h"
#include "completeness/rcdp.h"
#include "query/parser.h"
#include "util/execution_control.h"
#include "util/str.h"
#include "workload/crm_scenario.h"

namespace relcomp {
namespace scaling {

using bench::CheckOk;
using bench::ValueOrDie;

/// The configuration the growth seed effectively ran: no column
/// indexes, no overlay — candidate checks copy the database (or scan).
RcdpOptions SeedConfig() {
  RcdpOptions options;
  options.use_indexes = false;
  options.use_overlay = false;
  return options;
}

/// Data complexity: fixed Q1 and φ0, growing master data + database.
void RunDataComplexity(benchmark::State& state, const RcdpOptions& options) {
  CrmOptions crm_options;
  crm_options.num_domestic = static_cast<size_t>(state.range(0));
  crm_options.num_international = static_cast<size_t>(state.range(0)) / 2;
  crm_options.num_employees = 2;
  crm_options.support_per_employee = 2;
  CrmScenario crm = ValueOrDie(CrmScenario::Make(crm_options), "crm");
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
  state.counters["composite_probes"] =
      static_cast<double>(stats.composite_probes);
  state.counters["overlay_hits"] = static_cast<double>(stats.overlay_hits);
  state.counters["arena_bytes"] = static_cast<double>(stats.arena_bytes);
  state.SetComplexityN(state.range(0));
}

void BM_DataComplexity(benchmark::State& state) {
  RunDataComplexity(state, RcdpOptions());
}
BENCHMARK(BM_DataComplexity)
    ->RangeMultiplier(2)
    ->Range(2, 16)
    ->Complexity(benchmark::oAuto);

/// The same series under the seed configuration (indexes and overlay
/// off) — the denominator of the BENCH_relcore.json speedup.
void BM_DataComplexitySeedConfig(benchmark::State& state) {
  RunDataComplexity(state, SeedConfig());
}
BENCHMARK(BM_DataComplexitySeedConfig)
    ->RangeMultiplier(2)
    ->Range(2, 16)
    ->Complexity(benchmark::oAuto);

/// Combined complexity in the query: a growing chain query
/// Q(c0) :- Supt(e0, d0, c0), Supt(e1, d1, c1), ..., all unconstrained
/// except an at-most-one CC per employee — the valuation space grows
/// exponentially with the chain length.
void BM_QuerySizeComplexity(benchmark::State& state) {
  CrmScenario crm = ValueOrDie(CrmScenario::Make(), "crm");
  const int chain = static_cast<int>(state.range(0));
  std::string body;
  for (int i = 0; i < chain; ++i) {
    if (i > 0) body += ", ";
    body += StrCat("Supt(e", i, ", d", i, ", c", i, ")");
  }
  // Tie the chain together so no variable is collapsible: each
  // employee variable also names the next customer.
  for (int i = 0; i + 1 < chain; ++i) {
    body += StrCat(", e", i, " != c", i + 1);
  }
  auto q = ParseConjunctiveQuery(StrCat("Qc(c0) :- ", body, "."));
  CheckOk(q.status(), "chain query");
  ConstraintSet v;
  v.Add(ValueOrDie(crm.Phi1(2), "phi1"));
  for (auto _ : state) {
    auto verdict =
        DecideRcdp(AnyQuery::Cq(*q), crm.db(), crm.master(), v);
    CheckOk(verdict.status(), "decide");
    benchmark::DoNotOptimize(verdict->complete);
  }
}
BENCHMARK(BM_QuerySizeComplexity)->DenseRange(1, 4, 1);

/// Combined complexity in the constraints: φ1(k) grows quadratically in
/// k (k+1 atoms, O(k²) disequalities); the constraint check per
/// valuation grows with it.
void BM_ConstraintSizeComplexity(benchmark::State& state) {
  CrmScenario crm = ValueOrDie(CrmScenario::Make(), "crm");
  ConstraintSet v;
  v.Add(ValueOrDie(crm.Phi1(static_cast<size_t>(state.range(0))), "phi1"));
  AnyQuery q2 = ValueOrDie(crm.Q2(), "q2");
  for (auto _ : state) {
    auto verdict = DecideRcdp(q2, crm.db(), crm.master(), v);
    CheckOk(verdict.status(), "decide");
    benchmark::DoNotOptimize(verdict->complete);
  }
}
BENCHMARK(BM_ConstraintSizeComplexity)->DenseRange(2, 6, 1);

/// The chase: rounds needed to make the CRM database complete for Q1
/// as the missing-data fraction grows.
void BM_ChaseToCompleteness(benchmark::State& state) {
  CrmOptions options;
  options.num_domestic = static_cast<size_t>(state.range(0));
  options.num_employees = 1;
  options.support_per_employee = 1;  // most master customers unsupported
  CrmScenario crm = ValueOrDie(CrmScenario::Make(options), "crm");
  ConstraintSet v;
  v.Add(ValueOrDie(crm.Phi0(), "phi0"));
  AnyQuery q1 = ValueOrDie(crm.Q1(), "q1");
  for (auto _ : state) {
    auto completed = ChaseToCompleteness(q1, crm.db(), crm.master(), v, 256);
    CheckOk(completed.status(), "chase");
    benchmark::DoNotOptimize(completed->db.TotalTuples());
  }
}
BENCHMARK(BM_ChaseToCompleteness)->Arg(2)->Arg(4)->Arg(8);

/// One timed configuration of the largest data-complexity instance,
/// measured directly (steady_clock over a fixed wall budget) so the
/// JSON report does not depend on google-benchmark's output format.
struct MeasuredConfig {
  double ns_per_op = 0;
  size_t iterations = 0;
  ValuationSearchStats stats;
};

MeasuredConfig MeasureDataComplexity(size_t n, const RcdpOptions& options,
                                     double min_seconds) {
  CrmOptions crm_options;
  crm_options.num_domestic = n;
  crm_options.num_international = n / 2;
  crm_options.num_employees = 2;
  crm_options.support_per_employee = 2;
  CrmScenario crm = ValueOrDie(CrmScenario::Make(crm_options), "crm");
  ConstraintSet v;
  v.Add(ValueOrDie(crm.Phi0(), "phi0"));
  AnyQuery q1 = ValueOrDie(crm.Q1(), "q1");

  MeasuredConfig out;
  using Clock = std::chrono::steady_clock;
  // Warm-up decide (not timed), also captures the work counters.
  {
    auto verdict = DecideRcdp(q1, crm.db(), crm.master(), v, options);
    CheckOk(verdict.status(), "decide");
    out.stats = verdict->stats;
  }
  Clock::time_point start = Clock::now();
  double elapsed_ns = 0;
  while (elapsed_ns < min_seconds * 1e9) {
    auto verdict = DecideRcdp(q1, crm.db(), crm.master(), v, options);
    CheckOk(verdict.status(), "decide");
    benchmark::DoNotOptimize(verdict->complete);
    ++out.iterations;
    elapsed_ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
  }
  out.ns_per_op = elapsed_ns / static_cast<double>(out.iterations);
  return out;
}

void AppendConfigJson(std::string* json, const char* name,
                      const MeasuredConfig& m) {
  *json += StrCat("    \"", name, "\": {\n");
  *json += StrCat("      \"ns_per_op\": ",
                  static_cast<size_t>(m.ns_per_op), ",\n");
  *json += StrCat("      \"iterations\": ", m.iterations, ",\n");
  *json += StrCat("      \"bindings_tried\": ", m.stats.bindings_tried,
                  ",\n");
  *json += StrCat("      \"totals_delivered\": ", m.stats.totals_delivered,
                  ",\n");
  *json += StrCat("      \"prunes\": ", m.stats.prunes, ",\n");
  *json += StrCat("      \"index_probes\": ", m.stats.index_probes, ",\n");
  *json += StrCat("      \"composite_probes\": ", m.stats.composite_probes,
                  ",\n");
  *json += StrCat("      \"relation_scans\": ", m.stats.relation_scans,
                  ",\n");
  *json += StrCat("      \"overlay_hits\": ", m.stats.overlay_hits, ",\n");
  *json += StrCat("      \"arena_bytes\": ", m.stats.arena_bytes, ",\n");
  *json += StrCat("      \"work_units\": ", m.stats.work_units, ",\n");
  *json += StrCat("      \"work_units_cancelled\": ",
                  m.stats.work_units_cancelled, "\n");
  *json += "    }";
}

/// Measures the largest BM_DataComplexity instance under the default
/// (full id-plane stack), one ablation row per id-plane technique, and
/// the seed configuration, then writes BENCH_relcore.json. Output path
/// overridable via RELCOMP_BENCH_JSON.
void WriteRelcoreJson() {
  const size_t n = 16;  // largest instance of the BM_DataComplexity range
  const double min_seconds = 1.0;
  // Full stack: id-plane joins + composite radix indexes + arenas.
  MeasuredConfig optimized =
      MeasureDataComplexity(n, RcdpOptions(), min_seconds);
  // Id-plane joins alone over per-column posting lists, heap scratch.
  RcdpOptions id_plane_options;
  id_plane_options.use_composite_indexes = false;
  id_plane_options.use_arena = false;
  MeasuredConfig id_plane =
      MeasureDataComplexity(n, id_plane_options, min_seconds);
  // + adaptive radix (composite) indexes, still heap scratch.
  RcdpOptions art_options;
  art_options.use_arena = false;
  MeasuredConfig id_plane_art =
      MeasureDataComplexity(n, art_options, min_seconds);
  MeasuredConfig seed = MeasureDataComplexity(n, SeedConfig(), min_seconds);
  const double speedup =
      optimized.ns_per_op > 0 ? seed.ns_per_op / optimized.ns_per_op : 0;

  std::string json = "{\n";
  json += "  \"benchmark\": \"rcdp_data_complexity\",\n";
  bench::AppendHardwareJson(&json, EffectiveThreads(RcdpOptions()));
  json += StrCat("  \"instance\": { \"num_domestic\": ", n,
                 ", \"num_international\": ", n / 2,
                 ", \"num_employees\": 2, \"support_per_employee\": 2 },\n");
  json += "  \"configs\": {\n";
  AppendConfigJson(&json, "optimized", optimized);
  json += ",\n";
  AppendConfigJson(&json, "ablation_id_plane", id_plane);
  json += ",\n";
  AppendConfigJson(&json, "ablation_id_plane_art", id_plane_art);
  json += ",\n";
  AppendConfigJson(&json, "seed", seed);
  json += "\n  },\n";
  char speedup_buf[32];
  std::snprintf(speedup_buf, sizeof(speedup_buf), "%.2f", speedup);
  json += StrCat("  \"speedup_optimized_vs_seed\": ", speedup_buf, "\n");
  json += "}\n";

  const char* path = std::getenv("RELCOMP_BENCH_JSON");
  if (path == nullptr) path = "BENCH_relcore.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("wrote %s (speedup optimized vs seed at n=%zu: %sx)\n", path, n,
              speedup_buf);
}

/// Thread sweep over the same largest data-complexity instance: the
/// default configuration at num_threads in {1, 2, 4, 8}, written to
/// BENCH_parallel.json (override via RELCOMP_BENCH_PARALLEL_JSON).
/// hardware_concurrency is recorded so the numbers can be read in
/// context — on a single-core machine the sweep measures the
/// partitioning overhead, not a speedup.
void WriteParallelJson() {
  const size_t n = 16;
  const double min_seconds = 1.0;
  const size_t thread_counts[] = {1, 2, 4, 8};
  MeasuredConfig measured[4];
  for (size_t i = 0; i < 4; ++i) {
    RcdpOptions options;
    options.num_threads = thread_counts[i];
    measured[i] = MeasureDataComplexity(n, options, min_seconds);
  }

  std::string json = "{\n";
  json += "  \"benchmark\": \"rcdp_parallel_scaling\",\n";
  // threads_used reports the widest swept configuration; the per-config
  // names carry the full sweep.
  bench::AppendHardwareJson(&json, thread_counts[3]);
  json += StrCat("  \"instance\": { \"num_domestic\": ", n,
                 ", \"num_international\": ", n / 2,
                 ", \"num_employees\": 2, \"support_per_employee\": 2 },\n");
  json += "  \"configs\": {\n";
  for (size_t i = 0; i < 4; ++i) {
    AppendConfigJson(&json, StrCat("threads_", thread_counts[i]).c_str(),
                     measured[i]);
    json += i + 1 < 4 ? ",\n" : "\n";
  }
  json += "  },\n";
  auto speedup_vs_serial = [&](size_t i) {
    return measured[i].ns_per_op > 0
               ? measured[0].ns_per_op / measured[i].ns_per_op
               : 0.0;
  };
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", speedup_vs_serial(2));
  json += StrCat("  \"speedup_4_threads_vs_1\": ", buf, ",\n");
  std::snprintf(buf, sizeof(buf), "%.2f", speedup_vs_serial(3));
  json += StrCat("  \"speedup_8_threads_vs_1\": ", buf, "\n");
  json += "}\n";

  const char* path = std::getenv("RELCOMP_BENCH_PARALLEL_JSON");
  if (path == nullptr) path = "BENCH_parallel.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf(
      "wrote %s (hardware_concurrency=%u; ns/op at 1/2/4/8 threads: "
      "%zu/%zu/%zu/%zu)\n",
      path, std::thread::hardware_concurrency(),
      static_cast<size_t>(measured[0].ns_per_op),
      static_cast<size_t>(measured[1].ns_per_op),
      static_cast<size_t>(measured[2].ns_per_op),
      static_cast<size_t>(measured[3].ns_per_op));
}

/// Budget-check overhead: the same largest data-complexity instance
/// with no budget vs. an armed-but-never-tripping budget (generous
/// step, byte and deadline limits plus a live cancel token), written to
/// BENCH_robustness.json (override via RELCOMP_BENCH_ROBUSTNESS_JSON).
/// The armed budget pays one relaxed atomic increment per decision
/// point plus a deadline read every kDeadlineStride steps; the series
/// quantifies that cost.
void WriteRobustnessJson() {
  const size_t n = 16;
  const double min_seconds = 1.0;
  MeasuredConfig off = MeasureDataComplexity(n, RcdpOptions(), min_seconds);

  CancelSource cancel;
  ExecutionBudget budget;
  budget.set_max_steps(size_t{1} << 60);
  budget.set_max_tracked_bytes(size_t{1} << 60);
  budget.set_timeout(std::chrono::hours(24));
  budget.set_cancel_token(cancel.token());
  RcdpOptions budgeted;
  budgeted.budget = &budget;
  MeasuredConfig on = MeasureDataComplexity(n, budgeted, min_seconds);

  const double overhead_pct =
      off.ns_per_op > 0 ? (on.ns_per_op / off.ns_per_op - 1.0) * 100.0 : 0;

  std::string json = "{\n";
  json += "  \"benchmark\": \"rcdp_budget_overhead\",\n";
  bench::AppendHardwareJson(&json, EffectiveThreads(RcdpOptions()));
  json += StrCat("  \"instance\": { \"num_domestic\": ", n,
                 ", \"num_international\": ", n / 2,
                 ", \"num_employees\": 2, \"support_per_employee\": 2 },\n");
  json += "  \"configs\": {\n";
  AppendConfigJson(&json, "budget_off", off);
  json += ",\n";
  AppendConfigJson(&json, "budget_on", on);
  json += "\n  },\n";
  json += StrCat("  \"decision_points_per_op\": ",
                 on.iterations > 0 ? budget.steps() / (on.iterations + 1) : 0,
                 ",\n");
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", overhead_pct);
  json += StrCat("  \"budget_overhead_pct\": ", buf, "\n");
  json += "}\n";

  const char* path = std::getenv("RELCOMP_BENCH_ROBUSTNESS_JSON");
  if (path == nullptr) path = "BENCH_robustness.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("wrote %s (budget overhead at n=%zu: %s%%)\n", path, n, buf);
}

}  // namespace scaling
}  // namespace relcomp

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  relcomp::scaling::WriteRelcoreJson();
  relcomp::scaling::WriteParallelJson();
  relcomp::scaling::WriteRobustnessJson();
  return 0;
}
