// Durable-audit overhead — what crash recoverability costs. The same
// sliced RCDP execution is run twice over the largest bench_rcdp_scaling
// instance: once resuming purely in memory (the PR-3 anytime loop), and
// once persisting every slice boundary to a CheckpointStore
// (temp-file + fsync + rename + directory fsync, the store's write of
// one checkpoint generation). The difference is the price of surviving a kill;
// the target is <= 5% at the service's slice granularity.

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "completeness/rcdp.h"
#include "service/checkpoint_store.h"
#include "service/decision_service.h"
#include "util/execution_control.h"
#include "util/fs_env.h"
#include "util/str.h"
#include "workload/crm_scenario.h"

namespace relcomp {
namespace service_bench {

using bench::CheckOk;
using bench::ValueOrDie;

std::string FreshDir(const char* tag) {
  static int counter = 0;
  return StrCat("/tmp/relcomp_bench_service_", ::getpid(), "_", tag, "_",
                counter++);
}

/// The largest BM_DataComplexity instance from bench_rcdp_scaling — the
/// shared yardstick across the BENCH_*.json reports.
struct Instance {
  CrmScenario crm;
  ConstraintSet v;
  AnyQuery q1;
};

Instance MakeInstance() {
  CrmOptions options;
  options.num_domestic = 16;
  options.num_international = 8;
  options.num_employees = 2;
  options.support_per_employee = 2;
  CrmScenario crm = ValueOrDie(CrmScenario::Make(options), "crm");
  ConstraintSet v;
  v.Add(ValueOrDie(crm.Phi0(), "phi0"));
  AnyQuery q1 = ValueOrDie(crm.Q1(), "q1");
  return Instance{std::move(crm), std::move(v), std::move(q1)};
}

/// Decision points one uninterrupted run of the instance claims.
size_t TotalDecisionPoints(const Instance& inst) {
  ExecutionBudget budget;
  budget.set_max_steps(size_t{1} << 30);
  RcdpOptions options;
  options.budget = &budget;
  auto verdict =
      DecideRcdp(inst.q1, inst.crm.db(), inst.crm.master(), inst.v, options);
  CheckOk(verdict.status(), "probe decide");
  return budget.steps();
}

/// One sliced run to the verdict: exhaust, (optionally persist), rearm,
/// resume — the DecisionService's retry loop without the service.
/// Returns the number of slices the run took.
size_t SlicedDecide(const Instance& inst, size_t slice,
                    CheckpointStore* store) {
  ExecutionBudget budget;
  budget.set_max_steps(slice);
  std::optional<SearchCheckpoint> resume;
  std::string last_form;
  size_t slices = 1;
  for (;;) {
    RcdpOptions options;
    options.budget = &budget;
    options.resume = resume.has_value() ? &*resume : nullptr;
    auto verdict = DecideRcdp(inst.q1, inst.crm.db(), inst.crm.master(),
                              inst.v, options);
    CheckOk(verdict.status(), "sliced decide");
    if (verdict->verdict != Verdict::kUnknown) {
      if (store != nullptr) CheckOk(store->Forget("bench"), "forget");
      benchmark::DoNotOptimize(verdict->complete);
      return slices;
    }
    if (!verdict->checkpoint.has_value()) {
      std::fprintf(stderr, "sliced decide exhausted without a checkpoint\n");
      std::abort();
    }
    if (store != nullptr) {
      CheckOk(store->PersistCheckpoint("bench", *verdict->checkpoint)
                  .status(),
              "persist");
    }
    // Stall escalation, as in the DecisionService: checkpoints are
    // rank-granular, so a slice smaller than one rank unit's cost
    // re-exhausts at the same point; widen until the unit fits.
    std::string form = verdict->checkpoint->Serialize();
    if (form == last_form) {
      slice = slice > (size_t{1} << 62) ? slice : slice * 2;
      budget.set_max_steps(slice);
    }
    last_form = std::move(form);
    resume = std::move(verdict->checkpoint);
    budget.Rearm();
    ++slices;
  }
}

void BM_SlicedDecideInMemory(benchmark::State& state) {
  Instance inst = MakeInstance();
  const size_t slice =
      TotalDecisionPoints(inst) / static_cast<size_t>(state.range(0)) + 1;
  for (auto _ : state) {
    SlicedDecide(inst, slice, nullptr);
  }
}
BENCHMARK(BM_SlicedDecideInMemory)->Arg(2)->Arg(8);

void BM_SlicedDecidePersisted(benchmark::State& state) {
  Instance inst = MakeInstance();
  const size_t slice =
      TotalDecisionPoints(inst) / static_cast<size_t>(state.range(0)) + 1;
  auto store = ValueOrDie(CheckpointStore::Open(FreshDir("bm")), "store");
  for (auto _ : state) {
    SlicedDecide(inst, slice, store.get());
  }
}
BENCHMARK(BM_SlicedDecidePersisted)->Arg(2)->Arg(8);

/// A self-contained spec-text instance (the service ships the problem
/// as text): every pair over {0..max_x} x {0..max_y} except the far
/// corner. Different grid sizes yield different job content, which the
/// verdict cache keys on.
std::string CornerSpecText(int max_x, int max_y) {
  std::string spec_text = "relation S(a, b)\nmaster relation M(m)\n";
  for (int x = 0; x <= max_x; ++x) {
    for (int y = 0; y <= max_y; ++y) {
      if (x == max_x && y == max_y) continue;
      spec_text += StrCat("fact S(", x, ", ", y, ")\n");
    }
  }
  for (int m = 0; m <= max_x; ++m) {
    spec_text += StrCat("master fact M(", m, ")\n");
  }
  spec_text += "constraint c0(x) :- S(x, y) |= M[0]\n";
  spec_text += "query cq Q(x, y) :- S(x, y)\n";
  return spec_text;
}

/// End-to-end service round trip: Submit + Wait of the instance's spec
/// as a job, persisting at every slice boundary.
void BM_ServiceSubmitWait(benchmark::State& state) {
  std::string spec_text = CornerSpecText(5, 6);

  auto service = ValueOrDie(DecisionService::Start(FreshDir("svc")),
                            "service");
  JobSpec job;
  job.kind = JobKind::kRcdp;
  job.spec_text = spec_text;
  job.slice_steps = 16;
  size_t seq = 0;
  for (auto _ : state) {
    const std::string id = StrCat("bench-", seq++);
    CheckOk(service->Submit(id, job), "submit");
    auto result = service->Wait(id);
    CheckOk(result.status(), "wait");
    benchmark::DoNotOptimize(result->evidence.size());
  }
}
BENCHMARK(BM_ServiceSubmitWait);

/// One timed configuration, measured directly (steady_clock over a
/// fixed wall budget) so the JSON report does not depend on
/// google-benchmark's output format.
struct Measured {
  double ns_per_op = 0;
  size_t iterations = 0;
  size_t slices_per_op = 0;
};

/// Interleaved A/B measurement: each round times one in-memory op then
/// one persisted op back to back, so slow drift (page cache, CPU
/// contention on a one-core container) hits both configurations equally
/// instead of biasing whichever block ran second. Block measurement of
/// the two configs swung the overhead estimate by ±9% run to run; the
/// paired form is stable to ~1%.
void MeasurePaired(const Instance& inst, size_t slice, CheckpointStore* store,
                   double min_seconds, Measured* in_memory,
                   Measured* persisted) {
  using Clock = std::chrono::steady_clock;
  in_memory->slices_per_op = SlicedDecide(inst, slice, nullptr);  // warm-up
  persisted->slices_per_op = SlicedDecide(inst, slice, store);
  const Clock::time_point start = Clock::now();
  double mem_ns = 0;
  double store_ns = 0;
  for (;;) {
    Clock::time_point t0 = Clock::now();
    SlicedDecide(inst, slice, nullptr);
    Clock::time_point t1 = Clock::now();
    SlicedDecide(inst, slice, store);
    Clock::time_point t2 = Clock::now();
    mem_ns += static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    store_ns += static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t2 - t1).count());
    ++in_memory->iterations;
    ++persisted->iterations;
    const double elapsed = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t2 - start)
            .count());
    if (elapsed >= min_seconds * 1e9) break;
  }
  in_memory->ns_per_op = mem_ns / static_cast<double>(in_memory->iterations);
  persisted->ns_per_op = store_ns / static_cast<double>(persisted->iterations);
}

void AppendConfigJson(std::string* json, const char* name,
                      const Measured& m) {
  *json += StrCat("    \"", name, "\": {\n");
  *json += StrCat("      \"ns_per_op\": ", static_cast<size_t>(m.ns_per_op),
                  ",\n");
  *json += StrCat("      \"iterations\": ", m.iterations, ",\n");
  *json += StrCat("      \"slices_per_op\": ", m.slices_per_op, "\n");
  *json += "    }";
}

/// Measures the sliced largest-instance decide with and without durable
/// persistence and writes BENCH_service.json. Output path overridable
/// via RELCOMP_BENCH_SERVICE_JSON.
void WriteServiceJson() {
  // The sliced op is hundreds of ms; a short window fits too few
  // iterations for a percent-level comparison.
  const double min_seconds = 8.0;
  Instance inst = MakeInstance();
  const size_t total = TotalDecisionPoints(inst);
  const size_t slice = total / 8 + 1;  // ~8 persists per audit

  auto store = ValueOrDie(CheckpointStore::Open(FreshDir("json")), "store");
  Measured in_memory;
  Measured persisted;
  MeasurePaired(inst, slice, store.get(), min_seconds, &in_memory,
                &persisted);

  const double overhead_pct =
      in_memory.ns_per_op > 0
          ? (persisted.ns_per_op / in_memory.ns_per_op - 1.0) * 100.0
          : 0;
  const double ns_per_persist =
      persisted.slices_per_op > 1
          ? (persisted.ns_per_op - in_memory.ns_per_op) /
                static_cast<double>(persisted.slices_per_op - 1)
          : 0;

  std::string json = "{\n";
  json += "  \"benchmark\": \"service_checkpoint_overhead\",\n";
  bench::AppendHardwareJson(&json, 1);
  json += "  \"instance\": { \"num_domestic\": 16, "
          "\"num_international\": 8, \"num_employees\": 2, "
          "\"support_per_employee\": 2 },\n";
  json += StrCat("  \"decision_points_per_op\": ", total, ",\n");
  json += StrCat("  \"slice_steps\": ", slice, ",\n");
  json += "  \"configs\": {\n";
  AppendConfigJson(&json, "in_memory", in_memory);
  json += ",\n";
  AppendConfigJson(&json, "persisted", persisted);
  json += "\n  },\n";
  json += StrCat("  \"ns_per_persist\": ",
                 static_cast<size_t>(ns_per_persist > 0 ? ns_per_persist : 0),
                 ",\n");
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", overhead_pct);
  json += StrCat("  \"persist_overhead_pct\": ", buf, ",\n");
  json += "  \"persist_overhead_target_pct\": 5.0\n";
  json += "}\n";

  const char* path = std::getenv("RELCOMP_BENCH_SERVICE_JSON");
  if (path == nullptr) path = "BENCH_service.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("wrote %s (persist overhead at %zu slices/op: %s%%)\n", path,
              persisted.slices_per_op, buf);
}

/// Degraded-mode service economics — what a service with a dead disk
/// still delivers, and how fast it comes back when the disk does.
/// Three measurements against a verdict-cache-warmed service whose
/// FsEnv fails every store op with EIO:
///   - shed rate: cold-content submits refused with the typed
///     kResourceExhausted (no queue time wasted, no I/O attempted);
///   - cache-hit service rate: warm-content submits admitted
///     ephemerally and answered from memory;
///   - time-to-self-heal: disk comes back, background prober (1ms
///     interval, 16ms backoff cap) flips the service healthy.
/// The result is spliced into BENCH_robustness.json as a
/// "degraded_mode" section alongside bench_rcdp_scaling's
/// budget-overhead report, which owns the rest of the file.
void WriteRobustnessDegradedJson() {
  using Clock = std::chrono::steady_clock;
  FsEnv env;
  DecisionServiceOptions options;
  options.enable_verdict_cache = true;
  options.store_options.fs_env = &env;
  options.store_probe_interval = std::chrono::milliseconds(1);
  options.store_probe_backoff_cap = std::chrono::milliseconds(16);
  auto service = ValueOrDie(
      DecisionService::Start(FreshDir("degraded"), options),
      "degraded service");

  JobSpec warm;
  warm.kind = JobKind::kRcdp;
  warm.spec_text = CornerSpecText(5, 6);
  warm.slice_steps = 16;
  // Different grid, so different content: never in the cache, which
  // makes every degraded submit of it a durable-admission attempt.
  JobSpec cold = warm;
  cold.spec_text = CornerSpecText(4, 6);

  CheckOk(service->Submit("warm", warm), "warm submit");
  auto warm_result = service->Wait("warm");
  CheckOk(warm_result.status(), "warm wait");
  const std::string expected = warm_result->evidence;

  size_t seq = 0;
  // Kill the disk, then flip the service degraded: the first durable
  // submit attempts the persist, fails, and sheds.
  const auto kill_disk = [&] {
    StorageFaultPlan plan;
    plan.kind = StorageFaultKind::kEio;
    plan.every = 1;
    env.set_fault_plan(plan);
    while (!service->degraded()) {
      (void)service->Submit(StrCat("flip-", seq++), cold);
    }
  };
  kill_disk();

  const auto elapsed_ns = [](Clock::time_point since) {
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             since)
            .count());
  };
  const double min_ns = 0.5e9;

  Measured shed;
  {
    const Clock::time_point start = Clock::now();
    double total = 0;
    for (;;) {
      Status s = service->Submit(StrCat("shed-", seq++), cold);
      if (s.code() != StatusCode::kResourceExhausted) {
        std::fprintf(stderr, "degraded submit not shed: %s\n",
                     s.message().c_str());
        std::abort();
      }
      ++shed.iterations;
      total = elapsed_ns(start);
      if (total >= min_ns) break;
    }
    shed.ns_per_op = total / static_cast<double>(shed.iterations);
  }

  Measured hit;
  {
    const Clock::time_point start = Clock::now();
    double total = 0;
    for (;;) {
      const std::string id = StrCat("hit-", seq++);
      CheckOk(service->Submit(id, warm), "ephemeral submit");
      auto result = service->Wait(id);
      CheckOk(result.status(), "ephemeral wait");
      if (result->evidence != expected) {
        std::fprintf(stderr, "degraded cache hit diverged\n");
        std::abort();
      }
      ++hit.iterations;
      total = elapsed_ns(start);
      if (total >= min_ns) break;
    }
    hit.ns_per_op = total / static_cast<double>(hit.iterations);
  }

  // Heal latency: disk comes back at t0; the background prober's next
  // success flips the service healthy. Median over several rounds —
  // a single sample is at the mercy of where the backoff wait sits.
  std::vector<double> heal_ms;
  for (int round = 0; round < 5; ++round) {
    if (round > 0) kill_disk();
    const Clock::time_point healthy_at = Clock::now();
    env.set_fault_plan(StorageFaultPlan{});
    while (service->degraded()) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    heal_ms.push_back(elapsed_ns(healthy_at) / 1e6);
  }
  std::sort(heal_ms.begin(), heal_ms.end());
  const double heal_median = heal_ms[heal_ms.size() / 2];

  std::string obj = "{\n";
  {
    std::string hardware;
    bench::AppendHardwareJson(&hardware, 1);
    // AppendHardwareJson indents for a top-level object; this one is
    // nested one level deeper.
    size_t pos = 0;
    while ((pos = hardware.find('\n', pos)) != std::string::npos) {
      obj += "  ";
      obj += hardware.substr(0, pos + 1);
      hardware.erase(0, pos + 1);
      pos = 0;
    }
  }
  char buf[32];
  obj += StrCat("    \"shed_ns_per_op\": ",
                static_cast<size_t>(shed.ns_per_op), ",\n");
  obj += StrCat("    \"sheds\": ", shed.iterations, ",\n");
  obj += StrCat("    \"cache_hit_ns_per_op\": ",
                static_cast<size_t>(hit.ns_per_op), ",\n");
  obj += StrCat("    \"cache_hits_served\": ", hit.iterations, ",\n");
  std::snprintf(buf, sizeof(buf), "%.2f", heal_median);
  obj += StrCat("    \"self_heal_ms_median\": ", buf, ",\n");
  obj += StrCat("    \"self_heal_samples\": ", heal_ms.size(), "\n");
  obj += "  }";

  const char* path = std::getenv("RELCOMP_BENCH_ROBUSTNESS_JSON");
  if (path == nullptr) path = "BENCH_robustness.json";
  std::string existing;
  if (std::FILE* f = std::fopen(path, "r")) {
    char chunk[4096];
    size_t n;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
      existing.append(chunk, n);
    }
    std::fclose(f);
  }
  // Replace a prior degraded_mode section (re-runs), then splice the
  // new one in before the closing brace of the existing report.
  const size_t prior = existing.find(",\n  \"degraded_mode\"");
  if (prior != std::string::npos) {
    existing.erase(prior);
    existing += "\n}\n";
  }
  std::string out;
  const size_t brace = existing.rfind('}');
  if (brace != std::string::npos) {
    out = existing.substr(0, brace);
    while (!out.empty() &&
           (out.back() == '\n' || out.back() == ' ' || out.back() == ',')) {
      out.pop_back();
    }
    out += StrCat(",\n  \"degraded_mode\": ", obj, "\n}\n");
  } else {
    out = StrCat("{\n  \"degraded_mode\": ", obj, "\n}\n");
  }
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
  std::printf(
      "wrote %s degraded_mode (shed %zu ns, cache hit %zu ns, heal %s ms)\n",
      path, static_cast<size_t>(shed.ns_per_op),
      static_cast<size_t>(hit.ns_per_op), buf);
}

}  // namespace service_bench
}  // namespace relcomp

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  relcomp::service_bench::WriteServiceJson();
  relcomp::service_bench::WriteRobustnessDegradedJson();
  return 0;
}
