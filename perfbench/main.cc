// The repository benchmark: seeded closed-loop completeness audits
// through the shipped network front end, configured as
// `relcheck --serve` sets it up (NetClient -> relcomp-net/2 over a unix
// socket with an auth key -> NetServer -> DecisionService with the
// verdict cache on -> CheckpointStore on local disk, fsync as shipped).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//   perfbench --selftest
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the audits
// with spans (phase a), then replays each audit's inputs layer by layer
// on the benchmark thread (phase b) and prints the per-layer metrics.
// The last line of standard output is the result object.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "completeness/active_domain.h"
#include "completeness/brute_force.h"
#include "completeness/incremental.h"
#include "completeness/rcdp.h"
#include "completeness/rcqp.h"
#include "constraints/constraint_check.h"
#include "layers.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "service/decision_service.h"
#include "service/verdict_cache.h"
#include "spec/spec_parser.h"
#include "tableau/tableau.h"
#include "util/str.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace relcomp;

#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

constexpr char kAuthKey[] = "perfbench-fabric-secret-0123456789";
/// Set-ups per run; setup_s is their median.
constexpr size_t kSetupRepeats = 5;
/// Client poll interval: the finest AwaitTerminal accepts (its 5 ms
/// default is a fifth of a cache hit).
constexpr std::chrono::milliseconds kPollInterval{1};
constexpr std::chrono::milliseconds kAuditLimit{60000};
/// Warm-up audits draw from a sequence range timed audits never reach.
constexpr uint64_t kWarmupBase = 1ull << 62;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double ProcessCpuMs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

/// Peak resident set of this process image. VmHWM, not ru_maxrss: on
/// Linux ru_maxrss carries the launching parent's peak across exec.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// p90, or the highest percentile with at least 10 samples beyond it
/// when there are fewer than 100 (nearest rank).
double TailPercentile(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  size_t rank = (9 * n + 9) / 10;  // ceil(0.9 n), 1-based
  if (n - rank < 10) rank = n > 10 ? n - 10 : 1;
  return v[rank - 1];
}

/// Audits per window of WindowedTail: each window's p90 then has at
/// least 10 audits beyond it.
constexpr size_t kTailWindow = 100;

/// verdict_p90_ms: the median, over consecutive windows of at least
/// kTailWindow audits in sequence order, of each window's p90. A slow
/// stretch of a shared host fills the tail of the whole run, but moves
/// this figure only if it covers half the windows. A run of fewer than
/// kTailWindow audits is one window.
double WindowedTail(const std::vector<double>& in_order) {
  const size_t n = in_order.size();
  const size_t windows = std::max<size_t>(1, n / kTailWindow);
  std::vector<double> tails;
  for (size_t w = 0; w < windows; ++w) {
    tails.push_back(TailPercentile(
        std::vector<double>(in_order.begin() + w * n / windows,
                            in_order.begin() + (w + 1) * n / windows)));
  }
  return Median(tails);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string ResultJson(bool correct, size_t attempted, size_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = StrCat("{\"correct\": ", correct ? "true" : "false",
                           ", \"attempted\": ", attempted,
                           ", \"failed\": ", failed, ", \"metrics\": {");
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    out += StrCat(i > 0 ? ", " : "", "\"", metrics[i].name,
                  "\": {\"value\": ", value, ", \"unit\": \"",
                  metrics[i].unit, "\"}");
  }
  return out + "}}";
}

// --- The served stack ------------------------------------------------

DecisionServiceOptions ServiceOptions(FsEnv* env) {
  DecisionServiceOptions options;  // relcheck --serve: one worker
  options.num_workers = 1;
  options.enable_verdict_cache = true;
  options.store_options.fs_env = env;
  return options;
}

/// DecisionService + NetServer on a fresh unix socket + one NetClient
/// (one connection) per client thread.
class Stack {
 public:
  static Result<std::unique_ptr<Stack>> Start(const std::string& dir,
                                              size_t clients, FsEnv* env) {
    auto stack = std::unique_ptr<Stack>(new Stack());
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    auto service = DecisionService::Start(dir + "/store", ServiceOptions(env));
    if (!service.ok()) return service.status();
    stack->service_ = std::move(*service);
    NetServerOptions server_options;
    server_options.auth_key = kAuthKey;
    auto server = NetServer::Start(stack->service_.get(),
                                   StrCat("unix:", dir, "/s.sock"),
                                   server_options);
    if (!server.ok()) return server.status();
    stack->server_ = std::move(*server);
    NetClientOptions client_options;
    client_options.auth_key = kAuthKey;
    for (size_t i = 0; i < clients; ++i) {
      stack->clients_.push_back(std::make_unique<NetClient>(
          stack->server_->address(), client_options));
    }
    return stack;
  }

  ~Stack() {
    clients_.clear();
    if (server_ != nullptr) server_->Shutdown();
    server_.reset();
    service_.reset();
  }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  DecisionService* service() { return service_.get(); }
  NetServer* server() { return server_.get(); }
  NetClient* client(size_t i) { return clients_[i].get(); }
  size_t clients() const { return clients_.size(); }

 private:
  Stack() = default;

  std::unique_ptr<DecisionService> service_;
  std::unique_ptr<NetServer> server_;
  std::vector<std::unique_ptr<NetClient>> clients_;
};

struct Outcome {
  bool ok = false;
  double latency_ms = 0;
  double submit_ms = 0;
  double await_ms = 0;
  uint64_t persisted = 0;
  std::string error;
};

/// One audit through the front end: Submit, then AwaitTerminal; the
/// verdict must equal the audit's known answer. With `tracer`, spans
/// around both calls are opened and closed inside the timed window, so
/// their cost is part of the audit's latency.
Outcome RunAudit(NetClient* client, const std::string& id, const Audit& audit,
                 Tracer* tracer = nullptr, uint64_t k = 0) {
  Outcome out;
  const Clock::time_point start = Clock::now();
  int64_t root = -1;
  int64_t span = -1;
  if (tracer != nullptr) {
    root = tracer->Begin("audit", -1, k);
    span = tracer->Begin("net.submit", root, k);
  }
  Status submitted = client->Submit(id, audit.job);
  const Clock::time_point submitted_at = Clock::now();
  out.submit_ms =
      std::chrono::duration<double, std::milli>(submitted_at - start).count();
  if (tracer != nullptr) tracer->End(span);
  if (!submitted.ok()) {
    if (tracer != nullptr) tracer->End(root);
    out.error = submitted.ToString();
    return out;
  }
  if (tracer != nullptr) span = tracer->Begin("net.await", root, k);
  Result<WireReply> reply = client->AwaitTerminal(id, kPollInterval,
                                                  kAuditLimit);
  if (tracer != nullptr) {
    tracer->End(span);
    tracer->End(root);
  }
  out.await_ms = MsSince(submitted_at);
  out.latency_ms = MsSince(start);
  if (!reply.ok()) {
    out.error = reply.status().ToString();
    return out;
  }
  out.persisted = reply->persisted;
  out.ok = reply->code == StatusCode::kOk &&
           MatchesKnownAnswer(audit, reply->verdict, reply->evidence);
  if (!out.ok) {
    out.error = StrCat("verdict ", VerdictToString(reply->verdict),
                       " expected ", VerdictToString(audit.expected), ": ",
                       reply->evidence.substr(0, 200));
  }
  return out;
}

// --- Set-up ----------------------------------------------------------

struct Prepared {
  std::unique_ptr<AuditSource> source;
  std::unique_ptr<Stack> stack;
  double seconds = 0;
};

/// Input generation, service and server start on a fresh store, and the
/// workload's fixed warm-up. repeat_audits decides each large spec
/// once, restarts the service over that store, and serves one hit per
/// spec, so every later audit of it is a verdict-cache hit.
Result<Prepared> SetUp(const WorkloadConfig& config, uint64_t seed,
                       const std::string& dir, FsEnv* env) {
  Prepared p;
  const Clock::time_point start = Clock::now();
  p.source = std::make_unique<AuditSource>(config, seed);
  auto stack = Stack::Start(dir, config.clients, env);
  if (!stack.ok()) return stack.status();
  p.stack = std::move(*stack);
  auto must = [&](const std::string& id, const Audit& audit) -> Status {
    Outcome o = RunAudit(p.stack->client(0), id, audit);
    if (!o.ok) return Status::Internal(StrCat("set-up audit ", id, ": ",
                                              o.error));
    return Status::OK();
  };
  if (config.distinct_specs > 0) {
    for (size_t i = 0; i < p.source->distinct_specs(); ++i) {
      RELCOMP_RETURN_NOT_OK(must(StrCat("prime", i), p.source->spec(i)));
    }
    p.stack.reset();
    auto restarted = Stack::Start(dir, config.clients, env);
    if (!restarted.ok()) return restarted.status();
    p.stack = std::move(*restarted);
    for (size_t i = 0; i < p.source->distinct_specs(); ++i) {
      RELCOMP_RETURN_NOT_OK(must(StrCat("hit", i), p.source->spec(i)));
    }
  }
  for (size_t i = 0; i < config.warmup_audits; ++i) {
    RELCOMP_RETURN_NOT_OK(
        must(StrCat("warm", i), p.source->Make(kWarmupBase + i)));
  }
  p.seconds = MsSince(start) / 1e3;
  return p;
}

// --- Timed closed loop -----------------------------------------------

struct Sample {
  uint64_t k = 0;
  Outcome outcome;
  bool traced = false;
  NetClientStats net_delta;
};

struct LoopResult {
  std::vector<Sample> samples;  // sorted by sequence index
  double elapsed_s = 0;
  double cpu_ms = 0;
  double rss_at_mark_mb = 0;
};

/// Runs the closed loop for `seconds`: each client submits the next
/// audit of the seeded sequence only after its previous one completes.
/// With `tracer`, odd audits get spans around Submit and AwaitTerminal
/// and even ones do not, so the run measures its own tracing overhead.
LoopResult RunLoop(const WorkloadConfig& config, const AuditSource& source,
                   Stack* stack, double seconds, Tracer* tracer) {
  LoopResult result;
  std::atomic<uint64_t> next{0};
  std::atomic<size_t> completed{0};
  std::atomic<bool> rss_taken{false};
  std::vector<std::vector<Sample>> per_client(stack->clients());
  const double cpu_start = ProcessCpuMs();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  auto client_loop = [&](size_t c) {
    NetClient* client = stack->client(c);
    while (Clock::now() < deadline) {
      Sample s;
      s.k = next.fetch_add(1);
      const Audit audit = source.Make(s.k);
      const std::string id = StrCat("a", s.k);
      const NetClientStats before = client->stats();
      s.traced = tracer != nullptr && s.k % 2 == 1;
      s.outcome = RunAudit(client, id, audit, s.traced ? tracer : nullptr, s.k);
      const NetClientStats& after = client->stats();
      s.net_delta.round_trips = after.round_trips - before.round_trips;
      s.net_delta.retries = after.retries - before.retries;
      per_client[c].push_back(std::move(s));
      if (completed.fetch_add(1) + 1 == config.rss_audit_mark &&
          !rss_taken.exchange(true)) {
        result.rss_at_mark_mb = PeakRssMb();
      }
    }
  };
  std::vector<std::thread> threads;
  for (size_t c = 0; c < stack->clients(); ++c) {
    threads.emplace_back(client_loop, c);
  }
  for (std::thread& t : threads) t.join();
  result.elapsed_s = MsSince(start) / 1e3;
  result.cpu_ms = ProcessCpuMs() - cpu_start;
  if (!rss_taken.load()) result.rss_at_mark_mb = PeakRssMb();
  for (auto& samples : per_client) {
    for (Sample& s : samples) result.samples.push_back(std::move(s));
  }
  std::sort(result.samples.begin(), result.samples.end(),
            [](const Sample& a, const Sample& b) { return a.k < b.k; });
  return result;
}

// --- Counters the program already returns ----------------------------

struct Counters {
  VerdictCacheStats cache;
  NetServerStats server;
  size_t jobs_shed = 0;
  size_t served_from_cache = 0;
  size_t checkpoints_persisted = 0;
  size_t compactions = 0;
};

Counters ReadCounters(Stack* stack) {
  Counters c;
  if (stack->service()->verdict_cache() != nullptr) {
    c.cache = stack->service()->verdict_cache()->stats();
  }
  c.server = stack->server()->stats();
  c.jobs_shed = stack->service()->jobs_shed();
  c.served_from_cache = stack->service()->verdicts_served_from_cache();
  c.checkpoints_persisted = stack->service()->checkpoints_persisted();
  c.compactions = stack->service()->store().journal_compactions();
  return c;
}

/// Counts that must repeat exactly. Returns how many did not.
size_t CheckRepeatingCounts(const WorkloadConfig& config,
                            const Counters& before, const Counters& after,
                            size_t audits) {
  size_t mismatches = 0;
  auto expect = [&](const char* what, size_t got, size_t want) {
    if (got == want) return;
    ++mismatches;
    std::cerr << "perfbench: " << config.name << ": " << what << " = "
              << got << ", expected " << want << "\n";
  };
  const size_t served = after.served_from_cache - before.served_from_cache;
  const bool cached_kind = config.name == "repeat_audits";
  const bool rcdp = config.name == "fresh_audits" || cached_kind;
  expect("verdicts served from cache", served, cached_kind ? audits : 0);
  expect("cache hits", after.cache.hits - before.cache.hits,
         cached_kind ? audits : 0);
  expect("cache insertions", after.cache.insertions - before.cache.insertions,
         rcdp && !cached_kind ? audits : 0);
  expect("jobs shed", after.jobs_shed - before.jobs_shed, 0);
  expect("submits shed", after.server.submits_shed - before.server.submits_shed,
         0);
  return mismatches;
}

// --- Phase (b): layer-by-layer replay ---------------------------------

struct ReplayAudit {
  std::map<std::string, double> total_ms;  // per span name
  std::map<std::string, double> self_ms;
  double decide_cpu_ms = 0;
  double text_kb = 0;
  double request_kb = 0;
  double frame_us = 0;
  double auth_us = 0;
  double disjuncts = 0;
  double adom_values = 0;
  bool cache_hit = false;
  bool decided = false;
  ValuationSearchStats stats;
  size_t budget_steps = 0;
  double sliced_steps_ratio = 0;
};

class Replayer {
 public:
  explicit Replayer(std::string dir) : dir_(std::move(dir)) {}

  Status Start(const AuditSource& source) {
    auto service =
        DecisionService::Start(dir_ + "/service", ServiceOptions(&env_));
    if (!service.ok()) return service.status();
    service_ = std::move(*service);
    CheckpointStoreOptions store_options;
    store_options.fs_env = &cache_env_;
    auto store = CheckpointStore::Open(dir_ + "/cache", store_options);
    if (!store.ok()) return store.status();
    cache_store_ = std::move(*store);
    cache_ = std::make_unique<VerdictCache>(cache_store_.get());
    // Same cache state as the served stack: repeat_audits' specs are
    // decided (and cached) before any replayed audit.
    for (size_t i = 0; i < source.distinct_specs(); ++i) {
      const Audit& a = source.spec(i);
      const std::string id = StrCat("prime", i);
      RELCOMP_RETURN_NOT_OK(service_->Submit(id, a.job));
      Result<JobResult> r = service_->Wait(id);
      if (!r.ok()) return r.status();
      auto spec = ParseCompletenessSpec(a.job.spec_text);
      if (!spec.ok()) return spec.status();
      RELCOMP_RETURN_NOT_OK(cache_->Insert(
          FingerprintRcdpInstance(spec->queries[a.job.query_index], spec->db,
                                  spec->master, spec->constraints),
          r->verdict, r->evidence));
    }
    return Status::OK();
  }

  /// Replays audit `k`; an error when any call fails or its verdict is
  /// not the known answer.
  Result<ReplayAudit> Replay(uint64_t k, const Audit& audit) {
    ReplayAudit out;
    const std::string id = StrCat("r", k);
    const size_t first_span = tracer_.spans().size();
    const int64_t root = tracer_.Begin("audit", -1, k);

    // Wire: the submit request framed keyless (relcomp-net/1) and keyed.
    WireRequest request;
    request.op = WireOp::kSubmit;
    request.key = id;
    request.job = audit.job.Serialize();
    const std::string payload = request.Serialize();
    FrameCodecOptions keyed;
    keyed.auth_key = kAuthKey;
    std::string frame;
    const Clock::time_point f0 = Clock::now();
    {
      FrameDecoder decoder;
      decoder.Feed(EncodeFrame(payload));
      RELCOMP_RETURN_NOT_OK(decoder.Next(&frame).status());
    }
    const Clock::time_point f1 = Clock::now();
    size_t keyed_bytes = 0;
    {
      const std::string bytes = EncodeFrameV2(payload, keyed);
      keyed_bytes = bytes.size();
      FrameDecoder decoder;
      decoder.set_auth_key(kAuthKey);
      decoder.Feed(bytes);
      RELCOMP_RETURN_NOT_OK(decoder.Next(&frame).status());
    }
    const Clock::time_point f2 = Clock::now();
    tracer_.Add("net.frame", f0, f1, root, k);
    const double keyless_ms =
        std::chrono::duration<double, std::milli>(f1 - f0).count();
    const double keyed_ms =
        std::chrono::duration<double, std::milli>(f2 - f1).count();
    tracer_.AddDuration("net.auth", f1, std::max(0.0, keyed_ms - keyless_ms),
                        root, k);
    out.frame_us = keyless_ms * 1e3;
    out.auth_us = (keyed_ms - keyless_ms) * 1e3;
    out.request_kb = static_cast<double>(keyed_bytes) / 1024.0;
    out.text_kb = static_cast<double>(audit.job.spec_text.size()) / 1024.0;

    // The service path, in process: admission, queue wait, run. Store
    // I/O is attributed to the call that issued it (Submit persists the
    // job record before it returns).
    const auto io_before = env_.Snapshot();
    Status submitted = Status::OK();
    const int64_t submit = Timed(&tracer_, "service.submit", root, k, [&] {
      submitted = service_->Submit(id, audit.job);
    });
    const auto io_submitted = env_.Snapshot();
    RELCOMP_RETURN_NOT_OK(submitted);
    Timed(&tracer_, "service.queue_wait", root, k, [&] {
      for (;;) {
        Result<DecisionService::JobPoll> p = service_->Poll(id);
        if (!p.ok() || p->running || p->terminal) break;
        std::this_thread::yield();
      }
    });
    Result<JobResult> result = Status::Internal("not waited for");
    const int64_t run = Timed(&tracer_, "service.run", root, k,
                              [&] { result = service_->Wait(id); });
    if (!result.ok()) return result.status();
    if (!MatchesKnownAnswer(audit, result->verdict, result->evidence)) {
      return Status::Internal(StrCat("replayed audit ", k, " gave ",
                                     result->evidence.substr(0, 200)));
    }
    const Clock::time_point io_at = Clock::now();
    for (const auto& [site, io] : IoDelta(io_before, io_submitted)) {
      if (io.ops > 0) {
        tracer_.AddDuration(StrCat("store.", site), io_at, io.io_ms, submit, k);
      }
    }
    for (const auto& [site, io] : IoDelta(io_submitted, env_.Snapshot())) {
      if (io.ops > 0) {
        tracer_.AddDuration(StrCat("store.", site), io_at, io.io_ms, run, k);
      }
    }

    // The calls the service makes, one span each, attributed to the
    // service span that makes them.
    Timed(&tracer_, "spec.parse", submit, k, [&] {
      (void)ParseCompletenessSpec(audit.job.spec_text);
    });
    Result<CompletenessSpec> spec = Status::Internal("not parsed");
    Timed(&tracer_, "spec.parse", run, k,
          [&] { spec = ParseCompletenessSpec(audit.job.spec_text); });
    if (!spec.ok()) return spec.status();
    const AnyQuery& query = spec->queries[audit.job.query_index];
    const bool rcdp = audit.job.kind == JobKind::kRcdp;
    uint64_t fp = 0;
    if (rcdp) {
      Timed(&tracer_, "completeness.fingerprint", run, k, [&] {
        fp = FingerprintRcdpInstance(query, spec->db, spec->master,
                                     spec->constraints);
      });
      Timed(&tracer_, "service.cache_lookup", run, k,
            [&] { out.cache_hit = cache_->Lookup(fp).has_value(); });
    }
    if (!out.cache_hit) {
      RELCOMP_RETURN_NOT_OK(Decide(k, audit, *spec, run, &out));
      if (rcdp && out.decided) {
        Timed(&tracer_, "service.cache_insert", run, k, [&] {
          (void)cache_->Insert(fp, result->verdict, result->evidence);
        });
      }
    }
    tracer_.End(root);
    if (audit.job.slice_steps > 0 && rcdp) {
      RELCOMP_RETURN_NOT_OK(SlicedReplay(audit, *spec, &out));
    }

    const std::vector<double> self = tracer_.SelfMs();
    const std::vector<Span>& spans = tracer_.spans();
    for (size_t i = first_span; i < spans.size(); ++i) {
      out.total_ms[spans[i].name] += spans[i].ms();
      out.self_ms[spans[i].name] += self[i];
    }
    return out;
  }

  const Tracer& tracer() const { return tracer_; }

 private:
  /// The decider with the job's threads and an armed budget, preceded
  /// by the preparation steps it runs first, each timed alone.
  Status Decide(uint64_t k, const Audit& audit, const CompletenessSpec& spec,
                int64_t run, ReplayAudit* out) {
    const AnyQuery& query = spec.queries[audit.job.query_index];
    const int64_t decide = tracer_.Begin("completeness.decide", run, k);
    Result<UnionQuery> ucq = Status::Internal("not unfolded");
    Timed(&tracer_, "query.unfold", decide, k,
          [&] { ucq = query.ToUnion(); });
    if (!ucq.ok()) return ucq.status();
    out->disjuncts = static_cast<double>(ucq->disjuncts().size());
    size_t variables = 1;
    Status tableau_status = Status::OK();
    Timed(&tracer_, "tableau.build", decide, k, [&] {
      for (const ConjunctiveQuery& d : ucq->disjuncts()) {
        auto t = TableauQuery::FromConjunctive(d, *spec.db_schema);
        if (!t.ok()) {
          tableau_status = t.status();
          return;
        }
        variables = std::max(variables, t->variables().size());
      }
    });
    RELCOMP_RETURN_NOT_OK(tableau_status);
    Timed(&tracer_, "completeness.adom", decide, k, [&] {
      ActiveDomain adom = ActiveDomain::Build(
          spec.db, spec.master, ucq->Constants(), spec.constraints, variables);
      out->adom_values =
          static_cast<double>(adom.base().size() + adom.fresh().size());
    });
    Timed(&tracer_, "relational.freeze", decide, k, [&] {
      spec.db.Freeze();
      spec.master.Freeze();
      spec.db.Unfreeze();
      spec.master.Unfreeze();
    });
    Status closure = Status::OK();
    Timed(&tracer_, "constraints.closure", decide, k, [&] {
      closure = Satisfies(spec.constraints, spec.db, spec.master).status();
    });
    RELCOMP_RETURN_NOT_OK(closure);

    CancelSource cancel;
    ExecutionBudget budget;
    budget.set_cancel_token(cancel.token());
    RcdpOptions options;
    options.num_threads = std::max<size_t>(1, audit.job.num_threads);
    options.budget = &budget;
    const double cpu0 = ProcessCpuMs();
    Verdict verdict = Verdict::kUnknown;
    if (audit.job.kind == JobKind::kRcdp) {
      auto r = DecideRcdp(query, spec.db, spec.master, spec.constraints,
                          options);
      if (!r.ok()) return r.status();
      verdict = r->verdict;
      out->stats = r->stats;
    } else {
      RcqpOptions rcqp;
      rcqp.rcdp = options;
      auto r = DecideRcqp(query, spec.db_schema, spec.master,
                          spec.constraints, rcqp);
      if (!r.ok()) return r.status();
      verdict = r->verdict;
    }
    out->decide_cpu_ms = ProcessCpuMs() - cpu0;
    tracer_.End(decide);
    out->budget_steps = budget.steps();
    out->decided = verdict != Verdict::kUnknown;
    if (verdict != audit.expected) {
      return Status::Internal(StrCat("direct decide of audit ", k, " gave ",
                                     VerdictToString(verdict)));
    }
    return Status::OK();
  }

  /// Decision points of a sliced replay (the job's slice, resumed from
  /// each checkpoint as the service does) over an unsliced one.
  Status SlicedReplay(const Audit& audit, const CompletenessSpec& spec,
                      ReplayAudit* out) {
    const AnyQuery& query = spec.queries[audit.job.query_index];
    size_t sliced_steps = 0;
    std::optional<SearchCheckpoint> resume;
    for (size_t slice = 0; slice < 10000; ++slice) {
      CancelSource cancel;
      ExecutionBudget budget;
      budget.set_cancel_token(cancel.token());
      budget.set_max_steps(audit.job.slice_steps);
      RcdpOptions options;
      options.num_threads = std::max<size_t>(1, audit.job.num_threads);
      options.budget = &budget;
      options.resume = resume.has_value() ? &*resume : nullptr;
      auto r = DecideRcdp(query, spec.db, spec.master, spec.constraints,
                          options);
      if (!r.ok()) return r.status();
      sliced_steps += budget.steps();
      if (r->verdict != Verdict::kUnknown) {
        out->sliced_steps_ratio =
            out->budget_steps > 0 ? static_cast<double>(sliced_steps) /
                                        static_cast<double>(out->budget_steps)
                                  : 0;
        return Status::OK();
      }
      if (!r->checkpoint.has_value()) break;
      resume = std::move(r->checkpoint);
    }
    return Status::Internal("sliced replay did not finish");
  }

  std::string dir_;
  CountingFsEnv env_;
  CountingFsEnv cache_env_;
  std::unique_ptr<DecisionService> service_;
  std::unique_ptr<CheckpointStore> cache_store_;
  std::unique_ptr<VerdictCache> cache_;
  Tracer tracer_;
};

// --- Runs ------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool selftest = false;
};

/// Stores, sockets and trace files of a run, under the working directory.
constexpr char kRunRoot[] = ".bench_run";

void PrintProvenance(const Args& args, const WorkloadConfig& config) {
  const char* describe = std::getenv("PERFBENCH_GIT_DESCRIBE");
  std::cout << "provenance {\"build\": \"optimized\", \"nproc\": "
            << std::thread::hardware_concurrency() << ", \"git_describe\": \""
            << (describe != nullptr ? describe : "unknown")
            << "\", \"workload\": \"" << config.name << "\", \"seed\": "
            << args.seed << ", \"seconds\": " << args.seconds
            << ", \"trace\": " << args.trace
            << ", \"client_threads\": " << config.clients
            << ", \"connections\": " << config.clients
            << ", \"server_loop_threads\": 1, \"service_workers\": 1"
            << ", \"search_threads\": " << config.search_threads
            << ", \"slice_steps\": " << config.slice_steps
            << ", \"store\": \"local disk, fsync per record\"}\n";
}

int Fail(const std::string& what) {
  std::cerr << "perfbench: " << what << "\n";
  return 1;
}

struct Tally {
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<double> latency;  // in sequence order
  std::vector<double> traced_latency;
  std::vector<double> untraced_latency;
};

Tally TallyLoop(const LoopResult& loop) {
  Tally t;
  for (const Sample& s : loop.samples) {
    ++t.attempted;
    if (!s.outcome.ok) {
      ++t.failed;
      std::cerr << "perfbench: audit " << s.k << " failed: " << s.outcome.error
                << "\n";
      continue;
    }
    t.latency.push_back(s.outcome.latency_ms);
    (s.traced ? t.traced_latency : t.untraced_latency)
        .push_back(s.outcome.latency_ms);
  }
  return t;
}

int RunWorkload(const Args& args, const WorkloadConfig& config) {
  const std::string base =
      StrCat(kRunRoot, "/", config.name, "-", getpid());
  std::error_code ec;
  std::filesystem::remove_all(base, ec);
  CountingFsEnv env;
  FsEnv* served_env = args.trace ? &env : nullptr;

  std::vector<double> setup_s;
  Result<Prepared> prepared = Status::Internal("no set-up");
  for (size_t r = 0; r < kSetupRepeats; ++r) {
    if (prepared.ok()) {
      prepared->stack.reset();
      std::filesystem::remove_all(StrCat(base, "/setup", r - 1), ec);
    }
    prepared = SetUp(config, args.seed, StrCat(base, "/setup", r), served_env);
    if (!prepared.ok()) return Fail(prepared.status().ToString());
    setup_s.push_back(prepared->seconds);
  }
  Stack* stack = prepared->stack.get();
  const AuditSource& source = *prepared->source;

  PrintProvenance(args, config);
  const Counters before = ReadCounters(stack);
  const auto io_before = env.Snapshot();
  Tracer tracer;
  const double loop_seconds = args.trace ? args.seconds / 2 : args.seconds;
  LoopResult loop = RunLoop(config, source, stack, loop_seconds,
                            args.trace ? &tracer : nullptr);
  const Counters after = ReadCounters(stack);
  const auto io = IoDelta(io_before, env.Snapshot());
  Tally tally = TallyLoop(loop);
  const size_t ok_audits = tally.latency.size();
  const size_t mismatches =
      CheckRepeatingCounts(config, before, after, loop.samples.size());
  // A count that must repeat exactly and does not (say, repeat_audits
  // audits no longer served from the cache) makes the run incorrect.
  const bool correct = tally.failed == 0 && ok_audits > 0 && mismatches == 0;

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"verdict_p50_ms", Median(tally.latency), "ms"},
        {"verdict_p90_ms", WindowedTail(tally.latency), "ms"},
        {"audits_per_s", static_cast<double>(ok_audits) / loop.elapsed_s,
         "1/s"},
        {"cpu_ms_per_audit",
         loop.cpu_ms / static_cast<double>(std::max<size_t>(1, ok_audits)),
         "ms"},
        {"peak_rss_mb", loop.rss_at_mark_mb, "MB"},
        {"setup_s", Median(setup_s), "s"},
    };
    std::cout << ResultJson(correct, tally.attempted, tally.failed, metrics)
              << "\n";
    prepared->stack.reset();
    std::filesystem::remove_all(base, ec);
    return 0;
  }

  // Phase (b): replay the same audits, layer by layer.
  Replayer replayer(StrCat(base, "/replay"));
  Status started = replayer.Start(source);
  if (!started.ok()) return Fail(started.ToString());
  std::vector<ReplayAudit> replays;
  const Clock::time_point replay_deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds / 2));
  size_t replay_failed = 0;
  for (uint64_t k = 0;
       k < std::max<uint64_t>(3, loop.samples.size()) &&
       (k < 3 || Clock::now() < replay_deadline);
       ++k) {
    Result<ReplayAudit> r = replayer.Replay(k, source.Make(k));
    if (!r.ok()) {
      ++replay_failed;
      std::cerr << "perfbench: replay of audit " << k
                << " failed: " << r.status().ToString() << "\n";
      continue;
    }
    replays.push_back(std::move(*r));
  }

  // Per-layer numbers: medians over replayed audits.
  auto med = [&](auto field) {
    std::vector<double> v;
    for (const ReplayAudit& r : replays) v.push_back(field(r));
    return Median(v);
  };
  auto total = [&](const std::string& name) {
    return med([&](const ReplayAudit& r) {
      auto it = r.total_ms.find(name);
      return it == r.total_ms.end() ? 0.0 : it->second;
    });
  };
  auto self = [&](const std::string& name) {
    return med([&](const ReplayAudit& r) {
      auto it = r.self_ms.find(name);
      return it == r.self_ms.end() ? 0.0 : it->second;
    });
  };
  const double n = static_cast<double>(std::max<size_t>(1, loop.samples.size()));
  auto per_audit = [&](double v) { return v / n; };

  std::vector<double> net_submit, net_await, round_trips, retries, slices;
  for (const Sample& s : loop.samples) {
    net_submit.push_back(s.outcome.submit_ms);
    net_await.push_back(s.outcome.await_ms);
    round_trips.push_back(static_cast<double>(s.net_delta.round_trips));
    retries.push_back(static_cast<double>(s.net_delta.retries));
    slices.push_back(static_cast<double>(s.outcome.persisted));
  }
  const SiteIo io_total = IoTotal(io);
  auto site = [&](const char* tag) {
    auto it = io.find(tag);
    return it == io.end() ? SiteIo{} : it->second;
  };

  // Every span name of the replay tree below the audit root; their self
  // times plus the unexplained remainder add up to the traced p50.
  std::set<std::string> layers;
  for (const ReplayAudit& r : replays) {
    for (const auto& [name, ms] : r.self_ms) {
      if (name != "audit") layers.insert(name);
    }
  }
  double explained = 0;
  for (const std::string& layer : layers) explained += self(layer);
  const double traced_p50 = Median(tally.traced_latency);

  uint64_t steps_min = UINT64_MAX, steps_max = 0;
  for (const ReplayAudit& r : replays) {
    steps_min = std::min<uint64_t>(steps_min, r.budget_steps);
    steps_max = std::max<uint64_t>(steps_max, r.budget_steps);
  }
  size_t count_mismatches = mismatches;
  if (config.search_threads == 1 && !replays.empty() &&
      steps_min != steps_max) {
    ++count_mismatches;
    std::cerr << "perfbench: serial budget steps vary across audits: "
              << steps_min << ".." << steps_max << "\n";
  }

  metrics = {
      {"spec.parse_ms", total("spec.parse"), "ms"},
      {"spec.text_kb", med([](const ReplayAudit& r) { return r.text_kb; }),
       "KiB"},
      {"completeness.fingerprint_ms", total("completeness.fingerprint"), "ms"},
      {"service.submit_ms", total("service.submit"), "ms"},
      {"service.queue_wait_ms", total("service.queue_wait"), "ms"},
      {"service.run_ms", total("service.run"), "ms"},
      {"service.submit.self_ms", self("service.submit"), "ms"},
      {"service.run.self_ms", self("service.run"), "ms"},
      {"service.cache_lookup_us", total("service.cache_lookup") * 1e3, "us"},
      {"service.cache_insert_ms", total("service.cache_insert"), "ms"},
      {"service.cache_hit_ratio",
       after.cache.hits + after.cache.misses - before.cache.hits -
                   before.cache.misses >
               0
           ? static_cast<double>(after.cache.hits - before.cache.hits) /
                 static_cast<double>(after.cache.hits + after.cache.misses -
                                     before.cache.hits - before.cache.misses)
           : 0,
       "ratio"},
      {"service.store_fsyncs", per_audit(static_cast<double>(io_total.fsyncs)),
       "count"},
      {"service.store_kb_written",
       per_audit(static_cast<double>(io_total.bytes_written) / 1024.0), "KiB"},
      {"service.store_io_ms", per_audit(io_total.io_ms), "ms"},
      {"service.store_compactions",
       static_cast<double>(after.compactions - before.compactions), "count"},
  };
  for (const char* tag :
       {"record.job", "record.ckpt", "record.vrd", "journal", "dirsync"}) {
    const SiteIo s = site(tag);
    metrics.push_back({StrCat("service.store.", tag, ".fsyncs"),
                       per_audit(static_cast<double>(s.fsyncs)), "count"});
    metrics.push_back(
        {StrCat("service.store.", tag, ".kb_written"),
         per_audit(static_cast<double>(s.bytes_written) / 1024.0), "KiB"});
    metrics.push_back(
        {StrCat("service.store.", tag, ".io_ms"), per_audit(s.io_ms), "ms"});
  }
  const std::vector<Metric> rest = {
      {"service.slices", Median(slices), "count"},
      {"service.sliced_steps_ratio",
       med([](const ReplayAudit& r) { return r.sliced_steps_ratio; }),
       "ratio"},
      {"net.submit_ms", Median(net_submit), "ms"},
      {"net.await_ms", Median(net_await), "ms"},
      {"net.round_trips", Median(round_trips), "count"},
      {"net.retries", Median(retries), "count"},
      {"net.frame_us", med([](const ReplayAudit& r) { return r.frame_us; }),
       "us"},
      {"net.auth_us", med([](const ReplayAudit& r) { return r.auth_us; }),
       "us"},
      {"net.request_kb",
       med([](const ReplayAudit& r) { return r.request_kb; }), "KiB"},
      {"constraints.closure_ms", total("constraints.closure"), "ms"},
      {"query.unfold_ms", total("query.unfold"), "ms"},
      {"query.disjuncts",
       med([](const ReplayAudit& r) { return r.disjuncts; }), "count"},
      {"tableau.build_ms", total("tableau.build"), "ms"},
      {"completeness.adom_ms", total("completeness.adom"), "ms"},
      {"completeness.adom_values",
       med([](const ReplayAudit& r) { return r.adom_values; }), "count"},
      {"relational.freeze_ms", total("relational.freeze"), "ms"},
      {"completeness.decide_ms", total("completeness.decide"), "ms"},
      {"completeness.decide.self_ms", self("completeness.decide"), "ms"},
      {"completeness.decide_cpu_ms",
       med([](const ReplayAudit& r) { return r.decide_cpu_ms; }), "ms"},
      {"completeness.bindings",
       med([](const ReplayAudit& r) {
         return static_cast<double>(r.stats.bindings_tried);
       }),
       "count"},
      {"completeness.prune_ratio",
       med([](const ReplayAudit& r) {
         return r.stats.bindings_tried > 0
                    ? static_cast<double>(r.stats.prunes) /
                          static_cast<double>(r.stats.bindings_tried)
                    : 0.0;
       }),
       "ratio"},
      {"completeness.index_probes",
       med([](const ReplayAudit& r) {
         return static_cast<double>(r.stats.index_probes);
       }),
       "count"},
      {"completeness.relation_scans",
       med([](const ReplayAudit& r) {
         return static_cast<double>(r.stats.relation_scans);
       }),
       "count"},
      {"completeness.overlay_hits",
       med([](const ReplayAudit& r) {
         return static_cast<double>(r.stats.overlay_hits);
       }),
       "count"},
      {"completeness.composite_probes",
       med([](const ReplayAudit& r) {
         return static_cast<double>(r.stats.composite_probes);
       }),
       "count"},
      {"completeness.units_cancelled_ratio",
       med([](const ReplayAudit& r) {
         const size_t units =
             r.stats.work_units + r.stats.work_units_cancelled;
         return units > 0 ? static_cast<double>(r.stats.work_units_cancelled) /
                                static_cast<double>(units)
                          : 0.0;
       }),
       "ratio"},
      {"util.budget_steps",
       med([](const ReplayAudit& r) {
         return static_cast<double>(r.budget_steps);
       }),
       "count"},
      {"counters.cache_hits",
       per_audit(static_cast<double>(after.cache.hits - before.cache.hits)),
       "count"},
      {"counters.cache_misses",
       per_audit(static_cast<double>(after.cache.misses - before.cache.misses)),
       "count"},
      {"counters.cache_insertions",
       per_audit(static_cast<double>(after.cache.insertions -
                                     before.cache.insertions)),
       "count"},
      {"counters.served_from_cache",
       per_audit(static_cast<double>(after.served_from_cache -
                                     before.served_from_cache)),
       "count"},
      {"counters.checkpoints_persisted",
       per_audit(static_cast<double>(after.checkpoints_persisted -
                                     before.checkpoints_persisted)),
       "count"},
      {"counters.jobs_shed",
       static_cast<double>(after.jobs_shed - before.jobs_shed), "count"},
      {"counters.server_frames",
       per_audit(static_cast<double>(after.server.frames_received -
                                     before.server.frames_received)),
       "count"},
      {"counters.server_submits_deduped",
       static_cast<double>(after.server.submits_deduped -
                           before.server.submits_deduped),
       "count"},
      {"counters.server_protocol_errors",
       static_cast<double>(after.server.protocol_errors -
                           before.server.protocol_errors),
       "count"},
      {"counters.repeat_mismatches", static_cast<double>(count_mismatches),
       "count"},
      {"trace.verdict_p50_ms", traced_p50, "ms"},
      {"trace.untraced_p50_ms", Median(tally.untraced_latency), "ms"},
      {"trace.overhead_ms", traced_p50 - Median(tally.untraced_latency), "ms"},
      {"trace.explained_ms", explained, "ms"},
      {"trace.unexplained_ms", traced_p50 - explained, "ms"},
      {"trace.phase_a_audits", static_cast<double>(loop.samples.size()),
       "count"},
      {"trace.phase_b_audits", static_cast<double>(replays.size()), "count"},
  };
  metrics.insert(metrics.end(), rest.begin(), rest.end());

  std::cout << "layers (self ms per audit, median):";
  for (const std::string& layer : layers) {
    std::cout << " " << layer << "=" << self(layer);
  }
  std::cout << " unexplained=" << traced_p50 - explained << "\n";
  const std::string trace_path =
      StrCat(kRunRoot, "/trace-", config.name, "-", args.seed, ".tsv");
  if (!tracer.WriteTsv(trace_path) ||
      !replayer.tracer().WriteTsv(trace_path + ".replay")) {
    std::cerr << "perfbench: could not write " << trace_path << "\n";
  }
  std::cout << ResultJson(correct && count_mismatches == 0 &&
                              replay_failed == 0 && !replays.empty(),
                          tally.attempted + replays.size() + replay_failed,
                          tally.failed + replay_failed, metrics)
            << "\n";
  prepared->stack.reset();
  std::filesystem::remove_all(base, ec);
  return 0;
}

// --- Known answers against the brute-force oracles --------------------

/// Runs the smallest instance of each workload through the real decider
/// and the definition-chasing oracle, and checks both against the
/// generator's known answer.
int SelfTest() {
  int failures = 0;
  for (const WorkloadConfig& config : Workloads()) {
    AuditSource source(config, /*seed=*/7, /*scale=*/0);
    const Audit audit =
        source.distinct_specs() > 0 ? source.spec(0) : source.Make(0);
    auto spec = ParseCompletenessSpec(audit.job.spec_text);
    if (!spec.ok()) return Fail(spec.status().ToString());
    const AnyQuery& query = spec->queries[audit.job.query_index];
    BruteForceOptions bf;
    bf.extra_fresh = 1;
    bf.max_steps = 50000000;
    bool decider_ok = false;
    bool oracle_ok = false;
    if (audit.job.kind == JobKind::kRcdp) {
      RcdpOptions options;
      options.num_threads = audit.job.num_threads;
      auto r = DecideRcdp(query, spec->db, spec->master, spec->constraints,
                          options);
      if (!r.ok()) return Fail(r.status().ToString());
      const std::string evidence = StrCat(
          VerdictToString(r->verdict), "|-|",
          r->new_answer.has_value() ? r->new_answer->ToString() : "<none>");
      decider_ok = MatchesKnownAnswer(audit, r->verdict, evidence);
      // One added tuple suffices for both instances: Q3 has one tableau
      // row, and Q1's counterexample needs a single Cust tuple.
      bf.max_delta_tuples = 1;
      auto o = BruteForceRcdp(query, spec->db, spec->master,
                              spec->constraints, bf);
      if (!o.ok()) return Fail(o.status().ToString());
      oracle_ok = o->complete == (audit.expected == Verdict::kComplete);
    } else {
      RcqpOptions options;
      options.rcdp.num_threads = audit.job.num_threads;
      auto r = DecideRcqp(query, spec->db_schema, spec->master,
                          spec->constraints, options);
      if (!r.ok()) return Fail(r.status().ToString());
      decider_ok = MatchesKnownAnswer(
          audit, r->verdict,
          StrCat(VerdictToString(r->verdict), "|-|", r->method, "|-"));
      // Candidate databases over the master constants and one fresh
      // value; the one-tuple witness {Supt(e0, v, c0)} lies inside.
      bf.max_database_tuples = 1;
      bf.max_delta_tuples = 1;
      const Relation& dcust = spec->master.Get("DCust");
      if (dcust.size() == 0) return Fail("smallest instance has no DCust");
      bf.universe = {Value::Str("e0"), (*dcust.begin())[0],
                     Value::Str("fresh0")};
      auto o = BruteForceRcqp(query, spec->db_schema, spec->master,
                              spec->constraints, bf);
      if (!o.ok()) return Fail(o.status().ToString());
      oracle_ok = o->exists == (audit.expected == Verdict::kComplete);
    }
    std::cout << config.name << ": decider "
              << (decider_ok ? "matches" : "DIFFERS from")
              << " the known answer; oracle "
              << (oracle_ok ? "matches" : "DIFFERS") << "\n";
    if (!decider_ok || !oracle_ok) ++failures;
  }
  std::cout << (failures == 0 ? "selftest: OK" : "selftest: FAILED") << "\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::Args;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--selftest") {
      args.selftest = true;
    } else if (flag == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (flag == "--trace" && has_value) {
      args.trace = std::atoi(argv[++i]);
    } else {
      return perfbench::Fail("usage: perfbench --workload NAME --seed N "
                             "--seconds S --trace 0|1 | --selftest");
    }
  }
  if (!perfbench::kOptimizedBuild) {
    return perfbench::Fail(
        "refusing to report from a non-optimized build (need -O2 and NDEBUG)");
  }
  if (args.selftest) return perfbench::SelfTest();
  const perfbench::WorkloadConfig* config =
      perfbench::FindWorkload(args.workload);
  if (config == nullptr || args.seconds <= 0 ||
      (args.trace != 0 && args.trace != 1)) {
    return perfbench::Fail("unknown workload or bad --seconds/--trace");
  }
  return perfbench::RunWorkload(args, *config);
}
