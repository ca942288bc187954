#include "service/decision_service.h"

#include <algorithm>

#include "completeness/incremental.h"
#include "completeness/rcqp.h"
#include "spec/spec_parser.h"
#include "util/codec.h"
#include "util/str.h"

namespace relcomp {
namespace {

constexpr char kJobMagic[] = "relcomp-job/1";
constexpr const char* kKindTokens[] = {"rcdp", "rcqp", "chase"};

/// The bounds every admitted job is held to, whether it arrives over
/// the wire, through an in-process Submit or from a recovered record.
Status CheckJobBounds(const JobSpec& spec) {
  if (spec.num_threads > kMaxJobThreads) {
    return Status::InvalidArgument(
        StrCat("job asks for ", spec.num_threads,
               " search threads; the cap is ", kMaxJobThreads));
  }
  if (spec.deadline.has_value() &&
      (spec.deadline->count() < 0 || *spec.deadline > kMaxJobDeadline)) {
    return Status::InvalidArgument(
        StrCat("job deadline of ", spec.deadline->count(),
               " ms is outside [0, ", kMaxJobDeadline.count(), "] ms"));
  }
  return Status::OK();
}

/// Canonical evidence strings — the bit-for-bit comparison keys of the
/// crash-recovery sweep. Anything the paper's characterizations yield
/// as evidence is folded in; two runs decided identically iff equal.
std::string RcdpEvidence(const RcdpResult& r) {
  return StrCat(VerdictToString(r.verdict), "|",
                r.counterexample_delta.has_value()
                    ? r.counterexample_delta->ToString()
                    : std::string("<none>"),
                "|",
                r.new_answer.has_value() ? r.new_answer->ToString()
                                         : std::string("<none>"));
}

std::string RcqpEvidence(const RcqpResult& r) {
  return StrCat(VerdictToString(r.verdict), "|",
                r.exists ? "exists" : "not-exists", "|", r.method, "|",
                r.witness.has_value() ? r.witness->ToString()
                                      : std::string("<none>"));
}

std::string ChaseEvidence(const ChaseResult& r) {
  return StrCat(VerdictToString(r.verdict), "|rounds=", r.rounds, "|",
                r.db.ToString());
}

/// Checks a job's bounds, parses its spec and checks its query index:
/// the one parse a job gets, at admission (or at recovery).
Result<CompletenessSpec> ParseJob(const JobSpec& spec) {
  RELCOMP_RETURN_NOT_OK(CheckJobBounds(spec));
  RELCOMP_ASSIGN_OR_RETURN(CompletenessSpec parsed,
                           ParseCompletenessSpec(spec.spec_text));
  if (spec.query_index >= parsed.queries.size()) {
    return Status::InvalidArgument(
        StrCat("query index ", spec.query_index, " out of range; spec has ",
               parsed.queries.size(), " queries"));
  }
  return parsed;
}

}  // namespace

const char* JobKindToString(JobKind kind) {
  return kKindTokens[static_cast<size_t>(kind)];
}

// --- JobSpec wire form ----------------------------------------------
//
//   relcomp-job/1 <kind> <query> <threads> <slice> <deadline_ms|->
//   <chase_rounds> <len>:<spec text>

std::string JobSpec::Serialize() const {
  std::string out = StrCat(
      kJobMagic, " ", JobKindToString(kind), " ", query_index, " ",
      num_threads, " ", slice_steps, " ",
      deadline.has_value() ? StrCat(deadline->count()) : std::string("-"),
      " ", max_chase_rounds, " ");
  AppendSized(spec_text, &out);
  return out;
}

Result<JobSpec> JobSpec::Deserialize(std::string_view text) {
  CodecReader r(kJobMagic, text);
  JobSpec spec;
  RELCOMP_RETURN_NOT_OK(r.Magic(kJobMagic));
  RELCOMP_ASSIGN_OR_RETURN(const size_t kind, r.Token(kKindTokens));
  spec.kind = static_cast<JobKind>(kind);
  RELCOMP_ASSIGN_OR_RETURN(spec.query_index, r.U64());
  RELCOMP_RETURN_NOT_OK(r.Expect(" "));
  RELCOMP_ASSIGN_OR_RETURN(spec.num_threads, r.U64());
  RELCOMP_RETURN_NOT_OK(r.Expect(" "));
  RELCOMP_ASSIGN_OR_RETURN(spec.slice_steps, r.U64());
  RELCOMP_RETURN_NOT_OK(r.Expect(" "));
  if (!r.Accept("-")) {
    // A count above INT64_MAX wraps negative here and is refused by
    // CheckJobBounds with every other out-of-range deadline.
    RELCOMP_ASSIGN_OR_RETURN(const uint64_t ms, r.U64());
    spec.deadline = std::chrono::milliseconds(static_cast<int64_t>(ms));
  }
  RELCOMP_RETURN_NOT_OK(r.Expect(" "));
  RELCOMP_ASSIGN_OR_RETURN(spec.max_chase_rounds, r.U64());
  RELCOMP_RETURN_NOT_OK(r.Expect(" "));
  RELCOMP_ASSIGN_OR_RETURN(const std::string_view spec_text, r.Sized());
  RELCOMP_RETURN_NOT_OK(r.End());
  RELCOMP_RETURN_NOT_OK(CheckJobBounds(spec));
  spec.spec_text = std::string(spec_text);
  return spec;
}

uint64_t JobSpec::Digest(std::string_view serialized) {
  return FingerprintString(serialized);
}

// --- Job state ------------------------------------------------------

struct DecisionService::Job {
  std::string id;
  /// The admitted spec. Its spec_text is released when the job becomes
  /// terminal; spec_digest keeps the identity idempotent resubmission
  /// is checked against.
  JobSpec spec;
  uint64_t spec_digest = 0;
  /// The parsed spec, owned from admission until RunJob takes it.
  std::unique_ptr<CompletenessSpec> problem;
  /// The instance fingerprint, when admission already computed it (the
  /// degraded-mode cache check), so RunJob does not compute it again.
  std::optional<uint64_t> instance_fp;
  /// Absolute EDF deadline (time_point::max() when the spec has none).
  std::chrono::steady_clock::time_point deadline;
  /// Admitted while degraded, against the verdict cache, with no
  /// durable job record — the store is never asked to Forget it.
  bool ephemeral = false;
  bool running = false;
  bool terminal = false;
  /// Set by Cancel(): the job was explicitly abandoned, so its durable
  /// record is removed when it reaches the terminal state.
  bool cancel_requested = false;
  /// Per-job cancellation: its token is the one the job's budget polls;
  /// Cancel() and the service-wide crash path both fire it.
  CancelSource cancel;
  /// Non-OK when the job failed before producing a decider result
  /// (unparseable spec, store failure, ...).
  Status terminal_status;
  JobResult result;
};

// --- Lifecycle ------------------------------------------------------

DecisionService::DecisionService(DecisionServiceOptions options)
    : options_(std::move(options)) {}

Result<std::unique_ptr<DecisionService>> DecisionService::Start(
    const std::string& store_directory,
    const DecisionServiceOptions& options) {
  std::unique_ptr<DecisionService> service(new DecisionService(options));
  RELCOMP_ASSIGN_OR_RETURN(
      service->store_,
      CheckpointStore::Open(store_directory, options.store_options));
  service->paused_ = options.start_paused;
  if (options.enable_verdict_cache) {
    service->verdict_cache_ =
        std::make_unique<VerdictCache>(service->store_.get());
  }

  // Recovery: every request with a durable job record is still
  // in-flight — re-create and re-enqueue it. Recovered jobs bypass
  // admission control (shedding a job the previous process already
  // accepted would break the "accepted means survives a kill"
  // contract). Each is parsed here, once; one whose spec no longer
  // parses ends terminal with the parse error.
  for (const std::string& id : service->store_->PendingRequests()) {
    Result<std::string> payload = service->store_->LoadJob(id);
    if (!payload.ok()) continue;  // corrupt record: skipped, counted
    Result<JobSpec> spec = JobSpec::Deserialize(*payload);
    if (!spec.ok()) continue;
    Result<CompletenessSpec> parsed = ParseJob(*spec);
    auto job = std::make_unique<Job>();
    job->id = id;
    job->spec_digest = JobSpec::Digest(spec->Serialize());
    job->spec = std::move(*spec);
    std::lock_guard<std::mutex> lock(service->mu_);
    service->recovered_.push_back(id);
    if (parsed.ok()) {
      job->problem = std::make_unique<CompletenessSpec>(std::move(*parsed));
      service->AdmitLocked(std::move(job));
      continue;
    }
    service->store_->Forget(id);
    service->FinishLocked(job.get(), parsed.status());
    service->jobs_[id] = std::move(job);
  }

  const size_t workers = std::max<size_t>(1, options.num_workers);
  service->workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    service->workers_.emplace_back(
        [svc = service.get()] { svc->WorkerLoop(); });
  }
  if (options.store_probe_interval.count() > 0) {
    service->prober_ = std::thread([svc = service.get()] {
      svc->ProberLoop();
    });
  }
  return service;
}

DecisionService::~DecisionService() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stopping_ = true;
    paused_ = false;
  }
  queue_cv_.notify_all();
  result_cv_.notify_all();
  probe_cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  if (prober_.joinable()) prober_.join();
}

void DecisionService::Resume() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    paused_ = false;
  }
  queue_cv_.notify_all();
}

Status DecisionService::Quiesce() {
  std::unique_lock<std::mutex> lock(mu_);
  if (crashed_) {
    return Status::FailedPrecondition("decision service crashed");
  }
  if (stopping_) {
    return Status::FailedPrecondition("decision service is shutting down");
  }
  detaching_ = true;
  paused_ = false;  // a paused worker must wake to observe the detach
  // Trip every non-terminal job's budget WITHOUT cancel_requested: the
  // running decider unwinds at its next decision point, persists the
  // unwound checkpoint, and finishes kUnknown/cancel in memory — but
  // the durable job record and checkpoint are KEPT (Forget only fires
  // for explicit Cancel), which is precisely the state the successor's
  // recovery resumes from. Queued jobs ignore the token; they simply
  // stay on disk.
  for (auto& [id, job] : jobs_) {
    if (!job->terminal) job->cancel.RequestCancel();
  }
  queue_cv_.notify_all();
  result_cv_.wait(lock, [&] {
    if (crashed_) return true;
    for (const auto& [id, job] : jobs_) {
      if (job->running) return false;
    }
    return true;
  });
  if (crashed_) {
    return Status::FailedPrecondition(
        "decision service crashed while flushing for handoff");
  }
  return Status::OK();
}

std::vector<std::string> DecisionService::RecoveredJobs() const {
  std::unique_lock<std::mutex> lock(mu_);
  return recovered_;
}

bool DecisionService::crashed() const {
  std::unique_lock<std::mutex> lock(mu_);
  return crashed_;
}

size_t DecisionService::jobs_shed() const {
  std::unique_lock<std::mutex> lock(mu_);
  return jobs_shed_;
}

std::vector<std::string> DecisionService::completed_order() const {
  std::unique_lock<std::mutex> lock(mu_);
  return completed_order_;
}

size_t DecisionService::verdicts_served_from_cache() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_served_;
}

bool DecisionService::degraded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return degraded_;
}

size_t DecisionService::persists_skipped_degraded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return persists_skipped_degraded_;
}

size_t DecisionService::submits_shed_degraded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return submits_shed_degraded_;
}

size_t DecisionService::ephemeral_admissions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ephemeral_admissions_;
}

std::string DecisionService::HealthState() const {
  // Store health first (its own lock), then the service lock — never
  // nested the other way.
  const StoreHealth store_health = store_->health();
  std::lock_guard<std::mutex> lock(mu_);
  if (crashed_) return "down";
  if (store_health == StoreHealth::kReadOnly) return "readonly";
  if (degraded_ || store_health == StoreHealth::kDegraded) return "degraded";
  return "healthy";
}

std::string DecisionService::HealthLine(std::string_view label) const {
  const StoreHealthReport report = store_->health_report();
  std::string state = HealthState();
  std::lock_guard<std::mutex> lock(mu_);
  return StrCat("shard ", label, " state=", state,
                " io_errors=", report.io_errors,
                " write_failures=", report.write_failures,
                " fsync_failures=", report.fsync_failures,
                " probes=", report.probes_succeeded, "/",
                report.probes_attempted, " shed=", submits_shed_degraded_,
                " ephemeral=", ephemeral_admissions_);
}

Status DecisionService::ProbeStoreNow() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (crashed_) {
      return Status::FailedPrecondition("decision service crashed");
    }
  }
  // The probe does real (small) I/O; don't hold the service lock over
  // it — the store serializes itself.
  Status probed = store_->ProbeHealth();
  std::lock_guard<std::mutex> lock(mu_);
  if (probed.ok()) degraded_ = false;
  return probed;
}

void DecisionService::ProberLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  std::chrono::milliseconds delay = options_.store_probe_interval;
  bool sick = false;
  for (;;) {
    if (!sick) {
      // Parked: wake promptly when a persist failure degrades the
      // service, or on the interval tick (the store can sicken through
      // a path that doesn't notify, e.g. a failed cache write).
      probe_cv_.wait_for(lock, options_.store_probe_interval, [&] {
        return stopping_ || crashed_ || degraded_;
      });
    } else {
      // Backing off between probes of a sick store.
      probe_cv_.wait_for(lock, delay,
                         [&] { return stopping_ || crashed_; });
    }
    if (stopping_ || crashed_) return;
    sick = degraded_ || store_->health() != StoreHealth::kHealthy;
    if (!sick) {
      delay = options_.store_probe_interval;
      continue;
    }
    lock.unlock();
    Status probed = store_->ProbeHealth();
    lock.lock();
    if (stopping_ || crashed_) return;
    if (probed.ok()) {
      // The single healing edge: a demonstrated full durability cycle.
      degraded_ = false;
      sick = false;
      delay = options_.store_probe_interval;
    } else {
      // Still sick: back off (capped) so a dead disk is not hammered.
      delay = std::min(options_.store_probe_backoff_cap, delay * 2);
    }
  }
}

size_t DecisionService::checkpoints_persisted() const {
  std::unique_lock<std::mutex> lock(mu_);
  return persist_ordinal_;
}

// --- Admission ------------------------------------------------------

Status DecisionService::RefuseLocked(const std::string& request_id,
                                     const JobSpec& spec) {
  if (crashed_) {
    return Status::FailedPrecondition("decision service crashed");
  }
  if (stopping_) {
    return Status::FailedPrecondition("decision service is shutting down");
  }
  if (detaching_) {
    return Status::FailedPrecondition(
        "decision service is detaching (planned shard handoff)");
  }
  // Load shedding: admission is bounded by jobs not yet terminal, so a
  // burst beyond the bound is rejected up front instead of growing the
  // queue without limit.
  if (queued_count_ >= options_.max_queue_depth) {
    ++jobs_shed_;
    return Status::ResourceExhausted(
        StrCat("admission control: ", queued_count_,
               " jobs in flight, queue depth limit is ",
               options_.max_queue_depth, "; job \"", request_id,
               "\" shed"));
  }
  // Degraded mode: the store cannot make new jobs durable, so the
  // "accepted means survives a kill" contract is unpayable — durable
  // admission is shed typed. The one thing still admissible is a new
  // kRcdp job the verdict cache can answer without the disk; whether
  // it can is known only after the parse.
  const bool taken = jobs_.count(request_id) > 0;
  if (degraded_ && (verdict_cache_ == nullptr ||
                    spec.kind != JobKind::kRcdp || taken)) {
    return ShedDegradedLocked(request_id);
  }
  if (taken) {
    return Status::InvalidArgument(
        StrCat("duplicate request id: ", request_id));
  }
  return Status::OK();
}

Status DecisionService::ShedDegradedLocked(const std::string& request_id) {
  ++jobs_shed_;
  ++submits_shed_degraded_;
  return Status::ResourceExhausted(
      StrCat("store degraded: durable admission suspended until a "
             "health probe succeeds; job \"", request_id, "\" shed"));
}

Status DecisionService::Submit(const std::string& request_id,
                               const JobSpec& spec) {
  // Refusals that need no parse come first: a full queue or a crashed,
  // stopping or detaching service refuses before paying for one.
  bool degraded_at_entry = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    RELCOMP_RETURN_NOT_OK(RefuseLocked(request_id, spec));
    degraded_at_entry = degraded_;
  }

  // The job's one parse, its record and the record's digest are built
  // outside mu_: for a large spec they are the cost of admission, and
  // the network server runs every Submit on its one loop thread.
  // Rejecting an unparseable spec here means a worker (or, worse, a
  // restarted process during recovery) never meets it.
  Result<CompletenessSpec> parsed = ParseJob(spec);
  const std::string record = spec.Serialize();
  auto job = std::make_unique<Job>();
  job->id = request_id;
  job->spec = spec;
  job->spec_digest = JobSpec::Digest(record);
  bool cache_hit = false;
  if (parsed.ok()) {
    if (degraded_at_entry) {
      // RefuseLocked let a degraded submit through only for this check.
      job->instance_fp = FingerprintRcdpInstance(
          parsed->queries[spec.query_index], parsed->db, parsed->master,
          parsed->constraints);
      cache_hit = verdict_cache_->Lookup(*job->instance_fp).has_value();
    }
    job->problem = std::make_unique<CompletenessSpec>(std::move(*parsed));
  }

  std::unique_lock<std::mutex> lock(mu_);
  // The service may have changed state while the spec was parsed.
  RELCOMP_RETURN_NOT_OK(RefuseLocked(request_id, spec));
  if (degraded_) {
    // Admitted ephemerally (no job record; it never claimed
    // durability), to be served from memory. A service that degraded
    // during the parse has no cache answer at hand and sheds.
    if (!cache_hit) return ShedDegradedLocked(request_id);
    ++ephemeral_admissions_;
    job->ephemeral = true;
    AdmitLocked(std::move(job));
    return Status::OK();
  }
  if (!parsed.ok()) return parsed.status();
  // Durability before admission: once Submit returns OK the job
  // survives a kill.
  Status persisted = store_->PersistJob(request_id, record);
  if (!persisted.ok()) {
    if (persisted.code() == StatusCode::kFailedPrecondition) {
      return persisted;  // crashed / fenced store, not a disk fault
    }
    // First contact with the bad disk on the admission path: degrade
    // now and shed this job typed, so the caller gets the same
    // retryable answer every later degraded submit will.
    degraded_ = true;
    ++jobs_shed_;
    ++submits_shed_degraded_;
    return Status::ResourceExhausted(
        StrCat("store write failed (", persisted.message(),
               "); durable admission suspended; job \"", request_id,
               "\" shed"));
  }
  AdmitLocked(std::move(job));
  return Status::OK();
}

void DecisionService::AdmitLocked(std::unique_ptr<Job> job) {
  job->deadline = job->spec.deadline.has_value()
                      ? std::chrono::steady_clock::now() + *job->spec.deadline
                      : std::chrono::steady_clock::time_point::max();
  queue_.emplace(std::make_pair(job->deadline, next_seq_++), job->id);
  ++queued_count_;
  jobs_[job->id] = std::move(job);
  queue_cv_.notify_one();
}

void DecisionService::FinishLocked(Job* job, Status status) {
  job->running = false;
  job->terminal = true;
  job->terminal_status = std::move(status);
  job->problem.reset();
  std::string().swap(job->spec.spec_text);  // clear() would keep the buffer
  completed_order_.push_back(job->id);
  result_cv_.notify_all();
}

Result<JobResult> DecisionService::Wait(const std::string& request_id) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = jobs_.find(request_id);
  if (it == jobs_.end()) {
    return Status::NotFound(StrCat("unknown request id: ", request_id));
  }
  Job* job = it->second.get();
  result_cv_.wait(lock, [&] { return job->terminal || crashed_; });
  if (!job->terminal) {
    return Status::FailedPrecondition(
        StrCat("decision service crashed before job \"", request_id,
               "\" finished; restart a service on ", store_->directory(),
               " to resume it"));
  }
  if (!job->terminal_status.ok()) return job->terminal_status;
  return job->result;
}

Result<DecisionService::JobPoll> DecisionService::Poll(
    const std::string& request_id) const {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = jobs_.find(request_id);
  if (it == jobs_.end()) {
    return Status::NotFound(StrCat("unknown request id: ", request_id));
  }
  const Job* job = it->second.get();
  if (!job->terminal && crashed_) {
    return Status::FailedPrecondition(
        StrCat("decision service crashed before job \"", request_id,
               "\" finished; restart a service on ", store_->directory(),
               " to resume it"));
  }
  if (job->terminal && !job->terminal_status.ok()) {
    return job->terminal_status;
  }
  JobPoll poll;
  poll.terminal = job->terminal;
  poll.running = job->running;
  if (job->terminal) poll.result = job->result;
  return poll;
}

Status DecisionService::Cancel(const std::string& request_id) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = jobs_.find(request_id);
  if (it == jobs_.end()) {
    return Status::NotFound(StrCat("unknown request id: ", request_id));
  }
  Job* job = it->second.get();
  if (job->terminal) return Status::OK();  // idempotent
  if (crashed_) {
    return Status::FailedPrecondition("decision service crashed");
  }
  job->cancel_requested = true;
  job->cancel.RequestCancel();
  if (!job->running) {
    // Still queued: finish it here instead of waking a worker for a
    // job that will only unwind. Linear scan — the queue is bounded by
    // max_queue_depth.
    for (auto q = queue_.begin(); q != queue_.end(); ++q) {
      if (q->second == request_id) {
        queue_.erase(q);
        break;
      }
    }
    if (!job->ephemeral) store_->Forget(request_id);
    job->result.verdict = Verdict::kUnknown;
    job->result.evidence =
        StrCat("unknown|", BudgetKindToString(BudgetKind::kCancel));
    job->result.exhaustion.kind = BudgetKind::kCancel;
    job->result.exhaustion.detail = "cancelled before execution";
    --queued_count_;
    FinishLocked(job, Status::OK());
  }
  return Status::OK();
}

Result<uint64_t> DecisionService::JobDigest(
    const std::string& request_id) const {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = jobs_.find(request_id);
  if (it == jobs_.end()) {
    return Status::NotFound(StrCat("unknown request id: ", request_id));
  }
  return it->second->spec_digest;
}

// --- Execution ------------------------------------------------------

void DecisionService::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    queue_cv_.wait(lock, [&] {
      return stopping_ || crashed_ || detaching_ ||
             (!paused_ && !queue_.empty());
    });
    if (crashed_) return;
    // Detach beats drain: a handoff wants queued jobs LEFT on disk for
    // the successor, so workers park instead of running them down the
    // way plain destruction does.
    if (detaching_) return;
    if (queue_.empty()) {
      if (stopping_) return;
      continue;
    }
    // Oldest (earliest) deadline first; FIFO among deadline ties and
    // deadline-free jobs via the admission sequence number.
    auto front = queue_.begin();
    Job* job = jobs_.at(front->second).get();
    queue_.erase(front);
    job->running = true;
    RunJob(job, lock);
    if (crashed_) return;
  }
}

void DecisionService::RunJob(Job* job,
                             std::unique_lock<std::mutex>& lock) {
  auto finish = [&](Status status) {
    // Terminal bookkeeping under the lock; `lock` is held here.
    --queued_count_;
    FinishLocked(job, std::move(status));
  };

  const JobSpec& spec = job->spec;
  // The job's one parse ran at admission; its parsed spec is freed
  // when this returns.
  std::unique_ptr<CompletenessSpec> owned = std::move(job->problem);
  const CompletenessSpec& problem = *owned;
  const AnyQuery& query = problem.queries[spec.query_index];
  const std::optional<uint64_t> admitted_fp = job->instance_fp;
  lock.unlock();

  // Verdict-cache fast path: a decided verdict cached for this exact
  // instance content (strong fingerprint over Q, V, D, Dm — thread
  // count deliberately excluded, verdicts are thread-count-invariant)
  // is re-served without running any search. kRcdp only; the other
  // deciders have no content fingerprint.
  uint64_t instance_fp = 0;
  if (verdict_cache_ != nullptr && spec.kind == JobKind::kRcdp) {
    instance_fp = admitted_fp.has_value()
                      ? *admitted_fp
                      : FingerprintRcdpInstance(query, problem.db,
                                                problem.master,
                                                problem.constraints);
    if (std::optional<CachedVerdict> cached =
            verdict_cache_->Lookup(instance_fp)) {
      if (!job->ephemeral) store_->Forget(job->id);
      owned.reset();  // free a large parse before taking the lock
      lock.lock();
      if (crashed_) return;
      job->result.verdict = cached->verdict;
      job->result.evidence = std::move(cached->evidence);
      ++cache_served_;
      finish(Status::OK());
      return;
    }
  }

  ExecutionBudget budget;
  if (spec.deadline.has_value()) budget.set_deadline(job->deadline);
  budget.set_cancel_token(job->cancel.token());
  if (options_.fault_injector != nullptr) {
    budget.set_fault_injector(options_.fault_injector);
  }

  // Resume state. rcdp/rcqp checkpoints are self-contained, so the
  // newest valid stored generation seeds the run (this is the
  // crash-recovery path). A chase checkpoint is only meaningful
  // together with the partially chased database, which does not
  // survive the process — a recovered chase restarts from round 0.
  std::optional<SearchCheckpoint> resume;
  if (spec.kind != JobKind::kChase) {
    Result<PersistedCheckpoint> persisted =
        store_->LoadLatestCheckpoint(job->id);
    if (persisted.ok()) {
      resume = std::move(persisted->checkpoint);
      job->result.checkpoint_path = persisted->path;
    }
  }

  RcdpOptions rcdp_options;
  rcdp_options.num_threads = std::max<size_t>(1, spec.num_threads);
  rcdp_options.budget = &budget;
  rcdp_options.resume = resume.has_value() ? &*resume : nullptr;

  // Rolling persists: the decider runs once, with no step cap, and
  // reports each advance of its lowest unsearched position; once
  // slice_steps decision points have passed since the last durable
  // generation, the next report is persisted. The sink's calls are
  // serialized, so `durable_at` needs no lock. A chase reports nothing
  // (recovery restarts it at round 0 anyway), and an ephemeral job has
  // no durable identity to persist under.
  size_t durable_at = 0;
  if (spec.slice_steps > 0 && !job->ephemeral &&
      spec.kind != JobKind::kChase) {
    rcdp_options.progress = [&](const SearchCheckpoint& ckpt) {
      const size_t steps = budget.steps();
      if (steps - durable_at < spec.slice_steps) return;
      std::unique_lock<std::mutex> persist_lock(mu_);
      if (crashed_) return;
      bool persisted = false;
      PersistAndMaybeCrash(job, ckpt, /*budget_saw_crash=*/false, &persisted,
                           persist_lock);
      if (persisted) durable_at = steps;
    };
  }

  Verdict verdict = Verdict::kUnknown;
  std::string evidence;
  std::optional<SearchCheckpoint> checkpoint;
  ExhaustionInfo exhaustion;
  Status decide_status = Status::OK();
  switch (spec.kind) {
    case JobKind::kRcdp: {
      Result<RcdpResult> r = DecideRcdp(query, problem.db, problem.master,
                                        problem.constraints, rcdp_options);
      if (!r.ok()) { decide_status = r.status(); break; }
      verdict = r->verdict;
      evidence = RcdpEvidence(*r);
      checkpoint = std::move(r->checkpoint);
      exhaustion = r->exhaustion;
      break;
    }
    case JobKind::kRcqp: {
      RcqpOptions options;
      options.rcdp = rcdp_options;
      options.rcdp.resume = nullptr;  // travels inside the checkpoint
      options.resume = rcdp_options.resume;
      Result<RcqpResult> r =
          DecideRcqp(query, problem.db_schema, problem.master,
                     problem.constraints, options);
      if (!r.ok()) { decide_status = r.status(); break; }
      verdict = r->verdict;
      evidence = RcqpEvidence(*r);
      checkpoint = std::move(r->checkpoint);
      exhaustion = r->exhaustion;
      break;
    }
    case JobKind::kChase: {
      Result<ChaseResult> r = ChaseToCompleteness(
          query, problem.db, problem.master, problem.constraints,
          spec.max_chase_rounds, rcdp_options);
      if (!r.ok()) { decide_status = r.status(); break; }
      verdict = r->verdict;
      evidence = ChaseEvidence(*r);
      checkpoint = std::move(r->checkpoint);
      exhaustion = r->exhaustion;
      break;
    }
  }

  // Populate the cache before re-taking the service lock (the cache
  // write fsyncs; don't stall the other workers on it). Best-effort:
  // a failed cache write must not fail the job.
  if (verdict_cache_ != nullptr && spec.kind == JobKind::kRcdp &&
      decide_status.ok() && verdict != Verdict::kUnknown) {
    Status cache_st = verdict_cache_->Insert(instance_fp, verdict, evidence);
    (void)cache_st;
  }

  lock.lock();
  if (crashed_) return;  // a simulated kill landed mid-decide
  job->result.attempts = 1;

  if (!decide_status.ok()) {
    if (!job->ephemeral) store_->Forget(job->id);
    finish(std::move(decide_status));
    return;
  }

  if (verdict != Verdict::kUnknown) {
    job->result.verdict = verdict;
    job->result.evidence = std::move(evidence);
    if (!job->ephemeral) store_->Forget(job->id);
    finish(Status::OK());
    return;
  }

  // kUnknown. The service arms no step or memory cap, so only a
  // deadline, a cancel (Cancel, Quiesce or another job's crash), the
  // crash harness or the chase's round cap stops a job — none of which
  // a retry would get past. Persist the resume point first: crash
  // simulation and real kills alike must find it durable. An ephemeral
  // job never persists (it has no durable identity to attach a
  // generation to).
  const bool budget_saw_crash =
      budget.exhausted_kind() == BudgetKind::kCrash;
  if (checkpoint.has_value()) {
    bool persisted = false;
    if (!job->ephemeral &&
        !PersistAndMaybeCrash(job, *checkpoint, budget_saw_crash, &persisted,
                              lock)) {
      return;  // simulated kill (or store failure after crash)
    }
  } else if (budget_saw_crash) {
    // Nothing to persist (exhaustion before the first checkpointable
    // point) — the kill still happens; recovery restarts from the job
    // record alone.
    CrashLocked();
    return;
  }
  // The job ends kUnknown with its newest checkpoint retained in the
  // store for a manual resume — unless an explicit Cancel() abandoned
  // it, which drops its durable record and checkpoints.
  job->result.verdict = Verdict::kUnknown;
  job->result.evidence = StrCat("unknown|", BudgetKindToString(exhaustion.kind));
  job->result.exhaustion = exhaustion;
  if (job->cancel_requested && !job->ephemeral) store_->Forget(job->id);
  finish(Status::OK());
}

bool DecisionService::PersistAndMaybeCrash(
    Job* job, const SearchCheckpoint& ckpt, bool budget_saw_crash,
    bool* persisted_out, std::unique_lock<std::mutex>& lock) {
  *persisted_out = false;
  // Lock is held: the persist ordinal and the crash decision must be
  // one atomic step across workers.
  Result<uint64_t> generation = store_->PersistCheckpoint(job->id, ckpt);
  if (!generation.ok()) {
    if (generation.status().code() == StatusCode::kFailedPrecondition) {
      // The store already crashed (simulated kill) or lost its lock —
      // that is fencing, not a disk fault: the service dies with it.
      CrashLocked();
      return false;
    }
    // A disk fault (EIO/ENOSPC/fsync-gate): degrade instead of dying.
    // The search's work survives in memory and it continues;
    // only durability is suspended until a probe succeeds. A crash now
    // costs the unpersisted progress — exactly what a failed disk
    // write must cost — but an in-memory completion still answers.
    degraded_ = true;
    ++persists_skipped_degraded_;
    probe_cv_.notify_all();  // wake the prober to start self-healing
    if (budget_saw_crash) {
      // The crash harness outranks degradation: the kill it asked for
      // still happens, just with nothing new durable.
      CrashLocked();
      return false;
    }
    return true;
  }
  ++persist_ordinal_;
  ++job->result.persisted;
  *persisted_out = true;
  job->result.checkpoint_path =
      StrCat(store_->directory(), "/", job->id, ".g", *generation, ".ckpt");
  if (budget_saw_crash || (options_.crash_after_persist > 0 &&
                           persist_ordinal_ == options_.crash_after_persist)) {
    // Persist-then-abort: the generation above IS durable; the kill
    // lands after it, which is the worst case recovery must win.
    CrashLocked();
    return false;
  }
  return true;
}

void DecisionService::CrashLocked() {
  crashed_ = true;
  store_->SimulateCrash();
  // Fire every job's cancel source so in-flight budgets unwind.
  for (auto& [id, job] : jobs_) job->cancel.RequestCancel();
  queue_cv_.notify_all();
  result_cv_.notify_all();
  probe_cv_.notify_all();
}

}  // namespace relcomp
