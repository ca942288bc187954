#ifndef RELCOMP_SERVICE_DECISION_SERVICE_H_
#define RELCOMP_SERVICE_DECISION_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "completeness/rcdp.h"
#include "service/checkpoint_store.h"
#include "service/verdict_cache.h"
#include "util/execution_control.h"
#include "util/status.h"

namespace relcomp {

/// Which decider a job runs.
enum class JobKind : uint8_t { kRcdp, kRcqp, kChase };

const char* JobKindToString(JobKind kind);

/// The most search threads a job may ask for, and its longest relative
/// deadline (365 days, far below the ~292 years at which steady_clock
/// arithmetic overflows). A job beyond either is refused with
/// kInvalidArgument at decode, admission and recovery alike.
inline constexpr size_t kMaxJobThreads = 64;
inline constexpr std::chrono::milliseconds kMaxJobDeadline{365LL * 24 *
                                                           3600 * 1000};

/// One completeness-audit job: the problem instance travels as spec
/// text (the relcheck .rcspec format) so the job can be re-created —
/// and its checkpoint resumed — by a process that shares nothing with
/// the submitter but the store directory.
struct JobSpec {
  JobKind kind = JobKind::kRcdp;
  /// The full problem in CompletenessSpec syntax.
  std::string spec_text;
  /// Which `query` line of the spec to audit.
  size_t query_index = 0;
  /// Worker threads for the decider's valuation search (1 = serial).
  size_t num_threads = 1;
  /// Persist interval in decision points (0 = persist only when the
  /// job unwinds). The job runs once, uncapped; once this many decision
  /// points have passed since its last durable generation, the next
  /// advance of the search's lowest unsearched position is persisted
  /// while the search continues — the knob that trades persist
  /// overhead against how much work a kill can cost. A persist lands
  /// only at such an advance (RcdpOptions::progress), so an interval
  /// shorter than the work between two advances persists once per
  /// advance, never more. The field keeps its name and its place in
  /// the relcomp-job/1 record.
  size_t slice_steps = 0;
  /// Relative deadline, inherited into the job's ExecutionBudget at
  /// the start of execution (nullopt = none). Scheduling is
  /// oldest-deadline-first over these.
  std::optional<std::chrono::milliseconds> deadline;
  /// kChase only: round cap.
  size_t max_chase_rounds = 32;

  /// Single-line versioned text form (the store's job record).
  std::string Serialize() const;
  static Result<JobSpec> Deserialize(std::string_view text);
  /// 64-bit digest of a Serialize() form: the identity an idempotent
  /// resubmission is checked against (DecisionService::JobDigest).
  static uint64_t Digest(std::string_view serialized);
};

/// Terminal outcome of a job.
struct JobResult {
  Verdict verdict = Verdict::kUnknown;
  /// Canonical evidence string: verdict plus the decider-specific
  /// evidence (counterexample delta + new answer for RCDP; existence +
  /// witness + method for RCQP; rounds + chased database for the
  /// chase). Two runs decided identically iff their keys are equal —
  /// the crash-recovery sweep compares these bit-for-bit.
  std::string evidence;
  /// Why the job stopped short, when verdict == kUnknown.
  ExhaustionInfo exhaustion;
  /// Last persisted checkpoint file ("" when none) — on a terminal
  /// kUnknown the store keeps it for a later manual resume.
  std::string checkpoint_path;
  /// 1 once the decider ran (a job runs once per process; a recovered
  /// job counts anew), 0 when it was served from the verdict cache or
  /// cancelled while queued.
  size_t attempts = 0;
  /// Checkpoint generations this process persisted for the job: the
  /// rolling ones plus the one written when it unwound.
  size_t persisted = 0;
};

/// Service configuration.
struct DecisionServiceOptions {
  /// Admission control: jobs queued (not yet terminal) beyond this
  /// bound are shed with kResourceExhausted at Submit.
  size_t max_queue_depth = 64;
  /// Worker threads draining the queue.
  size_t num_workers = 1;
  /// Start with the workers parked until Resume() — lets tests fill
  /// the queue deterministically (admission control, EDF order).
  bool start_paused = false;
  /// Serve and populate a fingerprint-keyed VerdictCache over the
  /// store: a kRcdp job whose instance content matches a cached
  /// decided verdict returns it without any search, and decided
  /// verdicts are journaled as durable store records that survive
  /// restarts. Off by default — a cache hit skips the decider
  /// entirely, which the crash/fault harnesses (which need the search
  /// to actually run) do not expect.
  bool enable_verdict_cache = false;
  /// Crash harness, mechanism 1: simulate a kill right after the k-th
  /// successful checkpoint persist (1-based ordinal across the whole
  /// service; 0 = off). Sweeping k over every persist site proves no
  /// write ordering can lose a committed generation.
  size_t crash_after_persist = 0;
  /// Crash harness, mechanism 2: armed on every job budget. A
  /// kPersistAbort injector trips the budget as BudgetKind::kCrash at
  /// its decision point; the worker persists the unwound checkpoint
  /// and then simulates the kill. Sweeping the point over [0, total)
  /// proves recovery from every interruption position. Not owned.
  const FaultInjector* fault_injector = nullptr;
  /// Passed through to CheckpointStore::Open. The fabric uses the
  /// fabric_root/shard_name pair here to park each member's service on
  /// a named shard; Start()'s store_directory must then be empty.
  CheckpointStoreOptions store_options;
  /// Degraded-mode self-healing: interval between background store
  /// health probes (a full write-fsync-unlink cycle through the
  /// store's FsEnv). While the store is sick, each failed probe
  /// doubles the wait up to store_probe_backoff_cap. 0 disables the
  /// probe thread — tests (and embedders with their own scheduler)
  /// drive ProbeStoreNow() instead.
  std::chrono::milliseconds store_probe_interval{0};
  std::chrono::milliseconds store_probe_backoff_cap{2000};
};

/// Crash-recoverable decision service.
///
/// Lifecycle: Start() opens (exclusively locks) the store directory,
/// re-creates every in-flight job found there (RecoveredJobs()), and
/// spawns the workers. Submit() durably records the job, then enqueues
/// it — so a job accepted is a job that survives a kill. Workers drain
/// the queue oldest-deadline-first and run each job's decider once,
/// under a per-request ExecutionBudget that carries the deadline, the
/// job's cancel token and the crash harness but no step or memory cap.
/// While it runs, the decider reports rolling checkpoints
/// (RcdpOptions::progress) and the service persists one whenever the
/// job's persist interval (JobSpec::slice_steps) has passed since the
/// last durable generation — from whichever search thread reported
/// it, without stopping the search. Deadline and cancel exhaustion are
/// terminal: the search unwinds, its checkpoint is persisted, and the
/// job ends kUnknown with that checkpoint left in the store. Completed
/// jobs are Forget()ten. Each job's spec is parsed once, by Submit
/// before it takes the service lock; the worker decides on that
/// parse.
///
/// Crash recovery: at Start(), a restarted service parses each pending job's
/// spec and resumes from its newest valid checkpoint; the PR-3 resume
/// guarantees make the final verdict and evidence bit-for-bit equal to
/// an uninterrupted run at any thread count. Chase jobs are the one
/// caveat: the partially chased database lives only in memory, so a
/// cross-process recovery re-runs the (deterministic) chase from round
/// 0 — same final result, repeated work — so a chase job persists
/// nothing while it runs, only the checkpoint it unwinds with.
class DecisionService {
 public:
  static Result<std::unique_ptr<DecisionService>> Start(
      const std::string& store_directory,
      const DecisionServiceOptions& options = DecisionServiceOptions());

  /// Joins the workers (draining the queue unless crashed).
  ~DecisionService();
  DecisionService(const DecisionService&) = delete;
  DecisionService& operator=(const DecisionService&) = delete;

  /// Admits `spec` as `request_id`, durably persisting it first.
  /// kResourceExhausted when the queue is full (load shedding);
  /// kInvalidArgument on a bad id, duplicate id, or a spec that does
  /// not parse; kFailedPrecondition after a (simulated) crash. The
  /// spec is parsed outside the service lock, and only after the
  /// refusals that need no parse.
  Status Submit(const std::string& request_id, const JobSpec& spec);

  /// Blocks until `request_id` is terminal and returns its result.
  /// kNotFound for an unknown id; kFailedPrecondition if the service
  /// crashed before the job finished.
  Result<JobResult> Wait(const std::string& request_id);

  /// Non-blocking job-state probe (the network front end's poll):
  /// terminal == false means the job is still queued or running;
  /// terminal == true carries the result. kNotFound for an unknown id;
  /// a job that failed before producing a decider result returns its
  /// terminal error status, mirroring Wait.
  struct JobPoll {
    bool terminal = false;
    bool running = false;
    JobResult result;
  };
  Result<JobPoll> Poll(const std::string& request_id) const;

  /// Cooperatively cancels `request_id`. A queued job is removed and
  /// finished as kUnknown/cancel immediately; a running job's budget
  /// trips kCancel at its next decision point and the job finishes
  /// kUnknown/cancel; a terminal job is left as-is (idempotent OK). An
  /// explicitly cancelled job is Forget()ten from the store — it is
  /// abandoned, not recoverable. kNotFound for an unknown id.
  Status Cancel(const std::string& request_id);

  /// JobSpec::Digest of the spec `request_id` was admitted with — the
  /// dedup anchor for idempotent network retries: a resubmission whose
  /// serialized spec has the same digest is the same job, anything
  /// else is a key collision. It outlives the spec text, which a
  /// terminal job releases. kNotFound for an unknown id.
  Result<uint64_t> JobDigest(const std::string& request_id) const;

  /// Releases workers parked by start_paused. Idempotent.
  void Resume();

  /// Flushes the service to durable state for a planned handoff and
  /// stops it from taking on any further work. Every running job's
  /// budget is tripped (kCancel at its next decision point) WITHOUT
  /// marking the job cancel_requested — so the unwound checkpoint is
  /// persisted and the durable job record is kept, exactly as a crash
  /// would leave them, but with no torn tail and no lost work. Queued
  /// jobs stay queued on disk untouched. Workers park permanently;
  /// Submit rejects with kFailedPrecondition from the first moment of
  /// the call (no late admission can slip past the flush). Returns
  /// once no job is running. The only follow-up that makes sense is
  /// destruction — a successor re-creates every job from the store.
  /// kFailedPrecondition if the service crashed before or during the
  /// flush (the handoff must abort; crash recovery takes over).
  Status Quiesce();

  /// Request ids found in the store at Start() and re-enqueued.
  std::vector<std::string> RecoveredJobs() const;

  /// True after a simulated kill; every later operation fails
  /// kFailedPrecondition.
  bool crashed() const;

  /// Jobs shed at admission so far.
  size_t jobs_shed() const;

  /// Request ids in the order they became terminal — observability for
  /// the oldest-deadline-first scheduling contract.
  std::vector<std::string> completed_order() const;

  /// Checkpoint generations persisted so far (all jobs).
  size_t checkpoints_persisted() const;

  const CheckpointStore& store() const { return *store_; }

  /// Mutable store access for co-owners of the shard — the fabric
  /// journals its ring control record through here so the placement
  /// epoch rides the same crash-atomic store as the jobs it governs.
  CheckpointStore* mutable_store() { return store_.get(); }

  /// True while the service is in degraded mode: a store write failed
  /// (or the fsync gate closed), so durable admission is suspended —
  /// Submit sheds with typed kResourceExhausted, EXCEPT verdict-cache
  /// hits, which are admitted ephemerally (no job record) and served
  /// from memory. Running jobs keep deciding; their checkpoint
  /// persists are skipped, not fatal. Cleared ONLY by a successful
  /// store probe (the background thread or ProbeStoreNow) — a lucky
  /// write never flips the service back, so degraded/healthy cannot
  /// flap on an intermittent disk.
  bool degraded() const;

  /// One store health probe, now, on the caller's thread. On success
  /// the service leaves degraded mode. Returns the probe's outcome;
  /// kFailedPrecondition after a (simulated) crash.
  Status ProbeStoreNow();

  /// Checkpoint persists that failed on a sick store and left the
  /// service degraded — progress held in memory only.
  size_t persists_skipped_degraded() const;

  /// Submissions shed specifically because the store was degraded
  /// (subset of jobs_shed()).
  size_t submits_shed_degraded() const;

  /// Cache-hit jobs admitted ephemerally while degraded.
  size_t ephemeral_admissions() const;

  /// Worst-wins health token for this service + its store:
  /// "down" (crashed) > "readonly" (fsync gate) > "degraded" > "healthy".
  std::string HealthState() const;

  /// One `relcomp-health/1` report line: `shard <label> state=<state>
  /// io_errors=... write_failures=... fsync_failures=...
  /// probes=<succeeded>/<attempted> shed=<n> ephemeral=<n>`.
  std::string HealthLine(std::string_view label) const;

  /// Jobs answered from the verdict cache without running a search.
  size_t verdicts_served_from_cache() const;

  /// The cache (null unless enable_verdict_cache) — stats for tests
  /// and the bench.
  VerdictCache* verdict_cache() { return verdict_cache_.get(); }

 private:
  struct Job;

  explicit DecisionService(DecisionServiceOptions options);

  /// The admission refusals that need no parse: a crashed, stopping or
  /// detaching service, a full queue, a duplicate id, and a degraded
  /// service that cannot serve `spec` from the verdict cache.
  Status RefuseLocked(const std::string& request_id, const JobSpec& spec);
  /// Counts and returns a degraded-mode shed.
  Status ShedDegradedLocked(const std::string& request_id);
  /// Enqueues an admitted (or recovered) job.
  void AdmitLocked(std::unique_ptr<Job> job);
  /// Terminal bookkeeping: marks `job` terminal with `status`, frees
  /// its spec text and parsed spec, and wakes waiters. The caller
  /// settles queued_count_.
  void FinishLocked(Job* job, Status status);
  void WorkerLoop();
  /// Background store health probe with capped backoff; parks until
  /// the store is sick, probes, and clears degraded mode on success.
  void ProberLoop();
  /// Runs one job to a terminal state (or crash). Called with the lock
  /// held; drops it while deciding.
  void RunJob(Job* job, std::unique_lock<std::mutex>& lock);
  /// Persists `ckpt` for `job` and fires the crash harness if armed.
  /// Called with `lock` held, by the worker after the decider unwinds
  /// or by the rolling-persist sink on a search thread. Returns false
  /// when the service crashed (simulated kill). On a disk fault the
  /// service degrades instead of crashing: the persist is skipped
  /// (*persisted_out = false) and the job continues in memory.
  bool PersistAndMaybeCrash(Job* job, const SearchCheckpoint& ckpt,
                            bool budget_saw_crash, bool* persisted_out,
                            std::unique_lock<std::mutex>& lock);
  void CrashLocked();

  DecisionServiceOptions options_;
  std::unique_ptr<CheckpointStore> store_;
  std::unique_ptr<VerdictCache> verdict_cache_;
  std::vector<std::thread> workers_;
  std::thread prober_;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;   // workers: queue / resume / stop
  std::condition_variable result_cv_;  // waiters: job became terminal
  std::condition_variable probe_cv_;   // prober: sick store / stop
  bool paused_ = false;
  bool stopping_ = false;
  bool crashed_ = false;
  /// Set by Quiesce(): workers exit instead of draining the queue, and
  /// Submit rejects — the shard is being handed off.
  bool detaching_ = false;
  /// EDF ready-queue: (absolute deadline, admission seq) -> request id.
  std::map<std::pair<std::chrono::steady_clock::time_point, uint64_t>,
           std::string>
      queue_;
  std::map<std::string, std::unique_ptr<Job>> jobs_;
  std::vector<std::string> recovered_;
  std::vector<std::string> completed_order_;
  uint64_t next_seq_ = 0;
  size_t queued_count_ = 0;  // queued + running (admission-controlled)
  size_t jobs_shed_ = 0;
  size_t persist_ordinal_ = 0;  // service-wide persist counter
  size_t cache_served_ = 0;     // jobs answered from the verdict cache
  /// Degraded mode (see degraded()). Set on any store write failure
  /// that is not a simulated crash; cleared only by a probe success.
  bool degraded_ = false;
  size_t persists_skipped_degraded_ = 0;
  size_t submits_shed_degraded_ = 0;
  size_t ephemeral_admissions_ = 0;
};

}  // namespace relcomp

#endif  // RELCOMP_SERVICE_DECISION_SERVICE_H_
