#ifndef RELCOMP_UTIL_EXECUTION_CONTROL_H_
#define RELCOMP_UTIL_EXECUTION_CONTROL_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "util/status.h"

namespace relcomp {

/// Which resource limit an ExecutionBudget ran out of. kNone means the
/// budget is live; kRounds is used by ChaseToCompleteness for its
/// max_rounds cap, which shares the same graceful-degradation path.
enum class BudgetKind : uint8_t {
  kNone = 0,
  kDeadline,
  kSteps,
  kMemory,
  kCancel,
  kRounds,
  /// A FaultInjector::kPersistAbort fault: the search unwinds exactly
  /// like a deadline exhaustion, and the DecisionService, after
  /// persisting the resulting checkpoint, simulates a process kill.
  kCrash,
};

const char* BudgetKindToString(BudgetKind kind);

// --- Cooperative cancellation ---------------------------------------

/// Read side of a CancelSource. A default-constructed token never
/// triggers. Cheap to copy; safe to poll from any thread.
class CancelToken {
 public:
  CancelToken() = default;

  bool cancel_requested() const {
    return flag_ != nullptr && flag_->load(std::memory_order_acquire);
  }
  bool valid() const { return flag_ != nullptr; }

 private:
  friend class CancelSource;
  explicit CancelToken(std::shared_ptr<const std::atomic<bool>> flag)
      : flag_(std::move(flag)) {}
  std::shared_ptr<const std::atomic<bool>> flag_;
};

/// Caller-side handle that requests cancellation. Copyable; all copies
/// (and the tokens they handed out) observe the same flag. Thread-safe.
class CancelSource {
 public:
  CancelSource() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void RequestCancel() { flag_->store(true, std::memory_order_release); }
  bool cancel_requested() const {
    return flag_->load(std::memory_order_acquire);
  }

  CancelToken token() const { return CancelToken(flag_); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

// --- Deterministic fault injection ----------------------------------

/// Injects one fault when the owning budget's shared decision-point
/// counter reaches a chosen value. Decision points are numbered 0,1,...
/// in the order OnDecisionPoint() calls claim ticks of the shared
/// atomic counter (an armed injector turns leases off, so every point
/// claims its own tick); in serial mode that order is the deterministic
/// search order, so "fault at point N" reproduces exactly. The sweep
/// harness iterates N over [0, total_points) and every fault kind.
class FaultInjector {
 public:
  enum class Fault : uint8_t {
    kCancel,        ///< behaves like a user CancelToken firing
    kDeadline,      ///< behaves like the wall-clock deadline passing
    kAllocFailure,  ///< behaves like the tracked-memory limit tripping
    /// Trips the budget as BudgetKind::kCrash: the decider unwinds
    /// with a checkpoint as usual, and the service layer persists that
    /// checkpoint and then aborts (a simulated kill -9 right after the
    /// durable write). The crash-recovery sweep arms this at every
    /// decision point to prove restart + resume reproduces the
    /// uninterrupted run bit-for-bit.
    kPersistAbort,
  };

  FaultInjector(Fault fault, size_t at_decision_point)
      : fault_(fault), at_(at_decision_point) {}

  /// The BudgetKind to inject at decision point `point`: the fault
  /// from the chosen point on (like the limits it imitates, it stays
  /// true), kNone before it. Failing every later point, not just the
  /// chosen one, keeps concurrent workers that claim later points
  /// before the sticky record lands from running on.
  BudgetKind Observe(size_t point) const {
    if (point < at_) return BudgetKind::kNone;
    switch (fault_) {
      case Fault::kCancel: return BudgetKind::kCancel;
      case Fault::kDeadline: return BudgetKind::kDeadline;
      case Fault::kAllocFailure: return BudgetKind::kMemory;
      case Fault::kPersistAbort: return BudgetKind::kCrash;
    }
    return BudgetKind::kNone;
  }

  Fault fault() const { return fault_; }
  size_t at() const { return at_; }

 private:
  Fault fault_;
  size_t at_;
};

// --- Execution budget -----------------------------------------------

/// Shared execution budget for one decider call (and its resumptions).
/// Workers of a parallel search all point at the same instance: the
/// step counter, tracked-byte counter, and sticky exhaustion record are
/// atomics, so the first limit trip wins and every later
/// OnDecisionPoint() observes it.
///
/// Decision points are the counted unit of work: one per valuation
/// binding step, one per delta-constraint check, one per pool
/// candidate, one per chase round, one per containment binding. The
/// same points are counted in serial and parallel mode, so a step
/// limit exhausts after the same amount of total work at any thread
/// count (though parallel schedules may distribute it differently).
///
/// A point is numbered by a claim on the shared counter: one claim per
/// point, except on a thread holding a Lease, which claims its numbers
/// kLeaseLength at a time (see Lease).
///
/// Exhaustion is sticky: after the first non-OK OnDecisionPoint() the
/// budget keeps returning the same failure until Rearm(). Deadline,
/// step, and memory limits surface as kResourceExhausted; a fired
/// CancelToken surfaces as kCancelled.
class ExecutionBudget {
 public:
  ExecutionBudget() = default;
  ExecutionBudget(const ExecutionBudget&) = delete;
  ExecutionBudget& operator=(const ExecutionBudget&) = delete;

  void set_deadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ = deadline;
  }
  void set_timeout(std::chrono::nanoseconds timeout) {
    deadline_ = std::chrono::steady_clock::now() + timeout;
  }
  void set_max_steps(size_t max_steps) { max_steps_ = max_steps; }
  void set_max_tracked_bytes(size_t max_bytes) { max_bytes_ = max_bytes; }
  void set_cancel_token(CancelToken token) { cancel_ = std::move(token); }
  /// Not owned; must outlive the budget's use. Intended for tests.
  void set_fault_injector(const FaultInjector* injector) {
    injector_ = injector;
  }

  /// True when any limit is configured (or an injector is armed) —
  /// callers can skip budget plumbing entirely for a default instance.
  bool active() const {
    return deadline_.has_value() || max_steps_ > 0 || max_bytes_ > 0 ||
           cancel_.valid() || injector_ != nullptr;
  }

  /// Claims one decision point and checks every configured limit.
  /// Returns OK to continue, or the (sticky) exhaustion status. The
  /// wall clock is only consulted every kDeadlineStride points (on a
  /// leasing thread, every kDeadlineStride of that thread's points).
  Status OnDecisionPoint();

  /// A search worker's lease on decision-point numbers. While a Lease
  /// is alive on a thread, that thread's OnDecisionPoint() calls on
  /// the budget number their points from a run of kLeaseLength
  /// consecutive numbers claimed with one fetch_add, not one fetch_add
  /// each, so concurrent workers do not contend on the counter. Every
  /// limit is still checked at every point. When the Lease ends it
  /// returns the numbers it did not use, so once every lease has ended
  /// steps() counts exactly the points used; while leases are alive it
  /// may run ahead by up to kLeaseLength per lease.
  ///
  /// A Lease is inert when the budget is null or has a step cap or a
  /// FaultInjector armed: both are addressed by point number, so a
  /// capped or injected run keeps one claim per point and its exact
  /// numbering. Leases nest per thread; only the innermost one leases,
  /// and only for its own budget.
  class Lease {
   public:
    explicit Lease(ExecutionBudget* budget);
    ~Lease();
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

   private:
    friend class ExecutionBudget;
    ExecutionBudget* budget_ = nullptr;  ///< null: inert
    Lease* outer_ = nullptr;             ///< this thread's enclosing lease
    size_t next_ = 0;                    ///< next number of the run
    size_t end_ = 0;                     ///< one past the run's last number
    size_t used_ = 0;                    ///< points numbered so far
  };

  /// Records `bytes` of tracked allocation (interner growth, overlay
  /// staging, chase deltas). Never fails in place; a tripped memory
  /// limit surfaces at the next OnDecisionPoint().
  void TrackBytes(size_t bytes) {
    tracked_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void ReleaseBytes(size_t bytes) {
    tracked_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  /// Decision points claimed so far: exact once no Lease is alive.
  size_t steps() const { return steps_.load(std::memory_order_relaxed); }
  size_t tracked_bytes() const {
    return tracked_bytes_.load(std::memory_order_relaxed);
  }

  bool exhausted() const {
    return exhausted_kind_.load(std::memory_order_acquire) !=
           static_cast<uint8_t>(BudgetKind::kNone);
  }
  BudgetKind exhausted_kind() const {
    return static_cast<BudgetKind>(
        exhausted_kind_.load(std::memory_order_acquire));
  }
  /// Decision point at which the budget exhausted (meaningful only
  /// when exhausted()).
  size_t exhausted_at() const {
    return exhausted_at_.load(std::memory_order_acquire);
  }
  /// OK when live; otherwise the same status OnDecisionPoint() has
  /// been returning since exhaustion.
  Status exhaustion_status() const;

  /// Clears the sticky exhaustion record and the step counter so the
  /// same budget instance can drive a resumed call. Tracked bytes are
  /// kept (live allocations from the interrupted call may persist);
  /// limits, token, and injector are kept as configured. Not while a
  /// Lease on the budget is alive.
  void Rearm() {
    exhausted_kind_.store(static_cast<uint8_t>(BudgetKind::kNone),
                          std::memory_order_release);
    exhausted_at_.store(0, std::memory_order_release);
    steps_.store(0, std::memory_order_release);
  }

  /// How many decision points between wall-clock reads.
  static constexpr size_t kDeadlineStride = 32;
  /// How many point numbers one Lease claim takes.
  static constexpr size_t kLeaseLength = 64;

 private:
  Status Exhaust(BudgetKind kind, size_t at_point);

  static constexpr size_t kCacheLineBytes = 64;

  /// The point counter sits alone on its cache line: lease claims
  /// write it, while every point reads the limits and the sticky
  /// record below, which therefore start on the next line.
  alignas(kCacheLineBytes) std::atomic<size_t> steps_{0};
  alignas(kCacheLineBytes) std::atomic<size_t> tracked_bytes_{0};
  std::optional<std::chrono::steady_clock::time_point> deadline_;
  size_t max_steps_ = 0;
  size_t max_bytes_ = 0;
  CancelToken cancel_;
  const FaultInjector* injector_ = nullptr;
  /// Sticky first exhaustion: kind (BudgetKind as uint8_t; kNone =
  /// live) and the decision point that tripped it.
  std::atomic<uint8_t> exhausted_kind_{0};
  std::atomic<size_t> exhausted_at_{0};
};

// --- Search checkpoints ---------------------------------------------

/// Where an exhausted decider stopped: the disjunct (or round/phase)
/// index it was working on and the next unclaimed rank of that
/// disjunct's partitioned valuation space. A follow-up call with the
/// same inputs accepts the checkpoint and continues from exactly this
/// point; the combined answer is bit-for-bit the uninterrupted one.
struct SearchCheckpoint {
  /// Which decider/phase produced it: "rcdp", "rcqp-ind",
  /// "rcqp-empty", "rcqp-chase", "rcqp-pool", or "chase".
  std::string decider;
  /// Disjunct index (rcdp), tableau index (rcqp-ind), chase round, or
  /// phase-local index.
  size_t disjunct = 0;
  /// Next unclaimed rank unit of the partitioned search space of that
  /// disjunct (rcqp-pool: number of fully judged candidate leaves).
  size_t rank = 0;
  /// Guard against resuming with different inputs; 0 disables the
  /// check. Computed by the decider over the problem shape.
  uint64_t fingerprint = 0;
  /// Decider-specific extra state (e.g. the chase embeds the inner
  /// RCDP checkpoint; the RCQP IND path embeds per-tableau results).
  std::string payload;

  /// Single-line, versioned text form.
  std::string Serialize() const;
  /// Parses Serialize() output; kInvalidArgument on anything else.
  static Result<SearchCheckpoint> Deserialize(std::string_view text);

  bool operator==(const SearchCheckpoint& other) const {
    return decider == other.decider && disjunct == other.disjunct &&
           rank == other.rank && fingerprint == other.fingerprint &&
           payload == other.payload;
  }
};

/// Exhaustion record attached to an unknown verdict.
struct ExhaustionInfo {
  BudgetKind kind = BudgetKind::kNone;
  std::string detail;

  bool exhausted() const { return kind != BudgetKind::kNone; }
  std::string ToString() const;
};

/// Builds an ExhaustionInfo from the status a search bubbled up,
/// preferring the budget's sticky record when one is attached.
ExhaustionInfo ExhaustionFromStatus(const Status& status,
                                    const ExecutionBudget* budget);

/// FNV-1a over a sequence of 64-bit parts; used for checkpoint
/// fingerprints (stable across runs and platforms).
uint64_t CheckpointFingerprint(std::initializer_list<uint64_t> parts);
uint64_t FingerprintString(std::string_view s);

}  // namespace relcomp

#endif  // RELCOMP_UTIL_EXECUTION_CONTROL_H_
