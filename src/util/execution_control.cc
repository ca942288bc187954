#include "util/execution_control.h"

#include "util/codec.h"
#include "util/str.h"

namespace relcomp {

const char* BudgetKindToString(BudgetKind kind) {
  switch (kind) {
    case BudgetKind::kNone: return "none";
    case BudgetKind::kDeadline: return "deadline";
    case BudgetKind::kSteps: return "steps";
    case BudgetKind::kMemory: return "memory";
    case BudgetKind::kCancel: return "cancel";
    case BudgetKind::kRounds: return "rounds";
    case BudgetKind::kCrash: return "crash";
  }
  return "unknown";
}

namespace {

Status StatusForKind(BudgetKind kind, size_t at_point) {
  switch (kind) {
    case BudgetKind::kCancel:
      return Status::Cancelled(
          StrCat("execution cancelled by caller at decision point ",
                 at_point));
    case BudgetKind::kDeadline:
      return Status::ResourceExhausted(
          StrCat("wall-clock deadline exceeded at decision point ",
                 at_point));
    case BudgetKind::kSteps:
      return Status::ResourceExhausted(
          StrCat("decision-step budget exhausted at decision point ",
                 at_point));
    case BudgetKind::kMemory:
      return Status::ResourceExhausted(
          StrCat("tracked-memory budget exhausted at decision point ",
                 at_point));
    case BudgetKind::kRounds:
      return Status::ResourceExhausted(
          StrCat("round budget exhausted at round ", at_point));
    case BudgetKind::kCrash:
      return Status::ResourceExhausted(
          StrCat("simulated crash (persist-then-abort) injected at "
                 "decision point ",
                 at_point));
    case BudgetKind::kNone:
      break;
  }
  return Status::OK();
}

/// The innermost live Lease of this thread (null: none).
thread_local ExecutionBudget::Lease* current_lease = nullptr;

}  // namespace

ExecutionBudget::Lease::Lease(ExecutionBudget* budget) {
  if (budget == nullptr || budget->max_steps_ > 0 ||
      budget->injector_ != nullptr) {
    return;
  }
  budget_ = budget;
  outer_ = current_lease;
  current_lease = this;
}

ExecutionBudget::Lease::~Lease() {
  if (budget_ == nullptr) return;
  budget_->steps_.fetch_sub(end_ - next_, std::memory_order_relaxed);
  current_lease = outer_;
}

Status ExecutionBudget::Exhaust(BudgetKind kind, size_t at_point) {
  // First trip wins; later trips (possibly from other workers) adopt
  // the recorded kind so every caller unwinds with the same story.
  uint8_t expected = static_cast<uint8_t>(BudgetKind::kNone);
  if (exhausted_kind_.compare_exchange_strong(
          expected, static_cast<uint8_t>(kind), std::memory_order_acq_rel)) {
    exhausted_at_.store(at_point, std::memory_order_release);
    return StatusForKind(kind, at_point);
  }
  return exhaustion_status();
}

Status ExecutionBudget::OnDecisionPoint() {
  uint8_t k = exhausted_kind_.load(std::memory_order_acquire);
  if (k != static_cast<uint8_t>(BudgetKind::kNone)) {
    return StatusForKind(static_cast<BudgetKind>(k),
                         exhausted_at_.load(std::memory_order_acquire));
  }
  size_t point;
  bool deadline_due;
  Lease* lease = current_lease;
  if (lease != nullptr && lease->budget_ == this) {
    if (lease->next_ == lease->end_) {
      lease->next_ = steps_.fetch_add(kLeaseLength, std::memory_order_relaxed);
      lease->end_ = lease->next_ + kLeaseLength;
    }
    point = lease->next_++;
    deadline_due = lease->used_++ % kDeadlineStride == 0;
  } else {
    point = steps_.fetch_add(1, std::memory_order_relaxed);
    deadline_due = point % kDeadlineStride == 0;
  }
  if (injector_ != nullptr) {
    BudgetKind injected = injector_->Observe(point);
    if (injected != BudgetKind::kNone) return Exhaust(injected, point);
  }
  if (cancel_.cancel_requested()) {
    return Exhaust(BudgetKind::kCancel, point);
  }
  if (max_steps_ > 0 && point + 1 > max_steps_) {
    return Exhaust(BudgetKind::kSteps, point);
  }
  if (max_bytes_ > 0 &&
      tracked_bytes_.load(std::memory_order_relaxed) > max_bytes_) {
    return Exhaust(BudgetKind::kMemory, point);
  }
  if (deadline_.has_value() && deadline_due &&
      std::chrono::steady_clock::now() > *deadline_) {
    return Exhaust(BudgetKind::kDeadline, point);
  }
  return Status::OK();
}

Status ExecutionBudget::exhaustion_status() const {
  BudgetKind kind = exhausted_kind();
  if (kind == BudgetKind::kNone) return Status::OK();
  return StatusForKind(kind, exhausted_at_.load(std::memory_order_acquire));
}

// --- SearchCheckpoint ------------------------------------------------

namespace {
constexpr char kCheckpointMagic[] = "relcomp-ckpt/1";
}  // namespace

std::string SearchCheckpoint::Serialize() const {
  std::string out = StrCat(kCheckpointMagic, " ", decider, " ", disjunct, " ",
                           rank, " ", Hex(fingerprint, 16), " ");
  AppendSized(payload, &out);
  return out;
}

Result<SearchCheckpoint> SearchCheckpoint::Deserialize(
    std::string_view text) {
  CodecReader r(kCheckpointMagic, text);
  SearchCheckpoint ckpt;
  RELCOMP_RETURN_NOT_OK(r.Magic(kCheckpointMagic));
  RELCOMP_ASSIGN_OR_RETURN(const std::string_view decider, r.Field());
  if (decider.empty()) return r.Malformed("no decider");
  ckpt.decider = std::string(decider);
  RELCOMP_ASSIGN_OR_RETURN(ckpt.disjunct, r.U64());
  RELCOMP_RETURN_NOT_OK(r.Expect(" "));
  RELCOMP_ASSIGN_OR_RETURN(ckpt.rank, r.U64());
  RELCOMP_RETURN_NOT_OK(r.Expect(" "));
  RELCOMP_ASSIGN_OR_RETURN(ckpt.fingerprint, r.Hex(16));
  RELCOMP_RETURN_NOT_OK(r.Expect(" "));
  RELCOMP_ASSIGN_OR_RETURN(const std::string_view payload, r.Sized());
  RELCOMP_RETURN_NOT_OK(r.End());
  ckpt.payload = std::string(payload);
  return ckpt;
}

std::string ExhaustionInfo::ToString() const {
  if (!exhausted()) return "none";
  return detail.empty() ? std::string(BudgetKindToString(kind))
                        : StrCat(BudgetKindToString(kind), ": ", detail);
}

ExhaustionInfo ExhaustionFromStatus(const Status& status,
                                    const ExecutionBudget* budget) {
  ExhaustionInfo info;
  if (budget != nullptr && budget->exhausted()) {
    info.kind = budget->exhausted_kind();
    info.detail = budget->exhaustion_status().message();
    return info;
  }
  if (status.ok()) return info;
  info.kind = status.code() == StatusCode::kCancelled ? BudgetKind::kCancel
                                                      : BudgetKind::kSteps;
  info.detail = status.message();
  return info;
}

uint64_t FingerprintString(std::string_view s) {
  return Fnv1a(kFingerprintBasis, s);
}

uint64_t CheckpointFingerprint(std::initializer_list<uint64_t> parts) {
  uint64_t h = kFingerprintBasis;
  for (uint64_t part : parts) h = Fnv1aU64(h, part);
  return h;
}

}  // namespace relcomp
