#ifndef RELCOMP_RELATIONAL_VALUE_INTERNER_H_
#define RELCOMP_RELATIONAL_VALUE_INTERNER_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "relational/value.h"

namespace relcomp {

/// Dense 32-bit handle for an interned Value. Ids are only meaningful
/// relative to the ValueInterner that produced them: equal ids mean
/// equal values, but id order is arrival order, not Value order.
using ValueId = uint32_t;

/// Sentinel for "no id" (never produced by an interner).
inline constexpr ValueId kInvalidValueId = 0xFFFFFFFFu;

/// Maps Values to dense ValueIds and back. One interner is shared per
/// database family (D, Dm, and the scratch instances derived from
/// them), so the relational core can compare, hash and index constants
/// as 32-bit ids instead of heap-allocated Values.
///
/// Two id ranges exist:
///   * normal ids, assigned ascending from 0 by Intern(), and
///   * reserved high ids (>= kFreshIdBase), assigned descending from
///     kInvalidValueId - 1 by InternFresh() for the paper's `New`
///     values — fresh constants minted by ActiveDomain outside the
///     constants of D, Dm, Q and V. Keeping them in a distinct range
///     lets the deciders distinguish fresh ids from instance ids
///     without consulting the value.
///
/// Interners only grow; ids stay stable for the interner's lifetime.
///
/// Concurrency contract: mutation (Intern/InternFresh of a NEW value)
/// is single-threaded; lookups (TryGet, ValueOf, IsFreshId) are safe
/// from any number of threads provided no mutation is concurrent. The
/// parallel valuation search enforces this by interning everything it
/// needs — instance constants via the relations, the fresh pool via
/// ReserveFreshRange — before workers fork, then freezing the interner
/// for the read-only phase. Freeze() is a debug tripwire: while the
/// freeze count is positive, growing the interner asserts.
class ValueInterner {
 public:
  /// First id of the reserved fresh range.
  static constexpr ValueId kFreshIdBase = 0x80000000u;

  ValueInterner() = default;

  /// Returns the id of `v`, interning it in the normal range if new.
  ValueId Intern(const Value& v);

  /// Returns the id of `v`, interning it in the reserved high range if
  /// new. Idempotent; a value already interned (in either range) keeps
  /// its existing id.
  ValueId InternFresh(const Value& v);

  /// Pre-interns a whole fresh pool in one call and returns the id of
  /// the first value (ids descend contiguously from it for values that
  /// were new). Workers of the parallel search partition candidate
  /// ranges over this pre-reserved pool instead of interning
  /// concurrently; combined with symmetry_break_fresh (position i sees
  /// fresh_0..fresh_i) every worker observes the identical id
  /// assignment, so no post-fork interning can occur.
  ValueId ReserveFreshRange(const std::vector<Value>& values);

  /// The id of `v` if it was interned before, nullopt otherwise. Never
  /// interns — an index probe for a never-seen value is an instant miss.
  std::optional<ValueId> TryGet(const Value& v) const;

  /// The value behind `id`. Precondition: `id` was produced by this
  /// interner.
  const Value& ValueOf(ValueId id) const {
    return id < kFreshIdBase ? low_[id]
                             : high_[kInvalidValueId - 1 - id];
  }

  static bool IsFreshId(ValueId id) {
    return id >= kFreshIdBase && id != kInvalidValueId;
  }

  /// Total number of interned values across both ranges.
  size_t size() const { return low_.size() + high_.size(); }

  /// Number of ids in the base (non-fresh) range: base ids are exactly
  /// [0, num_base_ids()). The valuation enumerator and the overlay
  /// park their synthetic ids for never-interned values in the unused
  /// gap just below kFreshIdBase, and assert against this bound.
  size_t num_base_ids() const { return low_.size(); }

  /// Rough heap footprint of the interned value tables, used by the
  /// deciders to charge interner growth against an ExecutionBudget
  /// (the delta of ApproxBytes() around a growth phase).
  size_t ApproxBytes() const {
    size_t bytes = sizeof(ValueInterner);
    for (const Value& v : low_) bytes += v.ApproxBytes();
    for (const Value& v : high_) bytes += v.ApproxBytes();
    // Hash-map entries: key + id + bucket bookkeeping, estimated.
    bytes += ints_.size() * (sizeof(int64_t) + sizeof(ValueId) + 16);
    for (const auto& [s, id] : strings_) {
      bytes += s.capacity() + sizeof(ValueId) + 16;
    }
    return bytes;
  }

  /// Enters/leaves the frozen (concurrent read-only) phase. Nests:
  /// freeze counts are balanced, so a decider freezing a database whose
  /// interner another decider already froze stays safe. While frozen,
  /// interning a new value asserts in debug builds — the tripwire that
  /// catches any code path trying to grow shared state mid-search.
  void Freeze() { freeze_count_.fetch_add(1, std::memory_order_relaxed); }
  void Unfreeze() { freeze_count_.fetch_sub(1, std::memory_order_relaxed); }
  bool frozen() const {
    return freeze_count_.load(std::memory_order_relaxed) > 0;
  }

 private:
  ValueId Insert(const Value& v, bool fresh);

  std::unordered_map<int64_t, ValueId> ints_;
  std::unordered_map<std::string, ValueId> strings_;
  /// id -> Value for the normal range (id == index).
  std::vector<Value> low_;
  /// id -> Value for the fresh range (id == kInvalidValueId - 1 - index).
  std::vector<Value> high_;
  std::atomic<int> freeze_count_{0};
};

}  // namespace relcomp

#endif  // RELCOMP_RELATIONAL_VALUE_INTERNER_H_
