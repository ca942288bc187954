#ifndef RELCOMP_RELATIONAL_DATABASE_OVERLAY_H_
#define RELCOMP_RELATIONAL_DATABASE_OVERLAY_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "relational/database.h"
#include "util/execution_control.h"

namespace relcomp {

/// A copy-on-write view over a base Database: the base plus a small
/// set of staged (pending) tuple inserts. The deciders' inner loops
/// check thousands of candidate extensions D ∪ Δ per run; an overlay
/// makes each candidate O(|Δ|) to stage and O(1) to discard instead of
/// copying D, and leaves the base relations untouched so their lazily
/// built column indexes stay valid across candidates.
///
/// Staging is on the id plane. Each relation that receives rows gets a
/// staging slot — resolved by name once, stable for the overlay's life
/// — holding its staged rows as flat ValueId rows. AddIds() takes a row
/// as the valuation search produces it; Add() converts a Tuple once,
/// when it arrives. Values the base's interner has never seen get
/// synthetic ids from the overlay's own table (parked just below
/// ValueInterner::kFreshIdBase), so id equality is value equality
/// across base rows, staged rows and query constants alike.
///
/// Staged tuples may name relations absent from the base schema; those
/// behave as pending-only virtual relations.
///
/// The view never mutates the base. It is invalidated by any mutation
/// of the base database. Not thread safe: one overlay per worker.
class DatabaseOverlay {
 public:
  /// "No staging slot" (a relation nothing was staged into).
  static constexpr size_t kNoSlot = SIZE_MAX;

  /// The staged rows of one slot: row k is ids[k·arity, (k+1)·arity).
  /// Valid until the next Add/AddIds/Clear.
  struct StagedRows {
    const ValueId* ids = nullptr;
    size_t arity = 0;
    size_t count = 0;
    size_t size() const { return count; }
    bool empty() const { return count == 0; }
    const ValueId* row(size_t k) const { return ids + k * arity; }
  };

  explicit DatabaseOverlay(const Database* base);
  ~DatabaseOverlay();
  /// Non-copyable (a copy would double-release its byte charge);
  /// move-constructible — the move transfers the charge.
  DatabaseOverlay(const DatabaseOverlay&) = delete;
  DatabaseOverlay& operator=(const DatabaseOverlay&) = delete;
  DatabaseOverlay(DatabaseOverlay&& other) noexcept;
  DatabaseOverlay& operator=(DatabaseOverlay&&) = delete;

  const Database& base() const { return *base_; }

  /// Attaches an ExecutionBudget-style byte tracker (not owned; may be
  /// null). The overlay charges the capacity growth of its staging
  /// buffers, as Arena charges its blocks, and releases the charge when
  /// destroyed: Clear() keeps both. The tracker never fails in place —
  /// a tripped memory limit surfaces at the owner's next decision
  /// point — so staging itself stays infallible. Set it before staging
  /// to charge everything.
  void set_memory_tracker(ExecutionBudget* tracker) { tracker_ = tracker; }

  /// The staging slot of `relation`, registered on first use. A base
  /// relation stages rows of its schema arity; a virtual relation takes
  /// `arity` when registered. kNoSlot when `relation` is already known
  /// with another arity.
  size_t Slot(std::string_view relation, size_t arity);
  /// The slot of `relation` if one was registered, kNoSlot otherwise.
  size_t FindSlot(std::string_view relation) const;

  /// Stages `t` for insertion into `relation`. Returns true if the
  /// tuple is new, false if it is already in the base or staged (or its
  /// arity does not fit the relation).
  bool Add(std::string_view relation, const Tuple& t);

  /// Stages an id row (Slot()'s arity many ids) into `slot`. Every id
  /// must come from the base's interner family: synthetic ids of any
  /// other table (the valuation enumerator's, say) would alias this
  /// overlay's own. Returns true if the row is new.
  bool AddIds(size_t slot, const ValueId* row);

  /// Drops every staged row (slots and buffer capacity are retained —
  /// the deciders stage and clear once per candidate valuation).
  void Clear();

  /// Base-or-staged membership.
  bool Contains(std::string_view relation, const Tuple& t) const;

  /// The base instance of `relation` (empty for virtual relations).
  const Relation& BaseRelation(std::string_view relation) const {
    return base_->Get(relation);
  }

  /// The staged rows of `slot` (empty for kNoSlot).
  StagedRows Staged(size_t slot) const;
  /// The staged rows of `relation` (empty if none).
  StagedRows Pending(std::string_view relation) const {
    return Staged(FindSlot(relation));
  }

  /// Total staged tuples across all relations.
  size_t PendingCount() const { return pending_count_; }
  bool HasPending() const { return pending_count_ > 0; }

  /// Base plus staged tuple count for `relation`.
  size_t Size(std::string_view relation) const {
    return BaseRelation(relation).size() + Pending(relation).size();
  }

  /// The id of `v` on this view: the overlay's synthetic id if it has
  /// one, else its family id if the base's interner knows it, else a
  /// new synthetic id (the table is a cache of the view, like the
  /// interner, so the accessor is const). Checking the table first
  /// keeps a value's id fixed until Clear() drops the table, even if
  /// the family learns the value meanwhile (an answer relation sharing
  /// the interner does); the base cannot hold such a value, as base
  /// mutation invalidates the view.
  ValueId IdOf(const Value& v) const;
  /// True for an id of the overlay's synthetic table (no base row can
  /// hold one).
  bool IsSynthetic(ValueId id) const {
    return id < ValueInterner::kFreshIdBase &&
           ValueInterner::kFreshIdBase - 1 - id < synth_.size();
  }
  /// The value behind a family or synthetic id of this view (valid
  /// until the next Add, IdOf or Clear).
  const Value& ValueOf(ValueId id) const {
    return IsSynthetic(id)
               ? synth_[ValueInterner::kFreshIdBase - 1 - id]
               : base_->interner()->ValueOf(id);
  }

  /// Heap bytes held by the staging buffers: what the memory tracker
  /// is charged.
  size_t capacity_bytes() const { return charged_bytes_; }

  /// Flattens the view into a standalone Database over the base
  /// schema. Staged tuples of virtual relations (unknown to the base
  /// schema) are dropped. Used by evaluation paths that do not support
  /// overlays (FO fallback) and for diagnostics.
  Database Materialize() const;

 private:
  struct SlotState {
    std::string relation;
    /// The base instance (an empty relation for virtual relations).
    const Relation* base = nullptr;
    size_t arity = 0;
    size_t count = 0;
    std::vector<ValueId> ids;
  };

  bool StageRow(SlotState& slot, const ValueId* row);
  void ReleaseCharge();

  const Database* base_;
  std::vector<SlotState> slots_;
  std::map<std::string, size_t, std::less<>> slot_of_;
  size_t pending_count_ = 0;
  /// Synthetic id kFreshIdBase - 1 - k stands for synth_[k].
  mutable std::vector<Value> synth_;
  /// Add()'s conversion buffer.
  std::vector<ValueId> row_buf_;
  /// Optional byte tracker (see set_memory_tracker) and the charge
  /// currently held against it.
  ExecutionBudget* tracker_ = nullptr;
  size_t charged_bytes_ = 0;
};

}  // namespace relcomp

#endif  // RELCOMP_RELATIONAL_DATABASE_OVERLAY_H_
