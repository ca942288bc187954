#ifndef RELCOMP_RELATIONAL_RELATION_H_
#define RELCOMP_RELATIONAL_RELATION_H_

#include <algorithm>
#include <cassert>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "relational/tuple.h"
#include "relational/value_interner.h"
#include "util/status.h"

namespace relcomp {

/// A finite set of tuples of a fixed arity (set semantics, as in the
/// paper). Iteration is deterministic in Value order; all deciders rely
/// on deterministic enumeration for reproducible counterexamples.
///
/// Storage is a flat sorted tuple vector backed by an interned
/// ValueId plane: every tuple is additionally stored as a row of
/// 32-bit ids (row-major in `ids_`), and duplicate detection, equality
/// and index probes all run on ids instead of heap-allocated Values.
/// Sorting is lazy — inserts append and mark the relation unsorted;
/// the first read re-establishes Value order. Per-column hash indexes
/// (ValueId -> ascending row list) are built lazily by Probe() and
/// invalidated by Insert/Erase.
class Relation {
 public:
  /// Outcome of TryInsert: the arity-mismatch case is distinguishable
  /// from an already-present tuple (Insert() collapses both to false,
  /// which is ambiguous; see below).
  enum class InsertOutcome { kInserted, kDuplicate, kArityMismatch };

  /// Creates an empty relation of the given arity. If `interner` is
  /// null, one is created lazily on first insert (Database passes its
  /// shared per-family interner).
  explicit Relation(size_t arity = 0,
                    std::shared_ptr<ValueInterner> interner = nullptr)
      : arity_(arity), interner_(std::move(interner)) {}
  ~Relation();

  // Copies and moves carry the data plane; the lazily built per-column
  // indexes stay behind and rebuild on demand.
  Relation(const Relation& other);
  Relation& operator=(const Relation& other);
  Relation(Relation&& other) noexcept;
  Relation& operator=(Relation&& other) noexcept;

  size_t arity() const { return arity_; }
  size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }

  /// Inserts a tuple; returns true if it was newly added. The tuple's
  /// arity must match: mismatches assert in debug builds and return
  /// false in release builds, indistinguishable from a duplicate — use
  /// TryInsert for a distinguishable outcome or Database::Insert for a
  /// checked Status API.
  bool Insert(Tuple t) {
    InsertOutcome outcome = TryInsert(std::move(t));
    assert(outcome != InsertOutcome::kArityMismatch &&
           "Relation::Insert: tuple arity does not match relation arity");
    return outcome == InsertOutcome::kInserted;
  }

  /// Inserts a tuple, reporting arity mismatches distinctly.
  InsertOutcome TryInsert(Tuple t);

  bool Contains(const Tuple& t) const { return FindRow(t) != kNoRow; }

  bool Erase(const Tuple& t);

  /// Subset test: every tuple of *this is in `other`.
  bool IsSubsetOf(const Relation& other) const;

  /// Adds every tuple of `other` (arity must match; mismatched tuples
  /// are impossible if both relations were built through checked APIs).
  void UnionWith(const Relation& other);

  bool operator==(const Relation& other) const;
  bool operator!=(const Relation& other) const { return !(*this == other); }

  using const_iterator = std::vector<Tuple>::const_iterator;
  const_iterator begin() const {
    EnsureSorted();
    return tuples_.begin();
  }
  const_iterator end() const {
    EnsureSorted();
    return tuples_.end();
  }

  // --- Indexed access (the eval engine's fast path). -----------------

  /// Rows (ascending, in iteration order) whose column `col` equals
  /// `v`, via the lazily built per-column hash index; nullptr when no
  /// row matches. Precondition: col < arity().
  const std::vector<uint32_t>* Probe(size_t col, const Value& v) const;

  /// Number of rows Probe(col, v) would return (0 on miss) without
  /// forcing the index for other values.
  size_t ProbeCount(size_t col, const Value& v) const {
    const std::vector<uint32_t>* rows = Probe(col, v);
    return rows == nullptr ? 0 : rows->size();
  }

  /// Id-plane Probe: same result as Probe(col, Resolve(id)) but skips
  /// the Value hash lookup entirely. `id` must come from this
  /// relation's interner family (ids from a foreign interner are
  /// meaningless here).
  const std::vector<uint32_t>* ProbeId(size_t col, ValueId id) const;

  /// Containment on the id plane: true iff some row's ids equal
  /// `row_ids[0..arity)`. Ids must be from this relation's interner
  /// family; pure read (the dedup map is maintained eagerly), so it is
  /// safe on a prepared relation from concurrent threads.
  bool ContainsIds(const ValueId* row_ids) const {
    if (tuples_.empty()) return false;
    auto it = dedup_.find(HashIds(row_ids, arity_));
    if (it == dedup_.end()) return false;
    for (uint32_t row : it->second) {
      if (std::equal(row_ids, row_ids + arity_,
                     ids_.data() + static_cast<size_t>(row) * arity_)) {
        return true;
      }
    }
    return false;
  }

  /// The tuple at `row` in iteration order. Precondition: row < size().
  const Tuple& TupleAt(size_t row) const {
    EnsureSorted();
    return tuples_[row];
  }

  /// The interned id row at `row` (arity() consecutive ids), valid
  /// until the next mutation. Precondition: row < size().
  const ValueId* RowIds(size_t row) const {
    EnsureSorted();
    return ids_.data() + row * arity_;
  }

  /// The id of `v` under this relation's interner, if seen before.
  std::optional<ValueId> IdOf(const Value& v) const {
    if (interner_ == nullptr) return std::nullopt;
    return interner_->TryGet(v);
  }

  /// The value behind an id from RowIds(). Precondition: id was
  /// produced by this relation's interner.
  const Value& Resolve(ValueId id) const { return interner_->ValueOf(id); }

  /// The shared interner (null until the first insert if none was
  /// passed at construction).
  const std::shared_ptr<ValueInterner>& interner() const { return interner_; }

  /// Column sets of the currently materialized lazy indexes: one
  /// singleton set per built per-column hash index. Every mutation
  /// (Insert/Erase/UnionWith) drops all of them, so the delta-apply
  /// layer snapshots this before a batch to report exactly which
  /// (relation, column-set) indexes the batch dirtied. Ascending
  /// column order.
  std::vector<std::vector<size_t>> BuiltIndexColumnSets() const;

  /// Eagerly materializes every lazily built read structure: the
  /// Value-sorted row order, the dedup map, and the per-column hash
  /// indexes for `columns` (all columns when null). After this call,
  /// const reads — begin/end, TupleAt, RowIds, Contains, IdOf, Resolve,
  /// and Probe on a prepared column — touch no mutable state and are
  /// safe from concurrent threads. Any mutation (Insert/Erase/
  /// UnionWith) voids the guarantee until the next PrepareForRead.
  void PrepareForRead(const std::vector<size_t>* columns = nullptr) const;

  /// "{(1, 2), (3, 4)}".
  std::string ToString() const;

 private:
  static constexpr uint32_t kNoRow = 0xFFFFFFFFu;

  /// Row index of `t`, or kNoRow. Never interns.
  uint32_t FindRow(const Tuple& t) const;

  /// Re-establishes Value-sorted row order (no-op when already sorted).
  void EnsureSorted() const;
  void EnsureColumnIndex(size_t col) const;
  void RebuildDedup() const;
  void InvalidateIndexes() const;

  static uint64_t HashIds(const ValueId* ids, size_t n) {
    uint64_t h = 0xcbf29ce484222325ull;
    for (size_t i = 0; i < n; ++i) h = (h ^ ids[i]) * 0x100000001b3ull;
    return h;
  }

  size_t arity_;
  std::shared_ptr<ValueInterner> interner_;
  /// Rows; sorted by Value order when sorted_ (lazily restored).
  mutable std::vector<Tuple> tuples_;
  /// Row-major id plane, parallel to tuples_.
  mutable std::vector<ValueId> ids_;
  mutable bool sorted_ = true;
  /// Duplicate detection: hash of a row's ids -> rows with that hash.
  /// Always maintained (rebuilt when sorting permutes rows).
  mutable std::unordered_map<uint64_t, std::vector<uint32_t>> dedup_;
  /// Lazily built per-column indexes over the sorted order.
  mutable std::vector<std::unordered_map<ValueId, std::vector<uint32_t>>>
      col_index_;
  mutable std::vector<char> col_index_built_;
};

}  // namespace relcomp

#endif  // RELCOMP_RELATIONAL_RELATION_H_
