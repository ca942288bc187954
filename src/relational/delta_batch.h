#ifndef RELCOMP_RELATIONAL_DELTA_BATCH_H_
#define RELCOMP_RELATIONAL_DELTA_BATCH_H_

#include <set>
#include <string>
#include <vector>

#include "relational/database.h"
#include "relational/database_overlay.h"
#include "util/status.h"

namespace relcomp {

/// One update of an instance: insert (or delete) `tuple` into the named
/// relation.
struct DeltaOp {
  bool insert = true;
  std::string relation;
  Tuple tuple;

  std::string ToString() const;
};

/// A batch of updates against a completeness instance: db_ops target D,
/// master_ops target Dm. The incremental decider consumes the batch
/// through ApplyDeltaBatch, whose report drives the dependency-graph
/// invalidation (which UCQ disjuncts and constraints must re-run).
struct DeltaBatch {
  std::vector<DeltaOp> db_ops;
  std::vector<DeltaOp> master_ops;

  bool empty() const { return db_ops.empty() && master_ops.empty(); }
  size_t size() const { return db_ops.size() + master_ops.size(); }
  std::string ToString() const;
};

/// A lazy index the batch dirtied: any effective mutation of a relation
/// invalidates all of its materialized per-column hash indexes
/// (singleton column sets), which rebuild on the next probe.
struct DirtiedIndex {
  /// "db" or "master".
  std::string side;
  std::string relation;
  std::vector<size_t> columns;

  std::string ToString() const;
};

/// What a batch actually changed. No-op operations (inserting a present
/// tuple, deleting an absent one) are counted but do not mark a
/// relation changed — the incremental decider's dirtiness analysis is
/// over *effective* content changes only.
struct DeltaApplyReport {
  /// Relations of D with at least one effective insert / delete.
  std::set<std::string> db_inserted;
  std::set<std::string> db_deleted;
  /// Same for Dm.
  std::set<std::string> master_inserted;
  std::set<std::string> master_deleted;
  size_t applied_inserts = 0;
  size_t applied_deletes = 0;
  size_t noops = 0;
  /// The (relation, column-set) indexes the batch invalidated,
  /// snapshotted before the first mutation of each changed relation.
  std::vector<DirtiedIndex> dirtied_indexes;

  bool db_changed(const std::string& relation) const {
    return db_inserted.count(relation) > 0 || db_deleted.count(relation) > 0;
  }
  bool master_changed(const std::string& relation) const {
    return master_inserted.count(relation) > 0 ||
           master_deleted.count(relation) > 0;
  }
  bool changed_any() const {
    return !db_inserted.empty() || !db_deleted.empty() ||
           !master_inserted.empty() || !master_deleted.empty();
  }
  std::string ToString() const;
};

/// Applies `batch` to `db` and `master` in place, on the id plane
/// (inserts intern through the family interner exactly like
/// Database::Insert). Every op is validated up front — unknown
/// relation, arity mismatch, or a value outside an attribute domain
/// fails with the Database::Insert error and NOTHING is applied, so a
/// bad batch never leaves a half-updated instance. `master` may be
/// null when the batch has no master_ops.
Result<DeltaApplyReport> ApplyDeltaBatch(const DeltaBatch& batch,
                                         Database* db, Database* master);

/// Stages the batch's inserts on `overlay` (a what-if preview of
/// D ∪ batch without touching D). The overlay layer is insert-only, so
/// a batch containing any delete is rejected with kInvalidArgument.
Status StageInsertsOnOverlay(const DeltaBatch& batch,
                             DatabaseOverlay* overlay);

}  // namespace relcomp

#endif  // RELCOMP_RELATIONAL_DELTA_BATCH_H_
