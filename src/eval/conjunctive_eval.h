#ifndef RELCOMP_EVAL_CONJUNCTIVE_EVAL_H_
#define RELCOMP_EVAL_CONJUNCTIVE_EVAL_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "eval/bindings.h"
#include "query/conjunctive_query.h"
#include "query/union_query.h"
#include "relational/database.h"
#include "relational/database_overlay.h"
#include "relational/relation.h"
#include "util/arena.h"
#include "util/execution_control.h"
#include "util/status.h"

namespace relcomp {

/// Work counters for the conjunctive matcher; aggregated by the
/// deciders and surfaced by the benches next to ValuationSearchStats.
struct EvalCounters {
  /// Column-index probes issued against base relations.
  size_t index_probes = 0;
  /// Full scans of a base relation (no bound position, or indexes
  /// disabled).
  size_t relation_scans = 0;
  /// Base rows examined (via probe lists or scans).
  size_t base_rows_considered = 0;
  /// Overlay-staged rows examined.
  size_t overlay_rows_considered = 0;
  /// Atom matches served by an overlay-staged row.
  size_t overlay_hits = 0;

  EvalCounters& operator+=(const EvalCounters& o) {
    index_probes += o.index_probes;
    relation_scans += o.relation_scans;
    base_rows_considered += o.base_rows_considered;
    overlay_rows_considered += o.overlay_rows_considered;
    overlay_hits += o.overlay_hits;
    return *this;
  }
};

/// Options for the conjunctive matcher.
struct ConjunctiveEvalOptions {
  /// If true, relation atoms are greedily reordered at each step to
  /// maximize bound positions (cheap selectivity heuristic). If false,
  /// atoms are matched in textual order — the "naive" baseline measured
  /// in bench_ablation.
  bool reorder_atoms = true;
  /// If true, an atom with at least one bound position probes the
  /// relation's lazily built column index on every bound position and
  /// walks the shortest posting list, re-checking the other bound
  /// positions per row. If false, every atom scans — combined with
  /// reorder_atoms = false this is the literal textual-order paper
  /// algorithm.
  bool use_indexes = true;
  /// Optional per-search arena (not owned; may be null). When set, all
  /// per-call matcher scratch — binding slots, per-atom row sources,
  /// step frames — is bump-allocated here instead of the heap; the
  /// caller resets the arena between searches. The `arena` ablation
  /// toggle.
  Arena* arena = nullptr;
  /// Optional sink for work counters (not owned; may be null).
  EvalCounters* counters = nullptr;
  /// Optional shared execution budget (not owned; may be null).
  /// ConstraintSession::Check claims one decision point per check
  /// against it; plain evaluation does not consume points.
  ExecutionBudget* budget = nullptr;
};

/// A compiled query resolved against one overlay (CompiledCq::Bind):
/// every relation atom's base relation and staging slot, and every
/// constant's id. A checking session binds once and then runs the same
/// query per candidate without comparing a relation name or hashing a
/// value.
struct CqBinding {
  struct Atom {
    /// Base rows the atom reads; null reads staged rows only (the delta
    /// checker's Δ atoms).
    const Relation* base = nullptr;
    /// The overlay slot whose staged rows the atom reads.
    size_t slot = DatabaseOverlay::kNoSlot;
  };
  /// Per relation atom, in body order.
  std::vector<Atom> atoms;
  /// Per constant occurrence: the family id, or kInvalidValueId for a
  /// value the family does not know (resolved per run through the
  /// overlay's synthetic table).
  std::vector<ValueId> const_ids;
};

/// A conjunctive query compiled for the id-plane matcher: variables
/// are numbered into dense slots, atom arguments become slot/constant
/// references, and the head is pre-resolved — so a single compilation
/// serves many evaluations (the delta-constraint checker matches the
/// same disjunct bodies thousands of times per decision). The compiled
/// form borrows `q`; the query must outlive it. Compiled queries are
/// immutable after construction: the const entry points are safe to
/// call from concurrent workers (each call keeps its run state on its
/// own stack/arena).
class CompiledCq {
 public:
  explicit CompiledCq(const ConjunctiveQuery& q);
  ~CompiledCq();
  CompiledCq(CompiledCq&&) noexcept;
  CompiledCq& operator=(CompiledCq&&) noexcept;

  const ConjunctiveQuery& query() const;

  /// Distinct relation names the body reads, sorted: the compiled
  /// query's read set. The incremental re-certifier's dependency graph
  /// is assembled from these — a UCQ disjunct or constraint body needs
  /// re-running only when its read set intersects a delta's changed
  /// relations.
  const std::vector<std::string>& body_relations() const;

  /// Resolves the query against `view`, registering a staging slot per
  /// relation atom. `resolve`, when set, overrides an atom's resolution
  /// by relation name (it returns the atom's binding, or nullopt for the
  /// default: the base relation and the slot of that name).
  CqBinding Bind(DatabaseOverlay* view,
                 const std::function<std::optional<CqBinding::Atom>(
                     const std::string& relation)>& resolve = nullptr) const;

  /// Enumerates body matches over base ∪ staged, invoking `on_head`
  /// with the grounded head as parallel id/value arrays of
  /// query().arity() entries (valid only during the call). Matches
  /// whose head cannot be grounded (an unbound head variable) are
  /// skipped. Head ids are ids of the view (IdOf): family ids, or the
  /// overlay's synthetic ids for values the family has never seen.
  /// `binding`, when set, must come from Bind() on this view; without
  /// one, atoms and constants are resolved by name per call.
  Status ForEachHeadMatch(
      const DatabaseOverlay& db, const CqBinding* binding,
      const ConjunctiveEvalOptions& options,
      const std::function<bool(const ValueId* head_ids,
                               const Value* const* head_vals)>& on_head) const;

  /// Legacy enumeration: materializes a Bindings map per total match.
  /// The per-step search runs on the id plane either way; only match
  /// delivery pays for the map.
  Status ForEachMatch(const DatabaseOverlay& db,
                      const ConjunctiveEvalOptions& options,
                      const std::function<bool(const Bindings&)>& on_match)
      const;

  /// Opaque compiled form (public so the matcher's internal run state,
  /// a TU-local class, can borrow it).
  struct Impl;

 private:
  std::unique_ptr<Impl> impl_;
};

/// Evaluates a CQ over `db`, returning the set of head tuples Q(D).
Result<Relation> EvalConjunctive(
    const ConjunctiveQuery& q, const Database& db,
    const ConjunctiveEvalOptions& options = ConjunctiveEvalOptions());
Result<Relation> EvalConjunctive(
    const ConjunctiveQuery& q, const DatabaseOverlay& db,
    const ConjunctiveEvalOptions& options = ConjunctiveEvalOptions());

/// Evaluates a UCQ (union of the disjunct answers).
Result<Relation> EvalUnion(
    const UnionQuery& q, const Database& db,
    const ConjunctiveEvalOptions& options = ConjunctiveEvalOptions());
Result<Relation> EvalUnion(
    const UnionQuery& q, const DatabaseOverlay& db,
    const ConjunctiveEvalOptions& options = ConjunctiveEvalOptions());

/// True iff Q(db) is nonempty (early-exits on the first match).
Result<bool> ConjunctiveSatisfiedIn(
    const ConjunctiveQuery& q, const Database& db,
    const ConjunctiveEvalOptions& options = ConjunctiveEvalOptions());
Result<bool> ConjunctiveSatisfiedIn(
    const ConjunctiveQuery& q, const DatabaseOverlay& db,
    const ConjunctiveEvalOptions& options = ConjunctiveEvalOptions());

/// Enumerates every total assignment of the body variables of `q` that
/// matches the instance (homomorphisms from the query body into it).
/// The callback returns false to stop the enumeration early.
/// Used by the constraint checker and by the brute-force oracles.
///
/// The overlay form matches against base ∪ staged tuples; per atom,
/// base rows are enumerated first (in iteration order, restricted by
/// an index probe when a position is bound), then staged rows.
Status ForEachMatch(const ConjunctiveQuery& q, const Database& db,
                    const ConjunctiveEvalOptions& options,
                    const std::function<bool(const Bindings&)>& on_match);
Status ForEachMatch(const ConjunctiveQuery& q, const DatabaseOverlay& db,
                    const ConjunctiveEvalOptions& options,
                    const std::function<bool(const Bindings&)>& on_match);

}  // namespace relcomp

#endif  // RELCOMP_EVAL_CONJUNCTIVE_EVAL_H_
