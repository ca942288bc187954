#ifndef RELCOMP_CONSTRAINTS_CONSTRAINT_CHECK_H_
#define RELCOMP_CONSTRAINTS_CONSTRAINT_CHECK_H_

#include <optional>
#include <string>
#include <vector>

#include <map>

#include "constraints/containment_constraint.h"
#include "eval/conjunctive_eval.h"
#include "eval/query_eval.h"
#include "relational/database.h"
#include "relational/database_overlay.h"
#include "util/status.h"

namespace relcomp {

/// Result of checking a constraint set: satisfied, or the index of the
/// first violated CC plus one witness tuple in q(D) \ p(Dm).
struct ConstraintCheckResult {
  bool satisfied = true;
  int violated_index = -1;
  std::optional<Tuple> witness;

  std::string ToString() const;
};

/// Evaluates the projection p over the master data: the target column
/// projection of the master relation. Precondition: !cc.empty_target().
Relation EvalProjection(const ContainmentConstraint& cc,
                        const Database& master);

/// Checks (D, Dm) |= φ for one CC.
Result<bool> CheckConstraint(const ContainmentConstraint& cc,
                             const Database& db, const Database& master,
                             const EvalOptions& options = EvalOptions());

/// Checks (D, Dm) |= V; reports the first violation.
Result<ConstraintCheckResult> CheckConstraints(
    const ConstraintSet& set, const Database& db, const Database& master,
    const EvalOptions& options = EvalOptions());

/// Convenience wrapper returning a plain bool.
Result<bool> Satisfies(const ConstraintSet& set, const Database& db,
                       const Database& master,
                       const EvalOptions& options = EvalOptions());

/// Overlay form: checks (base ∪ staged, Dm) |= V without materializing
/// the extension. CQ-convertible constraint queries evaluate on the
/// view; FO constraints fall back to a materialized copy.
Result<bool> Satisfies(const ConstraintSet& set, const DatabaseOverlay& db,
                       const Database& master,
                       const EvalOptions& options = EvalOptions());

/// A constraint set compiled for repeated checking: each CC's query is
/// unfolded to a UCQ once and its master-side target projection p(Dm)
/// is materialized once (into an indexed Relation), after which
/// Satisfied() can be called per candidate instance — the deciders
/// call it once per valuation, against an overlay over D (or over ∅
/// for the Corollary 3.4 IND fast path).
///
/// Violation checks early-exit: matches of a constraint query are
/// enumerated and the first head tuple outside the target stops the
/// evaluation, so nothing is materialized per candidate.
class CompiledConstraintCheck {
 public:
  /// Fails with kUnsupported for FO/FP constraints (not CQ-convertible)
  /// and propagates kResourceExhausted from the UCQ unfolding cap.
  static Result<CompiledConstraintCheck> Make(const ConstraintSet& set,
                                              const Database& master,
                                              size_t max_union_disjuncts =
                                                  4096);

  /// Returns (view, Dm) |= V. `options` carries the index toggle and
  /// the counter sink.
  Result<bool> Satisfied(const DatabaseOverlay& view,
                         const ConjunctiveEvalOptions& options =
                             ConjunctiveEvalOptions()) const;

 private:
  struct Entry {
    UnionQuery ucq;
    /// One compiled matcher per disjunct of `ucq` (borrows the
    /// disjunct; the UnionQuery's heap storage keeps it stable across
    /// Entry moves). Satisfied() matches on the id plane through these
    /// instead of re-deriving slots and atom order per candidate.
    std::vector<CompiledCq> compiled;
    bool empty_target = true;
    /// Materialized p(Dm); unused when empty_target.
    Relation target;
  };
  std::vector<Entry> entries_;
};

/// Incremental constraint checking for the deciders' inner loop.
///
/// Given a base database D already known to satisfy V, checks whether
/// (D ∪ Δ, Dm) |= V by examining only the constraint-query matches
/// that use at least one Δ tuple. Exact for the monotone constraint
/// languages (CQ/UCQ/∃FO+): since (D, Dm) |= V, any violation of
/// (D ∪ Δ, Dm) must involve a new tuple. Construction is done once;
/// Check() is then called per candidate extension (the RCDP decider
/// calls it once per valuation).
class DeltaConstraintChecker {
 public:
  /// Fails with kUnsupported if the set contains FO/FP constraints.
  static Result<DeltaConstraintChecker> Make(
      const ConstraintSet& set, std::shared_ptr<const Schema> db_schema,
      size_t max_union_disjuncts = 4096);

  /// `extended` must be D ∪ Δ over the original schema; `delta` holds
  /// exactly the new tuples. Returns (D ∪ Δ, Dm) |= V.
  Result<bool> Check(const Database& extended, const Database& delta,
                     const Database& master) const;

  /// A reusable checking session over a fixed base database: candidate
  /// deltas are staged on a DatabaseOverlay over the base — zero-copy,
  /// and the base relations' column indexes stay valid across checks.
  class Session {
   public:
    Session(const DeltaConstraintChecker* checker, const Database& base,
            const Database& master,
            const ConjunctiveEvalOptions& eval_options =
                ConjunctiveEvalOptions());

    /// Returns (base ∪ delta, Dm) |= V. Tuples already in the base are
    /// ignored. The work state is restored before returning.
    Result<bool> Check(
        const std::vector<std::pair<std::string, Tuple>>& delta);

   private:
    /// Target projection p(Dm) of constraint `cc_index`, materialized
    /// lazily once per session and reused across checks.
    const Relation& TargetFor(size_t cc_index);

    const DeltaConstraintChecker* checker_;
    const Database* master_;
    ConjunctiveEvalOptions eval_options_;
    /// The zero-copy view over the caller's base.
    DatabaseOverlay view_;
    std::vector<std::optional<Relation>> targets_;
  };

  /// Creates a session; `base` is the decider's D, already known to
  /// satisfy V together with `master`.
  Session NewSession(const Database& base, const Database& master,
                     const ConjunctiveEvalOptions& eval_options =
                         ConjunctiveEvalOptions()) const {
    return Session(this, base, master, eval_options);
  }

 private:
  friend class Session;
  DeltaConstraintChecker() = default;

  struct CcVariants {
    /// Rewritten disjunct queries, each with one atom redirected to the
    /// delta relation, plus that delta relation's name (variants whose
    /// delta relation is empty for a given candidate are skipped).
    std::vector<ConjunctiveQuery> variants;
    std::vector<std::string> variant_delta_relations;
    /// One compiled matcher per variant (borrows variants[i]; built
    /// only after the variants vector is complete, so the borrowed
    /// queries never relocate).
    std::vector<CompiledCq> compiled;
    bool empty_target = true;
    std::string master_relation;
    std::vector<size_t> projection;
  };

  std::shared_ptr<const Schema> base_schema_;
  std::vector<CcVariants> constraints_;
  /// Precomputed R -> R$ccdelta alias names; Session::Check used to
  /// build the alias string per staged tuple per check.
  std::map<std::string, std::string> delta_names_;
};

}  // namespace relcomp

#endif  // RELCOMP_CONSTRAINTS_CONSTRAINT_CHECK_H_
