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

/// One worker's reusable state for checking candidate extensions of a
/// fixed base against a constraint set: a staging overlay over the
/// base, every Δ variant of every constraint query bound to it once
/// (CompiledCq::Bind), and the target projections p(Dm) on the base's
/// id plane. Stage a candidate's rows on view() — AddIds() from the
/// valuation search, Add() for Value-plane callers — then Check(). A
/// steady-state check hashes no string, compares no relation name and
/// allocates nothing. Made by DeltaConstraintChecker::NewSession.
class ConstraintSession {
 public:
  /// The staging view over the base. Clear() it before staging the
  /// next candidate.
  DatabaseOverlay& view() { return view_; }

  /// Returns (base ∪ staged, Dm) |= V, examining only the matches that
  /// use a staged row. Claims one decision point on the eval options'
  /// budget.
  Result<bool> Check();

  /// Value-plane form: clears the view, stages `delta` (tuples already
  /// in the base are ignored) and checks it.
  Result<bool> Check(
      const std::vector<std::pair<std::string, Tuple>>& delta);

 private:
  friend class DeltaConstraintChecker;

  ConstraintSession(const Database& base,
                    const ConjunctiveEvalOptions& eval_options);

  /// One compiled Δ variant bound to the view.
  struct Probe {
    const CompiledCq* cq = nullptr;
    CqBinding binding;
    /// Index into targets_; kNoTarget for the q ⊆ ∅ form.
    size_t target = kNoTarget;
    /// The variant runs only when this slot holds staged rows.
    size_t delta_slot = DatabaseOverlay::kNoSlot;
  };
  static constexpr size_t kNoTarget = SIZE_MAX;

  DatabaseOverlay view_;
  ConjunctiveEvalOptions eval_options_;
  /// p(Dm) of each CC with a target, on the base's interner, so a head
  /// probes it by id. Built before anything is staged.
  std::vector<Relation> targets_;
  std::vector<Probe> probes_;
};

/// The deciders' one candidate check.
///
/// Given a base database D already known to satisfy V, checks whether
/// (D ∪ Δ, Dm) |= V by examining only the constraint-query matches
/// that use at least one Δ tuple. Exact for the monotone constraint
/// languages (CQ/UCQ/∃FO+): since (D, Dm) |= V, any violation of
/// (D ∪ Δ, Dm) must involve a new tuple. For a set of INDs over D = ∅
/// this is Corollary 3.4's check of V on μ(T) alone. Each CC's query is
/// unfolded and its target projection p(Dm) materialized once, in
/// Make(); sessions then check per candidate extension (the RCDP
/// decider checks once per valuation, RCQP's Prop 4.3 probe and
/// witness once per valuation over ∅).
class DeltaConstraintChecker {
 public:
  /// Fails with kUnsupported if the set contains FO/FP constraints,
  /// propagates kResourceExhausted from the UCQ unfolding cap, and
  /// refuses (kInvalidArgument) a schema that names a relation like a
  /// Δ alias (R$ccdelta).
  static Result<DeltaConstraintChecker> Make(
      const ConstraintSet& set, std::shared_ptr<const Schema> db_schema,
      const Database& master, size_t max_union_disjuncts = 4096);

  /// A session over `base` — the decider's D (or ∅), already known to
  /// satisfy V together with the master data Make() projected.
  /// Candidate deltas are staged on an overlay over the base:
  /// zero-copy, and the base relations' column indexes stay valid
  /// across checks. `eval_options` carries the index toggle, the arena,
  /// the counter sink and the budget.
  ConstraintSession NewSession(const Database& base,
                               const ConjunctiveEvalOptions& eval_options =
                                   ConjunctiveEvalOptions()) const;

 private:
  DeltaConstraintChecker() = default;

  struct CcVariants {
    /// Rewritten disjunct queries, each with one atom redirected to
    /// `R$ccdelta` — the Δ tuples of R — plus the base relation R whose
    /// staged rows that atom reads (variants whose Δ is empty for a
    /// given candidate are skipped).
    std::vector<ConjunctiveQuery> variants;
    std::vector<std::string> variant_delta_relations;
    /// One compiled matcher per variant (borrows variants[i]; built
    /// only after the variants vector is complete, so the borrowed
    /// queries never relocate).
    std::vector<CompiledCq> compiled;
    bool empty_target = true;
    /// Materialized p(Dm); unused when empty_target.
    Relation target;
  };

  std::vector<CcVariants> constraints_;
  /// R$ccdelta alias -> R.
  std::map<std::string, std::string, std::less<>> delta_of_;
};

}  // namespace relcomp

#endif  // RELCOMP_CONSTRAINTS_CONSTRAINT_CHECK_H_
