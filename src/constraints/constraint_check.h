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
/// base, every constraint query bound to it once (CompiledCq::Bind),
/// and the target projections p(Dm) on the base's id plane. Stage a
/// candidate's rows on view() — AddIds() from the valuation search,
/// Add() for Value-plane callers — then Check(). A steady-state check
/// hashes no string, compares no relation name and allocates nothing.
///
/// Made by DeltaConstraintChecker::NewSession (the base is known to
/// satisfy V; only matches through a staged row are examined),
/// CompiledConstraintCheck::NewSession (every match is examined), and
/// Uncompiled() for constraint sets neither can compile.
class ConstraintSession {
 public:
  /// For a constraint set that does not compile (FO/FP, or a UCQ
  /// unfolding over the cap): Check() evaluates it on the view through
  /// Satisfies and claims no decision point. `budget` (may be null)
  /// only tracks staging memory.
  static ConstraintSession Uncompiled(const ConstraintSet& set,
                                      const Database& base,
                                      const Database& master,
                                      ExecutionBudget* budget);

  /// The staging view over the base. Clear() it before staging the
  /// next candidate.
  DatabaseOverlay& view() { return view_; }

  /// Returns (base ∪ staged, Dm) |= V. Claims one decision point on
  /// the eval options' budget (compiled sessions).
  Result<bool> Check();

  /// Value-plane form: clears the view, stages `delta` (tuples already
  /// in the base are ignored) and checks it.
  Result<bool> Check(
      const std::vector<std::pair<std::string, Tuple>>& delta);

 private:
  friend class CompiledConstraintCheck;
  friend class DeltaConstraintChecker;

  ConstraintSession(const Database& base,
                    const ConjunctiveEvalOptions& eval_options);

  /// One compiled disjunct (or Δ variant) bound to the view.
  struct Probe {
    const CompiledCq* cq = nullptr;
    CqBinding binding;
    /// Index into targets_; kNoTarget for the q ⊆ ∅ form.
    size_t target = kNoTarget;
    /// A Δ variant runs only when this slot holds staged rows;
    /// kNoSlot runs always.
    size_t delta_slot = DatabaseOverlay::kNoSlot;
  };
  static constexpr size_t kNoTarget = SIZE_MAX;

  /// p(Dm) of one CC as a relation on the base's interner, so a head
  /// probes it by id. Built before anything is staged.
  size_t AddTarget(const Relation& projection);

  DatabaseOverlay view_;
  ConjunctiveEvalOptions eval_options_;
  std::vector<Relation> targets_;
  std::vector<Probe> probes_;
  /// Set by Uncompiled().
  const ConstraintSet* uncompiled_ = nullptr;
  const Database* master_ = nullptr;
};

/// A constraint set compiled for repeated checking: each CC's query is
/// unfolded to a UCQ once and its master-side target projection p(Dm)
/// is materialized once, after which sessions check candidate
/// instances against it — the deciders check once per valuation, over
/// D (or over ∅ for the Corollary 3.4 IND fast path).
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

  /// A session checking (base ∪ staged, Dm) |= V. `eval_options`
  /// carries the index toggle, the arena, the counter sink and the
  /// budget.
  ConstraintSession NewSession(const Database& base,
                               const ConjunctiveEvalOptions& eval_options =
                                   ConjunctiveEvalOptions()) const;

 private:
  struct Entry {
    UnionQuery ucq;
    /// One compiled matcher per disjunct of `ucq` (borrows the
    /// disjunct; the UnionQuery's heap storage keeps it stable across
    /// Entry moves).
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
/// sessions then check per candidate extension (the RCDP decider
/// checks once per valuation).
class DeltaConstraintChecker {
 public:
  /// Fails with kUnsupported if the set contains FO/FP constraints.
  static Result<DeltaConstraintChecker> Make(
      const ConstraintSet& set, std::shared_ptr<const Schema> db_schema,
      size_t max_union_disjuncts = 4096);

  /// A session over `base` — the decider's D, already known to satisfy
  /// V together with `master`. Candidate deltas are staged on an
  /// overlay over the base: zero-copy, and the base relations' column
  /// indexes stay valid across checks.
  ConstraintSession NewSession(const Database& base, const Database& master,
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
    std::string master_relation;
    std::vector<size_t> projection;
  };

  std::vector<CcVariants> constraints_;
  /// R$ccdelta alias -> R.
  std::map<std::string, std::string, std::less<>> delta_of_;
};

}  // namespace relcomp

#endif  // RELCOMP_CONSTRAINTS_CONSTRAINT_CHECK_H_
