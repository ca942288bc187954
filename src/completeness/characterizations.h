#ifndef RELCOMP_COMPLETENESS_CHARACTERIZATIONS_H_
#define RELCOMP_COMPLETENESS_CHARACTERIZATIONS_H_

#include <optional>
#include <string>
#include <vector>

#include "completeness/rcqp.h"
#include "constraints/containment_constraint.h"
#include "eval/bindings.h"
#include "query/any_query.h"
#include "relational/database.h"
#include "util/status.h"

namespace relcomp {

/// The paper's characterizations as first-class, inspectable checks.
/// The deciders (rcdp.h, rcqp.h) implement the same conditions fused
/// with search optimizations; these functions expose the definitional
/// form — which condition holds or fails, and the witnessing valuation
/// — for explanation, debugging, and the characterization tests.

/// Result of the bounded-database check (Prop 3.3 / Cor 3.4 / Cor 3.5).
struct BoundedDatabaseReport {
  /// D is bounded by (Dm, V) for Q — equivalently (Prop 3.3), D is in
  /// RCQ(Q, Dm, V).
  bool bounded = true;
  /// Which condition was evaluated: "C1" (Q(D) empty), "C2" (Q(D)
  /// nonempty), "C3" (IND specialization), or "C4" (UCQ).
  std::string condition;
  /// When not bounded: the violating valid valuation μ ...
  std::optional<Bindings> violating_valuation;
  /// ... and the disjunct index it instantiates (0 for CQ).
  int disjunct = 0;

  std::string ToString() const;
};

/// Checks the bounded-database conditions of Section 3.2 directly:
///
///   C1 (Q(D) = ∅):  for every valid valuation μ of T_Q,
///                   (D ∪ μ(T_Q), Dm) |≠ V;
///   C2 (Q(D) ≠ ∅):  for every valid valuation μ, if
///                   (D ∪ μ(T_Q), Dm) |= V then μ(u_Q) ∈ Q(D);
///   C3 (V = INDs):  as C1/C2 but testing (μ(T_Q), Dm) |= V;
///   C4 (UCQ):       per-disjunct form of C1/C2.
///
/// Enumerates valid valuations over Adom ∪ New without the decider's
/// search optimizations (use DecideRcdp for performance; this is the
/// specification). Supports L_Q, L_C in {CQ, UCQ, ∃FO+}.
Result<BoundedDatabaseReport> CheckBoundedDatabase(
    const AnyQuery& query, const Database& db, const Database& master,
    const ConstraintSet& constraints);

/// Result of the bounded-query checks (Section 4.2).
struct BoundedQueryReport {
  bool bounded = false;
  /// "E1"/"E5" (all head variables finite), "E3/E4" (IND syntactic),
  /// or "E2/E6" (valuation-set witness, checked against a concrete
  /// candidate database).
  std::string condition;
  /// E3/E4: the per-disjunct, per-variable diagnosis.
  std::vector<std::vector<VariableBoundedness>> ind_analysis;

  std::string ToString() const;
};

/// Condition E1/E5: every head variable of every satisfiable disjunct
/// ranges over a finite domain. Sufficient for RCQ(Q, Dm, V) ≠ ∅.
Result<BoundedQueryReport> CheckAllHeadVariablesFinite(
    const AnyQuery& query, const Schema& db_schema);

/// Conditions E3/E4 for IND constraint sets (Prop 4.3): every head
/// variable of every disjunct is finite-domain or IND-bounded.
/// Necessary and sufficient together with realizability (see
/// DecideRcqp, which adds the realizability search).
Result<BoundedQueryReport> CheckIndBoundedQuery(
    const AnyQuery& query, const ConstraintSet& constraints,
    const Schema& db_schema);

/// Condition E2/E6 instantiated at a concrete candidate `dv` (playing
/// the proof's D_V): (dv, Dm) |= V, and for every valid valuation μ of
/// any disjunct tableau with (dv ∪ μ(T), Dm) |= V, every
/// infinite-domain head variable takes a non-fresh value (is "bounded
/// by V with respect to μ"). When this holds, dv (plus the constant
/// rows of T_Q) is relatively complete — the constructive content of
/// Prop 4.2 / Cor 4.4.
Result<bool> CheckBoundingDatabaseE2(const AnyQuery& query,
                                     const Database& dv,
                                     const Database& master,
                                     const ConstraintSet& constraints);

}  // namespace relcomp

#endif  // RELCOMP_COMPLETENESS_CHARACTERIZATIONS_H_
