#ifndef RELCOMP_COMPLETENESS_RCQP_H_
#define RELCOMP_COMPLETENESS_RCQP_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "completeness/rcdp.h"
#include "constraints/containment_constraint.h"
#include "query/any_query.h"
#include "relational/database.h"
#include "util/status.h"

namespace relcomp {

/// Options for the RCQP decider.
struct RcqpOptions {
  /// Witness-search iterative-deepening cap: the maximum number of
  /// tuples in a candidate witness database (general-constraints path).
  size_t max_witness_tuples = 3;
  /// Cap on the candidate tuple pool built from tableau-row
  /// instantiations over the active domain.
  size_t max_pool_size = 4096;
  /// Budget on candidate witness databases examined.
  size_t max_candidates = 100000;
  /// General path: before the pool search, try to build a witness by
  /// chasing the empty database to completeness (each round adds an
  /// RCDP counterexample). Often finds multi-tuple witnesses the
  /// size-bounded pool search would miss. 0 disables.
  size_t max_chase_rounds = 32;
  /// Options for the inner RCDP checks. The execution budget for the
  /// whole RCQP call rides here (rcdp.budget): the IND realizability
  /// probes, the chase rounds, the pool-candidate judgments, and every
  /// inner RCDP search all claim decision points on that one budget.
  /// So does this call's rolling-checkpoint sink (rcdp.progress): it
  /// receives "rcqp-ind" checkpoints as the realizability probes
  /// advance, "rcqp-empty" ones around the empty database's RCDP
  /// checkpoint, and an "rcqp-pool" one after each judged candidate
  /// that is not a witness. The inner checks and the chase run without
  /// it.
  RcdpOptions rcdp;
  /// Resume point from a prior kUnknown RcqpResult (not owned; may be
  /// null). The checkpoint's decider names the phase it was minted in
  /// ("rcqp-ind", "rcqp-empty", "rcqp-chase", "rcqp-pool"); the
  /// resumed call replays the cheap syntactic phases, skips the work
  /// the checkpoint covers, and continues — the final verdict and
  /// witness are bit-for-bit those of an uninterrupted run. Note
  /// rcdp.resume is NOT consulted by DecideRcqp; inner RCDP resume
  /// state travels inside the checkpoint payload.
  const SearchCheckpoint* resume = nullptr;
};

/// Per-head-variable boundedness diagnosis for the IND case (conditions
/// E3/E4 of Section 4.2.2) — also the Section 2.3 guidance for which
/// master data is missing.
struct VariableBoundedness {
  std::string variable;
  bool finite_domain = false;  // E3
  bool ind_bounded = false;    // E4: some IND projects a column it occurs in
  bool bounded() const { return finite_domain || ind_bounded; }
};

/// The decision plus evidence.
struct RcqpResult {
  /// kComplete: RCQ(Q, Dm, V) is nonempty (exists). kIncomplete: it is
  /// provably empty (exhaustive NotExists). kUnknown: a budget/cancel
  /// exhaustion — or a non-exhaustive pool search — stopped short of a
  /// decision; `exhaustion` says why and `checkpoint` (when present)
  /// resumes the search.
  Verdict verdict = Verdict::kIncomplete;
  /// Is RCQ(Q, Dm, V) nonempty?
  bool exists = false;
  /// When exists and a witness was constructed: a database complete for
  /// Q relative to (Dm, V). Verified with the RCDP decider before being
  /// returned (general path) or built per the Prop 4.3 proof (INDs).
  std::optional<Database> witness;
  /// IND path: head variables that block completeness (E3/E4 failures)
  /// of some realizable disjunct. Empty when exists.
  std::vector<VariableBoundedness> unbounded_variables;
  /// True when a NotExists verdict is exhaustive (always for the IND
  /// path; for the general path only when the small-model witness space
  /// was fully enumerated within the budgets).
  bool exhaustive = true;
  /// Which path decided: "ind-syntactic", "all-finite-domains",
  /// "empty-witness", "chase-witness", "witness-search",
  /// "no-partially-closed-database", "unsatisfiable-query".
  std::string method;
  /// kUnknown only: why the search stopped. Also set (with verdict
  /// kComplete) when only the best-effort witness construction — not
  /// the decision itself — ran out of budget; `witness` is then absent.
  ExhaustionInfo exhaustion;
  /// kUnknown with a budget exhaustion: where to pick the search up
  /// (pass as RcqpOptions::resume with a rearmed or fresh budget).
  std::optional<SearchCheckpoint> checkpoint;

  std::string ToString() const;
};

/// Decides RCQP(L_Q, L_C): does a partially closed database complete
/// for Q relative to (Dm, V) exist?
///
/// Supported (decidable) cells of the paper's Table II: L_Q in
/// {CQ, UCQ, ∃FO+} and L_C in {INDs, CQ, UCQ, ∃FO+} — Theorem 4.5. The
/// IND case is decided exactly by the syntactic characterization of
/// Prop 4.3 (coNP). The general case runs the small-model witness
/// search justified by Prop 4.2 / Cor 4.4 (NEXPTIME); within budgets a
/// NotExists verdict is exact iff `exhaustive` is set. FO/FP cells are
/// undecidable (Theorem 4.1) and return kUnsupported.
/// `db_schema` is the schema R of the (hypothetical) databases, since
/// unlike RCDP there is no database input to carry it.
Result<RcqpResult> DecideRcqp(const AnyQuery& query,
                              std::shared_ptr<const Schema> db_schema,
                              const Database& master,
                              const ConstraintSet& constraints,
                              const RcqpOptions& options = RcqpOptions());

/// The E3/E4 analysis by itself: per disjunct of Q, the boundedness
/// status of each head variable under the INDs of `constraints`.
/// Non-IND CCs contribute nothing (conservative).
Result<std::vector<std::vector<VariableBoundedness>>> AnalyzeIndBoundedness(
    const AnyQuery& query, const ConstraintSet& constraints,
    const Schema& db_schema);

}  // namespace relcomp

#endif  // RELCOMP_COMPLETENESS_RCQP_H_
