#ifndef RELCOMP_COMPLETENESS_RCDP_H_
#define RELCOMP_COMPLETENESS_RCDP_H_

#include <functional>
#include <optional>
#include <string>

#include "completeness/active_domain.h"
#include "completeness/valuation_search.h"
#include "constraints/constraint_check.h"
#include "query/any_query.h"
#include "relational/database.h"
#include "util/execution_control.h"
#include "util/status.h"

namespace relcomp {

/// Three-valued decider outcome. kUnknown is the graceful degradation
/// on budget/cancel exhaustion: the search was sound as far as it got,
/// nothing was decided, and the result carries an ExhaustionInfo plus
/// a SearchCheckpoint to resume from.
enum class Verdict : uint8_t {
  kComplete,
  kIncomplete,
  kUnknown,
};

const char* VerdictToString(Verdict verdict);

/// Per-disjunct execution plan for an incremental re-certification
/// (built by RecertifyRcdp from a verified certificate; see
/// completeness/incremental.h). Skipped disjuncts are ones the
/// certificate proves counterexample-free for the current instance —
/// the decider passes over them without claiming any decision points,
/// so a planned run's numbering equals a from-scratch run resumed past
/// the certified prefix. The caller is responsible for the proof; the
/// decider only executes the plan.
struct RcdpDisjunctPlan {
  /// skip[i] != 0: disjunct i is certified clean — do not search it.
  /// Indexes beyond the vector are searched normally.
  std::vector<uint8_t> skip;
  /// Resume the search of this one disjunct at `resume_rank` instead of
  /// rank 0 (its certified checkpoint rank; every lower rank was
  /// already searched without a counterexample). SIZE_MAX = none.
  size_t resume_rank_disjunct = static_cast<size_t>(-1);
  size_t resume_rank = 0;
};

/// Receives rolling checkpoints (see RcdpOptions::progress).
using ProgressSink = std::function<void(const SearchCheckpoint&)>;

/// Options for the RCDP decider.
struct RcdpOptions {
  /// Pruned valuation search: summary-first variable ordering, eager
  /// disequality checks, and early rejection of subtrees whose grounded
  /// summary is already in Q(D). Disable for the paper's literal
  /// enumerate-then-check algorithm (bench_ablation).
  bool prune = true;
  /// Don't-care collapse: a tableau variable that occurs exactly once
  /// in the rows, is absent from the summary and the disequalities,
  /// has an infinite domain, and sits at a column no constraint query
  /// is sensitive to (the CC term there is a single-occurrence
  /// variable in every disjunct of every CC) cannot influence whether
  /// a valuation is a counterexample except through tuple collisions
  /// with D. Its candidates shrink to the column's D-values plus one
  /// dedicated fresh value. Sound and complete; a major pruning lever
  /// for star-shaped queries (bench_ablation).
  bool collapse_dont_care = true;
  /// Probe the relations' lazily built column indexes on bound atom
  /// positions during constraint checks and query evaluation. Disable
  /// to scan every atom, as the pre-index matcher did (bench_ablation).
  bool use_indexes = true;
  /// Give every search worker (RCDP's, and RCQP's IND probe and
  /// witness) a bump arena for the matcher's per-call scratch (binding
  /// slots, per-atom row sources, step frames), reset between candidate
  /// checks; block growth is charged to the budget. Disable to
  /// heap-allocate per call (bench_ablation's `arena` toggle).
  bool use_arena = true;
  /// Worker threads for the valuation search. 0 = hardware_concurrency;
  /// 1 = today's serial path, bit-for-bit. Values > 1 partition the
  /// candidate lists of the first one-or-two enumeration variables into
  /// work units on a std::jthread pool over the frozen relational core;
  /// the verdict, counterexample_delta and new_answer are identical for
  /// every thread count (lowest-work-unit-wins resolution).
  size_t num_threads = 0;
  /// Cap on the ∃FO+ → UCQ unfolding.
  size_t max_union_disjuncts = 4096;
  /// Optional shared execution budget (not owned; may be null): a
  /// wall-clock deadline, decision-step cap, tracked-byte cap, and/or
  /// user CancelToken. One decision point is claimed per valuation
  /// binding step, per delta-constraint check, and per chase round —
  /// the identical points in serial and parallel mode — so exhaustion
  /// is deterministic at any num_threads. On exhaustion DecideRcdp
  /// returns OK with verdict kUnknown (see RcdpResult) rather than an
  /// error. When reusing the same budget instance across a resumed
  /// call, Rearm() it first — exhaustion is sticky.
  ExecutionBudget* budget = nullptr;
  /// Resume point from a prior kUnknown result's checkpoint (not
  /// owned; may be null). The call must present the identical problem
  /// instance (enforced via the checkpoint fingerprint); the combined
  /// interrupted + resumed search visits exactly the uninterrupted
  /// sequence of valuations, so the final verdict and evidence are
  /// bit-for-bit equal to an uninterrupted run.
  const SearchCheckpoint* resume = nullptr;
  /// The caller has already verified (D, Dm) |= V for this exact
  /// instance, so skip the decider's full closure check. Set by
  /// RecertifyRcdp, whose targeted recheck (exact under the monotone
  /// constraint languages) covers only the constraints a delta could
  /// have broken instead of re-evaluating all of V over all of D.
  bool assume_partially_closed = false;
  /// Incremental execution plan (not owned; may be null). Unlike
  /// `resume`, which skips a strict prefix, a plan can skip any
  /// certified-clean subset of disjuncts and resume one of them at a
  /// rank. Intended to be driven by RecertifyRcdp, which verifies the
  /// certificate against the instance content before building it; no
  /// fingerprint check happens here.
  const RcdpDisjunctPlan* plan = nullptr;
  /// Rolling checkpoints (may be empty): each time the lowest
  /// unsearched position advances — a work unit of the valuation
  /// search runs to exhaustion with every unit below it exhausted, or
  /// a later disjunct starts — the sink receives the checkpoint this
  /// call would have returned had its budget tripped right then. Calls
  /// are serialized, run on the thread that called the decider (never
  /// on a search worker), and strictly increase in (disjunct, rank). A
  /// sink makes the search controlled (the fixed kControlledUnits
  /// partition) even without a budget.
  /// DecideRcqp wraps it per phase; nested decider calls (RCQP's
  /// per-candidate RCDP checks, the chase's rounds) never receive it.
  ProgressSink progress;
};

/// Worker threads the valuation searches run for `options` (the one
/// resolver of RcdpOptions::num_threads): 0 = hardware_concurrency.
/// Never 0.
size_t EffectiveThreads(const RcdpOptions& options);

/// The decision, plus the evidence the paper's characterizations yield.
struct RcdpResult {
  /// kComplete / kIncomplete when the search ran to a decision;
  /// kUnknown when the execution budget (or a cancel) stopped it
  /// first. `complete` stays in sync (true iff verdict == kComplete).
  Verdict verdict = Verdict::kComplete;
  bool complete = false;
  /// When incomplete: the extension Δ (tuples not already in D) whose
  /// addition keeps V satisfied but changes the answer, ...
  std::optional<Database> counterexample_delta;
  /// ... and the answer tuple gained: μ(u_Q) ∈ Q(D ∪ Δ) \ Q(D).
  std::optional<Tuple> new_answer;
  /// kIncomplete only: index of the UCQ disjunct whose search produced
  /// the counterexample — recorded so the incremental re-certifier can
  /// reuse the evidence when that disjunct is untouched by a delta.
  size_t counterexample_disjunct = 0;
  /// Search effort (summed over disjuncts); surfaced by the benches.
  ValuationSearchStats stats;
  /// kUnknown only: why the search stopped ...
  ExhaustionInfo exhaustion;
  /// ... and where to pick it up (pass as RcdpOptions::resume, with a
  /// rearmed or fresh budget). Every disjunct below checkpoint.disjunct
  /// — and every rank of disjunct checkpoint.disjunct below
  /// checkpoint.rank — was already searched without a counterexample.
  std::optional<SearchCheckpoint> checkpoint;

  std::string ToString() const;
};

/// Decides RCDP(L_Q, L_C): is D complete for Q relative to (Dm, V)?
///
/// Supported (decidable) cells of the paper's Table I: L_Q in
/// {CQ, UCQ, ∃FO+} and L_C in {INDs, CQ, UCQ, ∃FO+} — Theorem 3.6.
/// For L_Q or L_C in {FO, FP} the problem is undecidable (Theorem 3.1)
/// and Decide returns kUnsupported; see reductions/ and automata/ for
/// the encodings behind those cells.
///
/// Preconditions checked: Q and V validate against the schemas, and D
/// is partially closed, i.e. (D, Dm) |= V.
Result<RcdpResult> DecideRcdp(const AnyQuery& query, const Database& db,
                              const Database& master,
                              const ConstraintSet& constraints,
                              const RcdpOptions& options = RcdpOptions());

/// Outcome of ChaseToCompleteness. The chase never discards completed
/// rounds: on exhaustion `db` holds the partially chased database —
/// every delta applied so far was a genuine counterexample, so it is a
/// strict improvement over the input — plus a checkpoint to continue.
struct ChaseResult {
  /// The chased database: complete for Q when verdict == kComplete,
  /// partially chased otherwise.
  Database db;
  /// kComplete: the chase reached a relatively complete database.
  /// kUnknown: the budget, a cancel, or the max_rounds cap stopped it
  /// first (exhaustion.kind == kRounds for the cap).
  Verdict verdict = Verdict::kComplete;
  /// Chase rounds fully applied (counterexample deltas added).
  size_t rounds = 0;
  ExhaustionInfo exhaustion;
  /// kUnknown only: resume point. Pass it as RcdpOptions::resume to a
  /// follow-up ChaseToCompleteness call whose `db` argument is this
  /// result's `db` (the partially chased database); the continued
  /// chase is bit-for-bit the uninterrupted one.
  std::optional<SearchCheckpoint> checkpoint;

  std::string ToString() const;
};

/// Repeatedly applies counterexamples: while D is incomplete, adds the
/// counterexample Δ to D — the Section 2.3 "guidance for what data
/// should be collected" paradigm; the chase need not terminate in
/// general. One budget decision point is claimed per round. On any
/// exhaustion (budget, cancel, or max_rounds) the result keeps the
/// partially chased database and carries a "chase" checkpoint whose
/// payload embeds the interrupted round's inner RCDP checkpoint.
Result<ChaseResult> ChaseToCompleteness(const AnyQuery& query,
                                        const Database& db,
                                        const Database& master,
                                        const ConstraintSet& constraints,
                                        size_t max_rounds,
                                        const RcdpOptions& options = {});

}  // namespace relcomp

#endif  // RELCOMP_COMPLETENESS_RCDP_H_
