#ifndef RELCOMP_COMPLETENESS_INCREMENTAL_H_
#define RELCOMP_COMPLETENESS_INCREMENTAL_H_

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "completeness/rcdp.h"
#include "constraints/containment_constraint.h"
#include "query/any_query.h"
#include "relational/database.h"
#include "relational/delta_batch.h"
#include "util/execution_control.h"
#include "util/status.h"

namespace relcomp {

/// --- Content fingerprints -------------------------------------------
///
/// The durable checkpoints fingerprint an instance by tuple *counts*
/// (cheap, but blind to content swaps); the incremental layer needs to
/// recognize content. FingerprintTuple is an FNV-1a hash of one tuple
/// over (relation name, value tags, value bytes). FingerprintDatabase
/// is BLAKE2s-256, truncated to 64 bits, over a canonical encoding:
/// each non-empty relation in name order, its tuples in their sorted
/// order, every name and string value length-prefixed. It is
/// independent of insertion order, and a single tuple swap flips it.
/// Unlike an XOR fold of FingerprintTuple values, which is linear over
/// GF(2), two contents with equal fingerprints cannot be solved for:
/// a submitter needs about 2^32 work to find a colliding pair, and
/// about 2^64 to match a given instance.
uint64_t FingerprintTuple(std::string_view relation, const Tuple& tuple);
uint64_t FingerprintDatabase(const Database& db);

/// Identity of a whole RCDP instance (Q, V, D, Dm): BLAKE2s-256,
/// truncated to 64 bits, over Q and V in their text forms and D and Dm
/// in FingerprintDatabase's encoding. The verdict cache key, and the
/// "nothing changed" fast path of RecertifyRcdp.
uint64_t FingerprintRcdpInstance(const AnyQuery& query, const Database& db,
                                 const Database& master,
                                 const ConstraintSet& constraints);

/// Fingerprint of the semantic decider options: the flags that can
/// change the verdict, the evidence, or the decision-point numbering
/// (prune, collapse_dont_care, max_union_disjuncts). Representation-only toggles
/// (indexes, arena, overlay) and num_threads are excluded — verdicts
/// are bit-for-bit thread-count-invariant, so certificates transfer
/// across thread counts.
uint64_t FingerprintRcdpOptions(const RcdpOptions& options);

/// --- Dependency graph -----------------------------------------------
///
/// Compiled once per spec from the CompiledCq read sets: which D
/// relations each UCQ disjunct of Q reads, and which D relations /
/// which Dm target each containment constraint touches. A delta report
/// is then mapped to "dirty" work units: a disjunct whose read set
/// misses every changed relation keeps its certified outcome.
struct RcdpDependencyGraph {
  /// disjunct_relations[i]: sorted distinct D-relations disjunct i of
  /// the UCQ unfolding of Q reads.
  std::vector<std::vector<std::string>> disjunct_relations;

  struct ConstraintDeps {
    /// Sorted distinct D-relations the CC body (all disjuncts of its
    /// UCQ unfolding) reads.
    std::vector<std::string> body_relations;
    /// Target side: π over this Dm relation, or ∅.
    bool empty_target = true;
    std::string master_relation;
  };
  /// One entry per constraint of V, in ConstraintSet order.
  std::vector<ConstraintDeps> constraint_deps;

  static Result<RcdpDependencyGraph> Build(const AnyQuery& query,
                                           const ConstraintSet& constraints,
                                           size_t max_union_disjuncts);

  std::string ToString() const;
};

/// --- Certificates ---------------------------------------------------
///
/// A certified verdict: the RcdpResult's decision together with the
/// content fingerprints it was proved under and enough evidence to
/// re-serve or resume it. Serialize/Deserialize round-trip through the
/// `relcomp-cert/1` text format (the CheckpointStore verdict payload);
/// Deserialize is hostile-input safe — any malformed byte yields
/// kInvalidArgument, never UB.
struct RcdpCertificate {
  uint64_t instance_fp = 0;  ///< FingerprintRcdpInstance at proof time.
  /// Active-domain base constant set and the content of Q(D), each
  /// BLAKE2s-256 over FingerprintDatabase's value and tuple encoding,
  /// truncated to 64 bits: a delta cannot be solved for that moves
  /// either while its fingerprint holds.
  uint64_t adom_fp = 0;
  uint64_t answer_fp = 0;
  uint64_t options_fp = 0;   ///< FingerprintRcdpOptions.
  size_t num_disjuncts = 0;  ///< UCQ unfolding width of Q.
  Verdict verdict = Verdict::kComplete;

  /// kIncomplete only: which disjunct produced the counterexample, the
  /// extension Δ as (relation, tuple) pairs, and the answer gained.
  size_t cex_disjunct = 0;
  std::vector<std::pair<std::string, Tuple>> cex_delta;
  std::optional<Tuple> cex_answer;

  /// kUnknown only: where the interrupted search stopped. Every
  /// disjunct below checkpoint.disjunct — and every rank of disjunct
  /// checkpoint.disjunct below checkpoint.rank — is certified
  /// counterexample-free for the fingerprinted instance.
  std::optional<SearchCheckpoint> checkpoint;

  std::string Serialize() const;
  static Result<RcdpCertificate> Deserialize(std::string_view text);
  bool operator==(const RcdpCertificate& other) const;
  std::string ToString() const;
};

/// A decider outcome paired with its certificate.
struct RcdpCertified {
  RcdpResult result;
  RcdpCertificate certificate;
};

/// DecideRcdp plus certificate assembly: runs the full decider and
/// fingerprints the instance it decided.
Result<RcdpCertified> CertifyRcdp(const AnyQuery& query, const Database& db,
                                  const Database& master,
                                  const ConstraintSet& constraints,
                                  const RcdpOptions& options = RcdpOptions());

/// Incremental re-certification: `db` / `master` are the POST-update
/// instances, `certificate` was issued for the pre-update instances,
/// and `report` describes what an ApplyDeltaBatch actually changed
/// (pass a default-constructed report to resume/re-serve an unchanged
/// instance). The result is bit-for-bit what CertifyRcdp would return
/// on the post-update instances, obtained by re-searching only the
/// dirty portion:
///
///  - instance fingerprint unchanged → the certificate re-serves its
///    verdict (kUnknown resumes from its embedded checkpoint);
///  - targeted closure recheck: under the monotone constraint
///    languages a D-delete or Dm-insert can never break (D, Dm) |= V,
///    so only constraints whose body reads an inserted-into D relation
///    or whose Dm target lost tuples are re-checked — a violation
///    fails with the decider's exact "not partially closed" error;
///  - active-domain, answer, or constraint-relevant content changes
///    invalidate everything (the search space itself moved): full
///    re-certify;
///  - otherwise only disjuncts whose read set intersects the changed D
///    relations re-run, driven through RcdpOptions::plan so skipped
///    disjuncts claim no decision points; an untouched kIncomplete
///    counterexample (no dirty disjunct before it) is re-served with
///    zero search, and an untouched kUnknown frontier resumes at its
///    certified rank.
///
/// Budgets compose: a kUnknown outcome carries a resumable checkpoint,
/// and re-certifying with the new certificate and an empty report
/// continues the interrupted incremental run.
Result<RcdpCertified> RecertifyRcdp(const AnyQuery& query, const Database& db,
                                    const Database& master,
                                    const ConstraintSet& constraints,
                                    const RcdpCertificate& certificate,
                                    const DeltaApplyReport& report,
                                    const RcdpOptions& options = RcdpOptions());

}  // namespace relcomp

#endif  // RELCOMP_COMPLETENESS_INCREMENTAL_H_
