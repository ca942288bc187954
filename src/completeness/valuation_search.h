#ifndef RELCOMP_COMPLETENESS_VALUATION_SEARCH_H_
#define RELCOMP_COMPLETENESS_VALUATION_SEARCH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "completeness/active_domain.h"
#include "eval/bindings.h"
#include "relational/value_interner.h"
#include "tableau/tableau.h"
#include "util/execution_control.h"
#include "util/status.h"

namespace relcomp {

/// Counters reported by the valuation search; surfaced by the benches.
/// index_probes/relation_scans/overlay_hits are aggregated from the
/// relational core's EvalCounters by the deciders (constraint checks
/// and query evals issued while judging valuations).
struct ValuationSearchStats {
  /// Number of variable-binding steps taken.
  size_t bindings_tried = 0;
  /// Total valuations delivered to the callback.
  size_t totals_delivered = 0;
  /// Subtrees cut by disequality or caller pruning.
  size_t prunes = 0;
  /// Column-index probes issued against base relations.
  size_t index_probes = 0;
  /// Retired: always 0. The multi-column radix index it counted is
  /// gone; the field stays because perfbench reports it.
  size_t composite_probes = 0;
  /// Full relation scans (no bound position, or indexes disabled).
  size_t relation_scans = 0;
  /// Atom matches served by overlay-staged rows.
  size_t overlay_hits = 0;
  /// Per-search arena footprint: summed high-water bytes of the
  /// workers' bump arenas (0 when arenas are disabled).
  size_t arena_bytes = 0;
  /// Parallel mode only: work units run to completion, and units whose
  /// enumeration was cancelled after another unit won. Zero in serial
  /// runs.
  size_t work_units = 0;
  size_t work_units_cancelled = 0;

  ValuationSearchStats& operator+=(const ValuationSearchStats& other) {
    bindings_tried += other.bindings_tried;
    totals_delivered += other.totals_delivered;
    prunes += other.prunes;
    index_probes += other.index_probes;
    relation_scans += other.relation_scans;
    overlay_hits += other.overlay_hits;
    arena_bytes += other.arena_bytes;
    work_units += other.work_units;
    work_units_cancelled += other.work_units_cancelled;
    return *this;
  }
};

class ValuationEnumerator;

/// A (partial) valuation on the id plane: enumeration positions
/// [0, depth) of the producing enumerator's order() are bound, and
/// ids[i] is the ValueId bound at position i. Ids come from the unified
/// mapping of the enumerator's Options::interner — interned values keep
/// their interner id; candidate or disequality-constant values the
/// interner has never seen get deterministic per-enumerator synthetic
/// ids (parked in the unused gap below ValueInterner::kFreshIdBase), so
/// id equality means value equality throughout the enumeration and a
/// synthetic id never equals an id any relation of the family stores.
/// Resolve ids back to Values through enumerator->ResolveId(). The view
/// is only valid during the callback invocation.
struct IdValuation {
  const ValueId* ids = nullptr;
  size_t depth = 0;
  const ValuationEnumerator* enumerator = nullptr;

  /// The bound prefix as a variable → Value map, for the boundaries
  /// that judge a valuation on Values (counterexample evidence, the
  /// characterizations, naive-mode validity).
  Bindings ToBindings() const;
};

/// Interns the finite-domain values of `tableau`'s variables into the
/// family interner. Finite domains may list values outside Adom, and
/// interning them before the search (pre-freeze) lets the enumerator
/// resolve every candidate to a family id: staged rows then never
/// carry the enumerator's synthetic ids.
void InternFiniteDomainValues(const TableauQuery& tableau,
                              ValueInterner* interner);

/// A tableau's rows compiled for instantiation straight from the ids
/// of an IdValuation: μ(row) is written as an id row, ready for
/// DatabaseOverlay::AddIds or Relation::ContainsIds, with no Value,
/// Tuple or Bindings in between. Shared by RCDP's prune hook and RCQP's
/// realizability probe and Prop 4.3 witness.
class TableauRowPlan {
 public:
  /// `order` is the enumerator's variable order (IdValuation::ids is
  /// indexed by it). Every constant of the tableau must already be in
  /// `interner` — ActiveDomain::Build interns Q's constants — or Make
  /// fails with kInternal.
  static Result<TableauRowPlan> Make(const TableauQuery& tableau,
                                     const std::vector<std::string>& order,
                                     const ValueInterner& interner);

  size_t size() const { return rows_.size(); }
  const std::string& relation(size_t r) const { return *rows_[r].relation; }
  size_t arity(size_t r) const { return rows_[r].arity; }
  size_t max_arity() const { return max_arity_; }
  /// The first enumeration position at which every variable of row r
  /// is bound (0 for a row without variables).
  size_t bound_at(size_t r) const { return rows_[r].bound_at; }

  /// Writes μ(row r) into out[0, arity(r)); `ids` holds the valuation's
  /// ids by enumeration position, bound at least through bound_at(r).
  void Instantiate(size_t r, const ValueId* ids, ValueId* out) const {
    const Row& row = rows_[r];
    const int32_t* codes = codes_.data() + row.offset;
    for (size_t c = 0; c < row.arity; ++c) {
      int32_t code = codes[c];
      out[c] = code >= 0 ? ids[code] : const_ids_[-code - 1];
    }
  }

 private:
  struct Row {
    const std::string* relation = nullptr;
    size_t offset = 0;
    size_t arity = 0;
    size_t bound_at = 0;
  };
  std::vector<Row> rows_;
  /// Per row, per column: >= 0 an enumeration position, < 0 the
  /// constant const_ids_[-code - 1].
  std::vector<int32_t> codes_;
  std::vector<ValueId> const_ids_;
  size_t max_arity_ = 0;
};

/// Enumerates the paper's valid valuations of a tableau: total
/// assignments of the tableau variables where each variable draws from
/// adom(y) (finite domain, or Adom ∪ New) and every disequality of the
/// tableau holds.
///
/// In pruned mode (the default) the enumerator orders summary variables
/// first, checks disequalities as soon as both ends are bound, and
/// consults an optional caller prune hook after each binding. In naive
/// mode — the literal algorithm from the paper's upper-bound proofs,
/// kept for bench_ablation — assignments are generated in declaration
/// order and validity is only checked on total assignments.
class ValuationEnumerator {
 public:
  struct Options {
    bool pruned = true;
    /// Per-variable candidate overrides (e.g. the RCDP decider's
    /// don't-care collapse). Overridden variables use exactly the
    /// given values; others follow the normal adom(y) rules.
    const std::map<std::string, std::vector<Value>>* candidate_overrides =
        nullptr;
    /// Symmetry breaking over the fresh values (paper's New): fresh
    /// values are interchangeable (they occur nowhere in D, Dm, Q, V),
    /// so any valuation can be renamed to use fresh_0..fresh_k in order
    /// of first use. The variable at enumeration position i therefore
    /// only needs fresh candidates fresh_0..fresh_i. Sound and
    /// complete; disable for the literal paper algorithm.
    bool symmetry_break_fresh = true;
    /// Work-unit restriction used by the parallel driver: enumerate
    /// only the assignments of the first `shard_depth` variables of
    /// order_ whose flattened row-major rank lies in
    /// [shard_begin, shard_end). 0 = the full space (serial). The
    /// candidate lists themselves are shard-independent, so the union
    /// of disjoint shards visits exactly the serial sequence of
    /// valuations, each exactly once, in the same within-shard order.
    size_t shard_depth = 0;
    size_t shard_begin = 0;
    size_t shard_end = 0;
    /// Lowest-unit-wins stop, set by the parallel driver: this
    /// enumeration is work unit `unit`, and once the shared `best_unit`
    /// (not owned) names a lower unit, the next binding step aborts
    /// with kCancelled. Null = never (serial mode).
    const std::atomic<size_t>* best_unit = nullptr;
    size_t unit = 0;
    /// Optional shared execution budget (not owned) — the only cap on
    /// the search. Claims one decision point per binding step; an
    /// exhausted budget aborts the enumeration with the budget's sticky
    /// status (kResourceExhausted for deadline/steps/memory, kCancelled
    /// for a user CancelToken).
    ExecutionBudget* budget = nullptr;
    /// Interner of the instance's database family (not owned;
    /// required). Candidate values and disequality constants are
    /// resolved to ValueIds at construction (TryGet only — a frozen
    /// interner is never grown; never-seen values get synthetic ids,
    /// see IdValuation), and disequality checks during the enumeration
    /// become pure id comparisons.
    const ValueInterner* interner = nullptr;
  };

  ValuationEnumerator(const TableauQuery* tableau, const ActiveDomain* adom,
                      Options options);

  /// Runs the enumeration. `should_prune`, if non-null, is called after
  /// each variable binding (pruned mode only) with the bound prefix;
  /// returning true cuts the subtree. `on_total` receives each valid
  /// total valuation; returning false stops the whole search. Callbacks
  /// see the valuation on the id plane — no per-step map mutation or
  /// Value materialization. In naive mode (pruned = false) leaf
  /// validity is checked through TableauQuery::IsValidValuation on the
  /// materialized Bindings.
  Status EnumerateIds(
      const std::function<bool(const IdValuation&)>& should_prune,
      const std::function<bool(const IdValuation&)>& on_total);

  /// The value behind an id of this enumeration (an interner id or one
  /// of the enumerator's synthetic ids). Precondition: `id` appeared in
  /// an IdValuation of this enumerator or is an id of its interner.
  const Value& ResolveId(ValueId id) const;

  /// The variable enumeration order actually used (pruned mode:
  /// summary variables first, then a greedy row-completion order so
  /// callers can prune on partially instantiated rows).
  const std::vector<std::string>& order() const { return order_; }

  /// Number of candidate values at enumeration position `i`.
  /// Precondition: i < order().size().
  size_t CandidateCount(size_t i) const { return candidates_[i].size(); }

  /// Size of the flattened assignment space of the first
  /// min(depth, order().size()) variables — the rank space the parallel
  /// driver partitions into work units. 1 when depth is 0 or the order
  /// is empty (the single empty prefix).
  size_t PrefixSpace(size_t depth) const;

  const ValuationSearchStats& stats() const { return stats_; }

 private:
  bool RecurseIds(size_t index, size_t lo, size_t hi,
                  const std::function<bool(const IdValuation&)>& should_prune,
                  const std::function<bool(const IdValuation&)>& on_total);
  /// Bookkeeping before each binding step: the lowest-unit-wins stop
  /// and the budget decision point. Returns false — with failure_ set —
  /// when the enumeration must abort before binding the next candidate.
  bool EnterBindingStep();
  /// The id a disequality operand code denotes (>= 0: bound slot,
  /// < 0: pre-resolved constant).
  ValueId DiseqOperandId(int32_t code) const {
    return code >= 0 ? slot_ids_[static_cast<size_t>(code)]
                     : diseq_const_ids_[static_cast<size_t>(-code - 1)];
  }

  const TableauQuery* tableau_;
  const ActiveDomain* adom_;
  Options options_;
  /// Variables in enumeration order, with per-variable candidates.
  std::vector<std::string> order_;
  std::vector<std::vector<Value>> candidates_;
  /// disequalities_at_[i]: indices of tableau disequalities whose
  /// variables are all bound once order_[0..i] are bound.
  std::vector<std::vector<size_t>> disequalities_at_;
  /// Effective shard depth (options.shard_depth clamped to the order)
  /// and, per sharded level i, the rank weight of one candidate choice
  /// (product of candidate counts of levels i+1..depth-1).
  size_t shard_depth_ = 0;
  std::vector<size_t> shard_weight_;
  /// Id plane: candidate_ids_[i][k] is the unified id of
  /// candidates_[i][k]; synth_values_[k] is the value behind synthetic
  /// id kFreshIdBase - 1 - k; diseq codes reference slots (>= 0) or
  /// diseq_const_ids_ entries (< 0, index -code - 1).
  std::vector<std::vector<ValueId>> candidate_ids_;
  std::vector<const Value*> synth_values_;
  std::vector<std::pair<int32_t, int32_t>> diseq_codes_;
  std::vector<ValueId> diseq_const_ids_;
  /// Run state of an in-flight EnumerateIds call.
  std::vector<ValueId> slot_ids_;
  ValuationSearchStats stats_;
  Status failure_;
};

// --- Parallel driver -------------------------------------------------

/// What a work unit's stop meant, reported by the caller's epilogue
/// after each unit: a found target, a callback failure, or neither
/// (the unit simply exhausted its shard).
struct ParallelUnitResult {
  bool found = false;
  Status status;
};

/// Options for ParallelValuationSearchIds.
struct ParallelSearchOptions {
  /// Worker threads. <= 1 runs the serial path on the calling thread.
  size_t num_threads = 1;
  /// Resume support: skip every rank below this value (a prior run's
  /// ParallelSearchOutcome::next_rank). Ranks are absolute positions
  /// in the flattened prefix space, which is identical across thread
  /// counts in budget-controlled runs (see kControlledUnits).
  size_t resume_rank = 0;
  /// Rolling checkpoints: called with the new lowest unfinished rank
  /// each time the unit holding it runs to exhaustion with every unit
  /// below it exhausted too — the next_rank a budget exhaustion right
  /// then would have returned. Every call runs on the calling thread:
  /// a lone worker reports inline, and with a pool the calling thread
  /// reports while the workers search on, so a slow callback stalls no
  /// search thread. Calls are serialized, ranks strictly increase,
  /// advances that land during one call are reported once (as the
  /// newest rank), and the end of the rank space is never reported.
  /// Setting it makes the run controlled.
  std::function<void(size_t rank)> on_progress;
};

/// Aggregated outcome of a parallel search.
struct ParallelSearchOutcome {
  /// True when some unit found a target; winner_worker identifies the
  /// per-worker state holding it.
  bool found = false;
  size_t winner_worker = SIZE_MAX;
  /// Enumerator stats summed over every unit (bindings_tried
  /// upper-bounds the serial count: each unit re-binds its prefix).
  ValuationSearchStats stats;
  /// First deterministic failure (callback error in the winning unit,
  /// or the execution budget), OK otherwise. Kept out of the return
  /// Status so callers can merge stats before propagating.
  Status failure;
  /// Rank-space bookkeeping for checkpoint/resume: the lowest rank not
  /// yet fully searched — the size of the flattened prefix space after
  /// an exhaustive run, and the sound resume point after a budget
  /// exhaustion (every rank below it was searched without a hit).
  size_t next_rank = 0;
  /// True when the search stopped because the execution budget was
  /// exhausted or a user CancelToken fired; `failure` then holds the
  /// exhaustion status. The driver's internal lowest-unit-wins
  /// cancellation is never surfaced.
  bool exhausted = false;
};

/// Number of work units used whenever a run is budget-controlled
/// (budget, resume or progress reports). Independent of num_threads so the unit
/// partition — and with it the set of counted decision points and the
/// ranks a checkpoint can name — is identical at every thread count.
/// Which of those ranks a tripped cap leaves as the checkpoint depends
/// on the schedule at more than one thread.
inline constexpr size_t kControlledUnits = 16;

/// Runs the valuation search over `tableau` split into contiguous
/// work units of the flattened rank space of the first one-or-two
/// order_ variables, on `num_threads` std::jthread workers — the one
/// valuation search behind the deciders and the characterizations.
///
/// Callbacks receive the worker index (0-based) so callers can give
/// every worker its own scratch state (overlay, buffers, counters);
/// their IdValuation contract matches ValuationEnumerator::EnumerateIds.
/// Per-enumerator synthetic ids are assigned by the deterministic
/// construction order, so every unit — on any worker — observes the
/// identical id mapping. After each unit stops, `epilogue(worker)`
/// must report whether that worker's unit found a target or failed,
/// and reset the worker's per-unit flags (found/error) — found state
/// itself must survive until the driver returns so the winner can be
/// read out.
///
/// Determinism: units are claimed work-stealing style, but the winner
/// is resolved as the LOWEST unit index that found (or failed), and a
/// unit only wins once every lower unit exhausted. Since units are
/// contiguous ranks and within-unit enumeration is in serial order,
/// the winning valuation is exactly the one the serial search would
/// have found first — results are identical for every thread count
/// and partition. Stopping follows the same rule: a hit or failure at
/// unit u publishes u as the shared best unit, and only enumerations
/// of units above it cancel (each checks at every binding step), so
/// every unit below the winner runs to exhaustion. A tripped budget
/// stops every worker through its sticky status.
///
/// Budget: the serial path claims one decision point per point on the
/// shared budget; each pool worker holds an ExecutionBudget::Lease, so
/// it claims point numbers in runs and checks every limit at every
/// point. Leases are inert under a step cap or a FaultInjector, so a
/// capped or injected run numbers its points exactly as before, and an
/// uncapped run's steps() after the call counts exactly the points the
/// search used, at any thread count.
void ParallelValuationSearchIds(
    const TableauQuery& tableau, const ActiveDomain& adom,
    const ValuationEnumerator::Options& enum_options,
    const ParallelSearchOptions& parallel_options,
    const std::function<bool(size_t worker, const IdValuation&)>&
        should_prune,
    const std::function<bool(size_t worker, const IdValuation&)>& on_total,
    const std::function<ParallelUnitResult(size_t worker)>& epilogue,
    ParallelSearchOutcome* outcome);

}  // namespace relcomp

#endif  // RELCOMP_COMPLETENESS_VALUATION_SEARCH_H_
