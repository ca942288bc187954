#include "completeness/rcdp.h"

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <thread>

#include "eval/query_eval.h"
#include "util/arena.h"
#include "util/str.h"

namespace relcomp {

size_t EffectiveThreads(const RcdpOptions& options) {
  if (options.num_threads == 0) {
    return std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  return options.num_threads;
}

namespace {

/// Balanced freeze/unfreeze of the shared databases around the
/// concurrent phase of one disjunct search.
class FreezeScope {
 public:
  FreezeScope(const Database& db, const Database& master)
      : db_(db), master_(master) {
    db_.Freeze();
    master_.Freeze();
  }
  ~FreezeScope() {
    master_.Unfreeze();
    db_.Unfreeze();
  }
  FreezeScope(const FreezeScope&) = delete;
  FreezeScope& operator=(const FreezeScope&) = delete;

 private:
  const Database& db_;
  const Database& master_;
};

/// True for the languages in the decidable cells of Table I.
bool DecidableQueryLanguage(QueryLanguage lang) {
  return lang == QueryLanguage::kCq || lang == QueryLanguage::kUcq ||
         lang == QueryLanguage::kPositive;
}

Status GateLanguages(const AnyQuery& query, const ConstraintSet& constraints) {
  if (!DecidableQueryLanguage(query.language())) {
    return Status::Unsupported(StrCat(
        "RCDP is undecidable for L_Q = ",
        QueryLanguageToString(query.language()),
        " (Theorem 3.1); see reductions/ and automata/ for the encodings"));
  }
  if (!DecidableQueryLanguage(constraints.Language())) {
    return Status::Unsupported(StrCat(
        "RCDP is undecidable for L_C = ",
        QueryLanguageToString(constraints.Language()), " (Theorem 3.1)"));
  }
  return Status::OK();
}

/// Positions (relation, column) whose values constraint queries can
/// observe: the CC term there is a constant, or a variable with more
/// than one occurrence in its disjunct (joins, head, or comparisons).
Result<std::map<std::string, std::set<size_t>>> SensitivePositions(
    const ConstraintSet& constraints, size_t max_union_disjuncts) {
  std::map<std::string, std::set<size_t>> sensitive;
  for (const ContainmentConstraint& cc : constraints.constraints()) {
    RELCOMP_ASSIGN_OR_RETURN(UnionQuery ucq,
                             cc.query().ToUnion(max_union_disjuncts));
    for (const ConjunctiveQuery& disjunct : ucq.disjuncts()) {
      std::map<std::string, int> occurrences;
      for (const Term& t : disjunct.head()) {
        if (t.is_variable()) ++occurrences[t.var()];
      }
      for (const Atom& a : disjunct.body()) {
        for (const Term& t : a.args()) {
          if (t.is_variable()) ++occurrences[t.var()];
        }
      }
      for (const Atom& a : disjunct.body()) {
        if (!a.is_relation()) continue;
        for (size_t col = 0; col < a.args().size(); ++col) {
          const Term& t = a.args()[col];
          if (t.is_constant() || occurrences[t.var()] > 1) {
            sensitive[a.relation()].insert(col);
          }
        }
      }
    }
  }
  return sensitive;
}

/// Candidate overrides implementing the don't-care collapse (see
/// RcdpOptions::collapse_dont_care).
std::map<std::string, std::vector<Value>> CollapseOverrides(
    const TableauQuery& tableau, const Database& db,
    const ActiveDomain& adom,
    const std::map<std::string, std::set<size_t>>& sensitive) {
  std::map<std::string, std::vector<Value>> overrides;
  // Occurrence counts and positions across the rows.
  std::map<std::string, int> occurrences;
  std::map<std::string, std::pair<std::string, size_t>> only_position;
  for (const TableauRow& row : tableau.rows()) {
    for (size_t col = 0; col < row.terms.size(); ++col) {
      const Term& t = row.terms[col];
      if (!t.is_variable()) continue;
      ++occurrences[t.var()];
      only_position[t.var()] = {row.relation, col};
    }
  }
  std::set<std::string> excluded;
  for (const Term& t : tableau.summary()) {
    if (t.is_variable()) excluded.insert(t.var());
  }
  for (const auto& [lhs, rhs] : tableau.disequalities()) {
    if (lhs.is_variable()) excluded.insert(lhs.var());
    if (rhs.is_variable()) excluded.insert(rhs.var());
  }
  size_t next_dedicated = adom.fresh().size();
  const std::vector<std::string>& vars = tableau.variables();
  for (size_t i = 0; i < vars.size(); ++i) {
    const std::string& var = vars[i];
    if (excluded.count(var) > 0) continue;
    auto occ = occurrences.find(var);
    if (occ == occurrences.end() || occ->second != 1) continue;
    if (tableau.VariableDomain(var)->is_finite()) continue;
    const auto& [relation, col] = only_position[var];
    auto sens = sensitive.find(relation);
    if (sens != sensitive.end() && sens->second.count(col) > 0) continue;
    // Candidates: the column's values in D plus one dedicated fresh
    // value (taken from the tail of the fresh pool so earlier fresh
    // values stay available to the symmetry-broken variables).
    std::set<Value> values;
    for (const Tuple& t : db.Get(relation)) values.insert(t[col]);
    if (next_dedicated == 0) continue;  // fresh pool exhausted; skip
    std::vector<Value> candidates(values.begin(), values.end());
    candidates.push_back(adom.fresh()[--next_dedicated]);
    overrides[var] = std::move(candidates);
  }
  return overrides;
}

/// Per-disjunct search context: decides whether some valid valuation of
/// this disjunct's tableau is a counterexample to completeness.
class DisjunctSearch {
 public:
  DisjunctSearch(const TableauQuery& tableau, const Database& db,
                 const Database& master,
                 const DeltaConstraintChecker& delta_checker,
                 const Relation& current_answer, const ActiveDomain& adom,
                 const RcdpOptions& options)
      : tableau_(tableau),
        db_(db),
        master_(master),
        delta_checker_(delta_checker),
        current_answer_(current_answer),
        adom_(adom),
        options_(options) {}

  /// How a budget exhaustion left one disjunct's search: the sound
  /// resume rank and the exhaustion status the driver recorded.
  struct Exhaustion {
    bool exhausted = false;
    size_t next_rank = 0;
    Status status;
  };

  /// Runs the search; fills *result on success (counterexample found).
  /// With num_threads > 1 the enumeration is partitioned into work
  /// units on a jthread pool: every worker owns its scratch state (a
  /// delta session, counters, and a candidate result slot),
  /// the shared databases are frozen for the concurrent phase, and the
  /// winner is resolved deterministically (lowest work unit).
  /// `resume_rank` skips the ranks a prior interrupted run already
  /// searched; on budget exhaustion *ex is filled and false returned
  /// (no counterexample surfaced, not an error).
  /// `on_progress`, when set, receives the search's rolling low
  /// watermark (ParallelSearchOptions::on_progress).
  Result<bool> Run(RcdpResult* result,
                   const std::map<std::string, std::vector<Value>>*
                       candidate_overrides,
                   size_t resume_rank,
                   std::function<void(size_t rank)> on_progress,
                   Exhaustion* ex) {
    // The hot callbacks below operate purely on ValueId rows; Values
    // are materialized only at the rare boundary of a full valuation
    // surviving every prune. The family interner was pre-populated by
    // ActiveDomain::Build, so the per-unit enumerators stay strictly
    // read-only post-freeze.
    const ValueInterner* interner = db_.interner().get();
    ValuationEnumerator::Options enum_options;
    enum_options.pruned = options_.prune;
    enum_options.candidate_overrides = candidate_overrides;
    enum_options.budget = options_.budget;
    enum_options.interner = interner;

    // The prune hook checks V on the partially instantiated tableau as
    // soon as rows complete (sound because the supported constraint
    // languages are monotone — a violation by a subset of μ(T) persists
    // for all of it). The order is derived from a probe enumerator; it
    // is deterministic, so per-unit enumerators built by the parallel
    // driver use the identical order.
    ValuationEnumerator probe(&tableau_, &adom_, enum_options);
    const std::vector<std::string>& order = probe.order();
    std::map<std::string, size_t> position;
    for (size_t i = 0; i < order.size(); ++i) position[order[i]] = i;
    RELCOMP_ASSIGN_OR_RETURN(TableauRowPlan plan,
                             TableauRowPlan::Make(tableau_, order, *interner));
    // row_has_new_at[p]: some row becomes fully bound at position p.
    std::vector<bool> row_has_new_at(order.size(), false);
    for (size_t r = 0; r < plan.size(); ++r) {
      if (!order.empty()) row_has_new_at[plan.bound_at(r)] = true;
    }

    const size_t threads = EffectiveThreads(options_);
    std::vector<Worker> workers(threads);
    for (Worker& w : workers) InitWorker(&w, plan);

    // --- Id-plane summary plan ---------------------------------------
    // Code >= 0 names an enumeration slot, code < 0 a constant at the
    // same index (its id in summary_const_ids). summary_ground_depth is
    // the prefix length at which the summary becomes fully grounded —
    // the point the answer prune arms.
    const std::vector<Term>& summary_terms = tableau_.summary();
    std::vector<int32_t> summary_codes(summary_terms.size(), -1);
    std::vector<ValueId> summary_const_ids(summary_terms.size(),
                                           kInvalidValueId);
    bool summary_groundable = true;
    size_t summary_ground_depth = 0;
    for (size_t i = 0; i < summary_terms.size(); ++i) {
      const Term& t = summary_terms[i];
      if (t.is_variable()) {
        auto it = position.find(t.var());
        if (it == position.end()) {
          summary_groundable = false;
          continue;
        }
        summary_codes[i] = static_cast<int32_t>(it->second);
        summary_ground_depth =
            std::max(summary_ground_depth, it->second + 1);
      } else {
        std::optional<ValueId> id = interner->TryGet(t.value());
        if (!id.has_value()) {
          return Status::Internal(
              StrCat("summary constant ", t.value().ToString(),
                     " was not interned before the valuation search"));
        }
        summary_const_ids[i] = *id;
      }
    }
    // Answer containment goes through ids when Q(D) shares the family
    // interner (the EvalUnion output does unless the family was frozen
    // while it was built); otherwise fall back to Value tuples.
    const bool answer_shared = current_answer_.interner().get() == interner;

    // Id-plane body of PartialRowsSatisfyV: instantiate the rows fully
    // bound at positions <= pos as id rows and stage them on the
    // worker's session view, which drops rows of D itself; no Value,
    // Tuple or relation name is touched.
    auto partial_rows_satisfy = [&](Worker& w, const IdValuation& v,
                                    size_t pos) -> Result<bool> {
      DatabaseOverlay& view = w.session->view();
      view.Clear();
      ValueId* row = w.id_buf.data();
      for (size_t r = 0; r < plan.size(); ++r) {
        if (plan.bound_at(r) > pos) continue;
        plan.Instantiate(r, v.ids, row);
        view.AddIds(w.row_slots[r], row);
      }
      if (!view.HasPending()) return true;
      return CheckStaged(&w);
    };

    auto prune = [&](size_t wi, const IdValuation& v) {
      Worker& w = workers[wi];
      // Prune once the summary is grounded and already answered.
      if (summary_groundable && v.depth >= summary_ground_depth) {
        if (answer_shared) {
          for (size_t i = 0; i < summary_codes.size(); ++i) {
            int32_t code = summary_codes[i];
            w.summary_buf[i] = code >= 0 ? v.ids[code] : summary_const_ids[i];
          }
          if (current_answer_.ContainsIds(w.summary_buf.data())) return true;
        } else {
          std::vector<Value> vals;
          vals.reserve(summary_codes.size());
          for (size_t i = 0; i < summary_codes.size(); ++i) {
            int32_t code = summary_codes[i];
            vals.push_back(code >= 0 ? v.enumerator->ResolveId(v.ids[code])
                                     : summary_terms[i].value());
          }
          if (current_answer_.Contains(Tuple(std::move(vals)))) return true;
        }
      }
      // Prune when the rows bound so far already violate V.
      size_t pos = v.depth == 0 ? 0 : v.depth - 1;
      if (pos < row_has_new_at.size() && row_has_new_at[pos]) {
        Result<bool> ok = partial_rows_satisfy(w, v, pos);
        if (!ok.ok()) {
          w.error = ok.status();
          return true;  // abort the subtree; error surfaces after
        }
        if (!*ok) return true;
      }
      return false;
    };
    auto on_total = [&](size_t wi, const IdValuation& v) {
      Worker& w = workers[wi];
      // Materialize the full valuation once: counterexample judging is
      // rare (most candidates die in the prunes above), and the legacy
      // Bindings-based judge keeps its battle-tested semantics.
      Result<bool> is_cex = IsCounterexample(&w, v.ToBindings(), &w.candidate);
      if (!is_cex.ok()) {
        w.error = is_cex.status();
        return false;
      }
      if (*is_cex) {
        w.found = true;
        return false;
      }
      return true;
    };
    auto epilogue = [&](size_t wi) {
      Worker& w = workers[wi];
      ParallelUnitResult r;
      r.found = w.found;
      r.status = w.error;
      // Reset the per-unit flags; the candidate itself survives until
      // the driver names the winning worker.
      w.found = false;
      w.error = Status::OK();
      return r;
    };

    ParallelSearchOptions parallel_options;
    parallel_options.num_threads = threads;
    parallel_options.resume_rank = resume_rank;
    parallel_options.on_progress = std::move(on_progress);
    ParallelSearchOutcome outcome;
    std::optional<FreezeScope> freeze;
    if (threads > 1) {
      // Freeze the shared read state for the concurrent phase: every
      // lazily built structure (sort orders, dedup maps, column
      // indexes, empty-relation caches) is forced now, and the shared
      // interner is tripwired against post-fork growth. The fresh pool
      // was already reserved by ActiveDomain::Build.
      freeze.emplace(db_, master_);
      current_answer_.PrepareForRead();
    }
    ParallelValuationSearchIds(
        tableau_, adom_, enum_options, parallel_options,
        options_.prune
            ? std::function<bool(size_t, const IdValuation&)>(prune)
            : std::function<bool(size_t, const IdValuation&)>(),
        on_total, epilogue, &outcome);

    result->stats += outcome.stats;
    for (const Worker& w : workers) {
      result->stats.index_probes += w.counters.index_probes;
      result->stats.relation_scans += w.counters.relation_scans;
      result->stats.overlay_hits += w.counters.overlay_hits;
      if (w.arena.has_value()) {
        result->stats.arena_bytes += w.arena->high_water_bytes();
      }
    }
    if (outcome.exhausted) {
      // Budget/cancel exhaustion: degrade gracefully. Every rank below
      // next_rank was searched without a counterexample; the workers'
      // scratch state (overlays, sessions) unwound via Clear/rollback,
      // so the frozen core is untouched and the caller can resume.
      ex->exhausted = true;
      ex->next_rank = outcome.next_rank;
      ex->status = outcome.failure;
      return false;
    }
    RELCOMP_RETURN_NOT_OK(outcome.failure);
    if (!outcome.found) return false;
    Worker& winner = workers[outcome.winner_worker];
    result->complete = false;
    result->counterexample_delta =
        std::move(winner.candidate.counterexample_delta);
    result->new_answer = std::move(winner.candidate.new_answer);
    return true;
  }

 private:
  /// Everything one worker touches while judging valuations: the
  /// constraint session and its staging slots, the eval counters, and
  /// the slots the search callbacks fill. Workers never share any of
  /// it; the vector is sized once so the interior pointers (the eval
  /// options' arena and counters, copied into the session) stay valid.
  struct Worker {
    /// The constraint check: a delta session over D.
    std::optional<ConstraintSession> session;
    /// Per-worker bump arena for the matcher's per-call scratch, reset
    /// before every candidate check (null when use_arena is off).
    std::optional<Arena> arena;
    EvalCounters counters;
    ConjunctiveEvalOptions eval_options;
    /// Per tableau row: its staging slot on the session's view.
    std::vector<size_t> row_slots;
    /// Reused id scratch for the id-plane prune hook.
    std::vector<ValueId> id_buf;
    std::vector<ValueId> summary_buf;
    RcdpResult candidate;
    Status error;
    bool found = false;
  };

  void InitWorker(Worker* w, const TableauRowPlan& plan) {
    if (options_.use_arena) {
      w->arena.emplace();
      if (options_.budget != nullptr) {
        w->arena->set_memory_tracker(options_.budget);
      }
    }
    w->eval_options.use_indexes = options_.use_indexes;
    w->eval_options.arena = w->arena.has_value() ? &*w->arena : nullptr;
    w->eval_options.counters = &w->counters;
    w->eval_options.budget = options_.budget;
    w->session.emplace(delta_checker_.NewSession(db_, w->eval_options));
    w->row_slots.resize(plan.size());
    for (size_t r = 0; r < plan.size(); ++r) {
      w->row_slots[r] =
          w->session->view().Slot(plan.relation(r), plan.arity(r));
    }
    w->id_buf.resize(plan.max_arity());
    w->summary_buf.resize(tableau_.summary().size());
  }

  /// Checks (D ∪ Δ, Dm) |= V for what the worker's session view stages.
  Result<bool> CheckStaged(Worker* w) {
    // The matcher's per-call scratch from the previous candidate is
    // dead; reclaim it (blocks are retained, so steady state is
    // allocation free).
    if (w->arena.has_value()) w->arena->Reset();
    return w->session->Check();
  }

  Result<bool> IsCounterexample(Worker* w, const Bindings& valuation,
                                RcdpResult* result) {
    RELCOMP_ASSIGN_OR_RETURN(Tuple summary,
                             tableau_.SummaryTuple(valuation));
    if (current_answer_.Contains(summary)) return false;
    // μ(T) \ D; if empty, μ(u) would already be in Q(D).
    RELCOMP_ASSIGN_OR_RETURN(auto rows, tableau_.Instantiate(valuation));
    std::vector<std::pair<std::string, Tuple>> delta;
    std::set<std::pair<std::string, Tuple>> seen;
    for (auto& [relation, tuple] : rows) {
      if (!db_.Contains(relation, tuple) &&
          seen.emplace(relation, tuple).second) {
        delta.emplace_back(relation, tuple);
      }
    }
    if (delta.empty()) return false;
    if (w->arena.has_value()) w->arena->Reset();
    RELCOMP_ASSIGN_OR_RETURN(bool satisfied, w->session->Check(delta));
    if (!satisfied) return false;
    result->complete = false;
    Database delta_db(db_.schema_ptr());
    for (auto& [relation, tuple] : delta) {
      delta_db.InsertUnchecked(relation, std::move(tuple));
    }
    result->counterexample_delta = std::move(delta_db);
    result->new_answer = std::move(summary);
    return true;
  }

  const TableauQuery& tableau_;
  const Database& db_;
  const Database& master_;
  const DeltaConstraintChecker& delta_checker_;
  const Relation& current_answer_;
  const ActiveDomain& adom_;
  const RcdpOptions& options_;
};

/// Fingerprint of the problem instance an RCDP checkpoint belongs to;
/// resume refuses checkpoints minted for a different instance.
uint64_t RcdpFingerprint(const AnyQuery& query, const Database& db,
                         const Database& master,
                         const ConstraintSet& constraints) {
  return CheckpointFingerprint(
      {FingerprintString("rcdp"), FingerprintString(query.ToString()),
       constraints.constraints().size(), db.TotalTuples(),
       master.TotalTuples()});
}

}  // namespace

const char* VerdictToString(Verdict verdict) {
  switch (verdict) {
    case Verdict::kComplete: return "COMPLETE";
    case Verdict::kIncomplete: return "INCOMPLETE";
    case Verdict::kUnknown: return "UNKNOWN";
  }
  return "?";
}

std::string RcdpResult::ToString() const {
  if (verdict == Verdict::kUnknown) {
    std::string out = StrCat("UNKNOWN (", exhaustion.ToString(), "; ",
                             stats.bindings_tried, " search steps)");
    if (checkpoint.has_value()) {
      out += StrCat("\ncheckpoint: ", checkpoint->Serialize());
    }
    return out;
  }
  if (complete) {
    return StrCat("COMPLETE (", stats.bindings_tried,
                  " search steps, ", stats.totals_delivered,
                  " full valuations examined)");
  }
  std::string out = "INCOMPLETE";
  if (new_answer.has_value()) {
    out += StrCat("; adding Δ yields new answer ", new_answer->ToString());
  }
  if (counterexample_delta.has_value()) {
    out += StrCat("\nΔ =\n", counterexample_delta->ToString());
  }
  return out;
}

Result<RcdpResult> DecideRcdp(const AnyQuery& query, const Database& db,
                              const Database& master,
                              const ConstraintSet& constraints,
                              const RcdpOptions& options) {
  RELCOMP_RETURN_NOT_OK(GateLanguages(query, constraints));
  RELCOMP_RETURN_NOT_OK(query.Validate(db.schema()));
  RELCOMP_RETURN_NOT_OK(constraints.Validate(db.schema(), master.schema()));
  if (!options.assume_partially_closed) {
    RELCOMP_ASSIGN_OR_RETURN(bool closed, Satisfies(constraints, db, master));
    if (!closed) {
      return Status::InvalidArgument(
          "D is not partially closed: (D, Dm) does not satisfy V");
    }
  }

  RELCOMP_ASSIGN_OR_RETURN(UnionQuery ucq,
                           query.ToUnion(options.max_union_disjuncts));
  RcdpResult result;
  result.complete = true;

  EvalCounters main_counters;
  ConjunctiveEvalOptions main_eval;
  main_eval.use_indexes = options.use_indexes;
  main_eval.counters = &main_counters;
  RELCOMP_ASSIGN_OR_RETURN(Relation current_answer,
                           EvalUnion(ucq, db, main_eval));

  // The candidate check, built once: UCQ unfoldings, Δ variants and
  // the master-side target projections p(Dm). Every worker's session
  // stages candidates over D and examines only the matches through
  // Δ = μ(T) \ D (for INDs, Corollary 3.4's check of μ(T) alone).
  RELCOMP_ASSIGN_OR_RETURN(
      const DeltaConstraintChecker delta_checker,
      DeltaConstraintChecker::Make(constraints, db.schema_ptr(), master,
                                   options.max_union_disjuncts));

  std::map<std::string, std::set<size_t>> sensitive;
  if (options.collapse_dont_care) {
    RELCOMP_ASSIGN_OR_RETURN(
        sensitive,
        SensitivePositions(constraints, options.max_union_disjuncts));
  }

  // Resume bookkeeping: skip the disjuncts (and, within the checkpoint
  // disjunct, the ranks) a prior interrupted run already searched. The
  // fingerprint refuses checkpoints minted for a different instance.
  const uint64_t fingerprint = RcdpFingerprint(query, db, master,
                                               constraints);
  size_t start_disjunct = 0;
  size_t start_rank = 0;
  if (options.resume != nullptr) {
    if (options.resume->decider != "rcdp") {
      return Status::InvalidArgument(
          StrCat("cannot resume RCDP from a '", options.resume->decider,
                 "' checkpoint"));
    }
    if (options.resume->fingerprint != 0 &&
        options.resume->fingerprint != fingerprint) {
      return Status::InvalidArgument(
          "checkpoint fingerprint mismatch: resume requires the identical "
          "query, constraints, and database instances");
    }
    start_disjunct = options.resume->disjunct;
    start_rank = options.resume->rank;
  }
  auto checkpoint_at = [fingerprint](size_t disjunct, size_t rank) {
    SearchCheckpoint ckpt;
    ckpt.decider = "rcdp";
    ckpt.disjunct = disjunct;
    ckpt.rank = rank;
    ckpt.fingerprint = fingerprint;
    return ckpt;
  };

  bool exhausted = false;
  bool searched_any = false;
  std::set<Value> query_constants = ucq.Constants();
  const std::vector<ConjunctiveQuery>& disjuncts = ucq.disjuncts();
  for (size_t i = start_disjunct; i < disjuncts.size(); ++i) {
    // Incremental plan: pass over certified-clean disjuncts without
    // claiming decision points — the numbering matches a from-scratch
    // run resumed past them.
    if (options.plan != nullptr && i < options.plan->skip.size() &&
        options.plan->skip[i]) {
      continue;
    }
    const ConjunctiveQuery& disjunct = disjuncts[i];
    RELCOMP_ASSIGN_OR_RETURN(
        TableauQuery tableau,
        TableauQuery::FromConjunctive(disjunct, db.schema()));
    if (!tableau.satisfiable()) continue;
    // One fresh value per variable of this disjunct's tableau
    // (the paper's New); the proof of Prop 3.3 shows this suffices.
    // Interner growth from the fresh pool is charged to the budget.
    const size_t interner_before =
        options.budget != nullptr ? db.interner()->ApproxBytes() : 0;
    ActiveDomain adom = ActiveDomain::Build(
        db, master, query_constants, constraints,
        std::max<size_t>(1, tableau.variables().size()));
    // Finite variable domains can list values outside Adom; intern them
    // too (still pre-freeze, charged through the same byte delta).
    InternFiniteDomainValues(tableau, db.interner().get());
    if (options.budget != nullptr) {
      size_t interner_after = db.interner()->ApproxBytes();
      if (interner_after > interner_before) {
        options.budget->TrackBytes(interner_after - interner_before);
      }
    }
    std::map<std::string, std::vector<Value>> overrides;
    if (options.collapse_dont_care) {
      overrides = CollapseOverrides(tableau, db, adom, sensitive);
    }
    DisjunctSearch search(tableau, db, master, delta_checker,
                          current_answer, adom, options);
    DisjunctSearch::Exhaustion ex;
    size_t disjunct_start_rank = i == start_disjunct ? start_rank : 0;
    if (options.plan != nullptr &&
        i == options.plan->resume_rank_disjunct) {
      disjunct_start_rank =
          std::max(disjunct_start_rank, options.plan->resume_rank);
    }
    std::function<void(size_t)> on_rank;
    if (options.progress != nullptr) {
      // Every disjunct before this one is done: that is progress too.
      if (searched_any) {
        options.progress(checkpoint_at(i, disjunct_start_rank));
      }
      on_rank = [&options, &checkpoint_at, i](size_t rank) {
        options.progress(checkpoint_at(i, rank));
      };
    }
    searched_any = true;
    RELCOMP_ASSIGN_OR_RETURN(
        bool found,
        search.Run(&result, overrides.empty() ? nullptr : &overrides,
                   disjunct_start_rank, std::move(on_rank), &ex));
    if (ex.exhausted) {
      // Graceful degradation: the verdict is unknown, the exhaustion
      // reason and a resume checkpoint travel with the result, and the
      // call itself succeeds.
      exhausted = true;
      result.verdict = Verdict::kUnknown;
      result.complete = false;
      result.exhaustion = ExhaustionFromStatus(ex.status, options.budget);
      result.checkpoint = checkpoint_at(i, ex.next_rank);
      break;
    }
    if (found) {
      result.counterexample_disjunct = i;
      break;
    }
  }
  if (!exhausted) {
    result.verdict =
        result.complete ? Verdict::kComplete : Verdict::kIncomplete;
  }
  result.stats.index_probes += main_counters.index_probes;
  result.stats.relation_scans += main_counters.relation_scans;
  result.stats.overlay_hits += main_counters.overlay_hits;
  return result;
}

std::string ChaseResult::ToString() const {
  if (verdict == Verdict::kComplete) {
    return StrCat("CHASED TO COMPLETE in ", rounds, " rounds");
  }
  std::string out = StrCat("CHASE UNKNOWN after ", rounds, " rounds (",
                           exhaustion.ToString(), ")");
  if (checkpoint.has_value()) {
    out += StrCat("\ncheckpoint: ", checkpoint->Serialize());
  }
  return out;
}

Result<ChaseResult> ChaseToCompleteness(const AnyQuery& query,
                                        const Database& db,
                                        const Database& master,
                                        const ConstraintSet& constraints,
                                        size_t max_rounds,
                                        const RcdpOptions& options) {
  ChaseResult out{db};
  // Resume: continue at the interrupted round, threading the embedded
  // inner RCDP checkpoint into that round's DecideRcdp call. The
  // caller passes the partially chased database of the interrupted run
  // back as `db`, so round numbering and the inner fingerprint line up.
  size_t start_round = 0;
  std::optional<SearchCheckpoint> inner_resume;
  if (options.resume != nullptr) {
    if (options.resume->decider != "chase") {
      return Status::InvalidArgument(
          StrCat("cannot resume a chase from a '", options.resume->decider,
                 "' checkpoint"));
    }
    start_round = options.resume->disjunct;
    if (!options.resume->payload.empty()) {
      RELCOMP_ASSIGN_OR_RETURN(
          SearchCheckpoint inner,
          SearchCheckpoint::Deserialize(options.resume->payload));
      inner_resume = std::move(inner);
    }
  }

  auto make_checkpoint = [&](size_t round,
                             const std::optional<SearchCheckpoint>& inner) {
    SearchCheckpoint ckpt;
    ckpt.decider = "chase";
    ckpt.disjunct = round;
    ckpt.rank = 0;
    // The chased database changes between rounds, so the outer
    // fingerprint covers only the fixed inputs; the embedded inner
    // checkpoint re-checks the full instance on resume.
    ckpt.fingerprint = CheckpointFingerprint(
        {FingerprintString("chase"), FingerprintString(query.ToString()),
         constraints.constraints().size(), master.TotalTuples()});
    if (inner.has_value()) ckpt.payload = inner->Serialize();
    return ckpt;
  };

  RcdpOptions round_options = options;
  // A certificate plan (or closure waiver) speaks about one fixed
  // instance; the chase mutates D every round, so neither transfers.
  // Nor does a progress sink: a round's "rcdp" checkpoint does not
  // resume a chase.
  round_options.plan = nullptr;
  round_options.assume_partially_closed = false;
  round_options.progress = nullptr;
  for (size_t round = start_round; round < max_rounds; ++round) {
    if (options.budget != nullptr) {
      // One counted decision point per chase round.
      Status st = options.budget->OnDecisionPoint();
      if (!st.ok()) {
        out.verdict = Verdict::kUnknown;
        out.rounds = round;
        out.exhaustion = ExhaustionFromStatus(st, options.budget);
        out.checkpoint = make_checkpoint(round, inner_resume);
        return out;
      }
    }
    round_options.resume =
        inner_resume.has_value() ? &*inner_resume : nullptr;
    RELCOMP_ASSIGN_OR_RETURN(
        RcdpResult result,
        DecideRcdp(query, out.db, master, constraints, round_options));
    inner_resume.reset();
    if (result.verdict == Verdict::kUnknown) {
      // The round's RCDP search ran out of budget: keep every
      // completed round's delta and embed the inner checkpoint.
      out.verdict = Verdict::kUnknown;
      out.rounds = round;
      out.exhaustion = result.exhaustion;
      out.checkpoint = make_checkpoint(round, result.checkpoint);
      return out;
    }
    if (result.complete) {
      out.verdict = Verdict::kComplete;
      out.rounds = round;
      return out;
    }
    if (options.budget != nullptr) {
      // Charge the applied delta's footprint: the chased database
      // keeps growing by it.
      size_t delta_bytes = 0;
      const Database& delta = *result.counterexample_delta;
      for (const std::string& name : delta.schema().relation_names()) {
        for (const Tuple& t : delta.Get(name)) {
          delta_bytes += t.ApproxBytes();
        }
      }
      options.budget->TrackBytes(delta_bytes);
    }
    out.db.UnionWith(*result.counterexample_delta);
  }
  // The max_rounds cap shares the graceful kUnknown path (kind
  // kRounds): the query may not be relatively complete at all — check
  // with DecideRcqp — but the partial chase is still sound.
  out.verdict = Verdict::kUnknown;
  out.rounds = max_rounds;
  out.exhaustion.kind = BudgetKind::kRounds;
  out.exhaustion.detail =
      StrCat("database still incomplete after ", max_rounds,
             " chase rounds (the query may not be relatively complete; "
             "check with DecideRcqp)");
  out.checkpoint = make_checkpoint(max_rounds, std::nullopt);
  return out;
}

}  // namespace relcomp
