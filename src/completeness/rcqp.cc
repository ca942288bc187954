#include "completeness/rcqp.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <string_view>

#include "completeness/active_domain.h"
#include "completeness/valuation_search.h"
#include "constraints/constraint_check.h"
#include "tableau/tableau.h"
#include "util/codec.h"
#include "util/str.h"

namespace relcomp {
namespace {

bool DecidableLanguage(QueryLanguage lang) {
  return lang == QueryLanguage::kCq || lang == QueryLanguage::kUcq ||
         lang == QueryLanguage::kPositive;
}

Status GateLanguages(const AnyQuery& query, const ConstraintSet& constraints) {
  if (!DecidableLanguage(query.language())) {
    return Status::Unsupported(StrCat(
        "RCQP is undecidable for L_Q = ",
        QueryLanguageToString(query.language()),
        " (Theorem 4.1); see reductions/ and automata/ for the encodings"));
  }
  if (!DecidableLanguage(constraints.Language())) {
    return Status::Unsupported(StrCat(
        "RCQP is undecidable for L_C = ",
        QueryLanguageToString(constraints.Language()), " (Theorem 4.1)"));
  }
  return Status::OK();
}

/// Head variables (distinct, in order) of a tableau's summary.
std::vector<std::string> SummaryVariables(const TableauQuery& tableau) {
  std::vector<std::string> out;
  std::set<std::string> seen;
  for (const Term& t : tableau.summary()) {
    if (t.is_variable() && seen.insert(t.var()).second) {
      out.push_back(t.var());
    }
  }
  return out;
}

/// Columns of each relation projected into master data by the IND CCs.
std::map<std::string, std::set<size_t>> IndProjectedColumns(
    const ConstraintSet& constraints) {
  std::map<std::string, std::set<size_t>> out;
  for (const ContainmentConstraint& cc : constraints.constraints()) {
    if (!cc.IsInd() || cc.has_empty_target()) continue;
    const ConjunctiveQuery& q = *cc.query().as_cq();
    const Atom& atom = q.body().front();
    for (const Term& head_term : q.head()) {
      for (size_t col = 0; col < atom.args().size(); ++col) {
        if (atom.args()[col].is_variable() &&
            atom.args()[col].var() == head_term.var()) {
          out[atom.relation()].insert(col);
        }
      }
    }
  }
  return out;
}

/// E3/E4 for one tableau.
std::vector<VariableBoundedness> AnalyzeTableau(
    const TableauQuery& tableau,
    const std::map<std::string, std::set<size_t>>& projected) {
  std::vector<VariableBoundedness> out;
  for (const std::string& var : SummaryVariables(tableau)) {
    VariableBoundedness vb;
    vb.variable = var;
    vb.finite_domain = tableau.VariableDomain(var)->is_finite();
    for (const TableauRow& row : tableau.rows()) {
      auto it = projected.find(row.relation);
      if (it == projected.end()) continue;
      for (size_t col = 0; col < row.terms.size(); ++col) {
        if (row.terms[col].is_variable() && row.terms[col].var() == var &&
            it->second.count(col) > 0) {
          vb.ind_bounded = true;
        }
      }
    }
    out.push_back(std::move(vb));
  }
  return out;
}

/// Checks (μ(T), Dm) |= V for valuations of one tableau: μ(T) is
/// staged as id rows, straight from the valuation, on a delta session
/// over `family`, the empty instance the active domain was built on
/// (partially closed, as DecideRcqp checks first). One per worker; its
/// session points at its own arena, so it stays where it was built.
class RealizabilityCheck {
 public:
  RealizabilityCheck(const TableauRowPlan& plan, const Database& family,
                     const DeltaConstraintChecker& checker, bool use_arena,
                     ExecutionBudget* budget)
      : plan_(plan) {
    if (use_arena) {
      arena_.emplace();
      if (budget != nullptr) arena_->set_memory_tracker(budget);
    }
    ConjunctiveEvalOptions eval_options;
    eval_options.arena = arena_.has_value() ? &*arena_ : nullptr;
    eval_options.budget = budget;
    session_.emplace(checker.NewSession(family, eval_options));
    slots_.resize(plan.size());
    for (size_t r = 0; r < plan.size(); ++r) {
      slots_[r] = session_->view().Slot(plan.relation(r), plan.arity(r));
    }
    row_.resize(plan.max_arity());
  }
  RealizabilityCheck(const RealizabilityCheck&) = delete;
  RealizabilityCheck& operator=(const RealizabilityCheck&) = delete;

  Result<bool> Realizable(const IdValuation& v) {
    DatabaseOverlay& view = session_->view();
    view.Clear();
    for (size_t r = 0; r < plan_.size(); ++r) {
      plan_.Instantiate(r, v.ids, row_.data());
      view.AddIds(slots_[r], row_.data());
    }
    if (arena_.has_value()) arena_->Reset();
    return session_->Check();
  }

 private:
  const TableauRowPlan& plan_;
  std::optional<Arena> arena_;
  std::optional<ConstraintSession> session_;
  std::vector<size_t> slots_;
  std::vector<ValueId> row_;
};

/// Outcome of one realizability probe: whether a realizable valuation
/// exists, or the budget exhaustion point — next_rank is the resume
/// rank within the probe's own enumeration space (every lower rank was
/// searched without a hit).
struct ProbeOutcome {
  bool realizable = false;
  bool exhausted = false;
  size_t next_rank = 0;
  Status exhaustion_status;
};

/// Searches for a valid valuation μ of `tableau` with (μ(T), Dm) |= V.
/// With num_threads > 1 the enumeration runs on the parallel driver:
/// each worker stages candidates on its own session over ∅, Dm and
/// the family are frozen for the concurrent phase, and the verdict
/// is the serial one (lowest work unit wins). With a budget the driver
/// switches to its fixed thread-count-independent unit partition, so
/// exhaustion and next_rank are deterministic at any num_threads.
/// `family` is the empty instance the active domain was built on;
/// `on_progress` (may be empty) receives the probe's rolling low
/// watermark.
Result<ProbeOutcome> FindRealizableValuation(
    const TableauQuery& tableau, const Database& master,
    const DeltaConstraintChecker& checker, const Database& family,
    const ActiveDomain& adom, size_t num_threads,
    bool use_arena, ExecutionBudget* budget, size_t resume_rank,
    std::function<void(size_t rank)> on_progress) {
  ValuationEnumerator::Options enum_options;
  enum_options.budget = budget;
  enum_options.interner = family.interner().get();
  ValuationEnumerator probe_order(&tableau, &adom, enum_options);
  RELCOMP_ASSIGN_OR_RETURN(
      TableauRowPlan plan,
      TableauRowPlan::Make(tableau, probe_order.order(), *family.interner()));
  struct Worker {
    std::optional<RealizabilityCheck> check;
    Status error;
    bool found = false;
  };
  const size_t threads = std::max<size_t>(1, num_threads);
  std::vector<Worker> workers(threads);
  for (Worker& w : workers) {
    w.check.emplace(plan, family, checker, use_arena, budget);
  }
  ParallelSearchOptions parallel_options;
  parallel_options.num_threads = threads;
  parallel_options.resume_rank = resume_rank;
  parallel_options.on_progress = std::move(on_progress);
  auto on_total = [&](size_t wi, const IdValuation& v) {
    Worker& w = workers[wi];
    Result<bool> sat = w.check->Realizable(v);
    if (!sat.ok()) {
      w.error = sat.status();
      return false;
    }
    if (*sat) {
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
    w.found = false;
    w.error = Status::OK();
    return r;
  };
  ParallelSearchOutcome outcome;
  if (threads > 1) {
    master.Freeze();
    family.Freeze();
  }
  ParallelValuationSearchIds(tableau, adom, enum_options, parallel_options,
                             /*should_prune=*/nullptr, on_total, epilogue,
                             &outcome);
  if (threads > 1) {
    family.Unfreeze();
    master.Unfreeze();
  }
  ProbeOutcome probe;
  if (outcome.exhausted) {
    probe.exhausted = true;
    probe.next_rank = outcome.next_rank;
    probe.exhaustion_status = outcome.failure;
    return probe;
  }
  RELCOMP_RETURN_NOT_OK(outcome.failure);
  probe.realizable = outcome.found;
  return probe;
}

/// Builds the Prop 4.3 witness for one bounded, realizable disjunct:
/// one instantiated tableau per achievable summary tuple. Rows are
/// materialized into `witness` only for valuations that realize. A
/// budget exhaustion here clears *witness_complete instead of failing
/// the call; the caller answers kUnknown with a checkpoint that
/// rebuilds the witness. `family` is the empty instance the active
/// domain was built on.
Status AccumulateIndWitness(const TableauQuery& tableau,
                            const DeltaConstraintChecker& checker,
                            const ActiveDomain& adom, const Database& family,
                            bool use_arena, ExecutionBudget* budget,
                            Database* witness, bool* witness_complete) {
  ValuationEnumerator::Options options;
  options.budget = budget;
  options.interner = family.interner().get();
  ValuationEnumerator enumerator(&tableau, &adom, options);
  RELCOMP_ASSIGN_OR_RETURN(
      TableauRowPlan plan,
      TableauRowPlan::Make(tableau, enumerator.order(), *family.interner()));
  // Covered summary tuples, keyed on the ids of the summary's variable
  // slots (the constants are the same in every summary tuple, and id
  // equality is value equality within one enumeration).
  std::vector<size_t> summary_slots;
  for (const Term& t : tableau.summary()) {
    if (!t.is_variable()) continue;
    const std::vector<std::string>& order = enumerator.order();
    summary_slots.push_back(static_cast<size_t>(
        std::find(order.begin(), order.end(), t.var()) - order.begin()));
  }
  RealizabilityCheck check(plan, family, checker, use_arena, budget);
  std::set<std::vector<ValueId>> covered;
  std::vector<ValueId> key;
  Status inner;
  Status enumerated = enumerator.EnumerateIds(
      nullptr, [&](const IdValuation& v) {
        key.clear();
        for (size_t slot : summary_slots) key.push_back(v.ids[slot]);
        if (covered.count(key) > 0) return true;
        Result<bool> sat = check.Realizable(v);
        if (!sat.ok()) {
          inner = sat.status();
          return false;
        }
        if (*sat) {
          covered.insert(key);
          Status st = tableau.InstantiateInto(v.ToBindings(), witness);
          if (!st.ok()) {
            inner = st;
            return false;
          }
        }
        return true;
      });
  if (budget != nullptr && budget->exhausted()) {
    *witness_complete = false;
    return Status::OK();
  }
  RELCOMP_RETURN_NOT_OK(enumerated);
  return inner;
}

/// The rcqp-ind checkpoint payload: the probed tableau indexes whose
/// probe found a realizable valuation, comma-separated.
std::string RealizedPayload(const std::set<size_t>& realized) {
  std::string payload;
  for (size_t idx : realized) {
    if (!payload.empty()) payload += ',';
    payload += std::to_string(idx);
  }
  return payload;
}

/// All per-disjunct tableaux of a query convertible to UCQ.
Result<std::vector<TableauQuery>> QueryTableaux(const AnyQuery& query,
                                                const Schema& schema,
                                                size_t max_disjuncts) {
  RELCOMP_ASSIGN_OR_RETURN(UnionQuery ucq, query.ToUnion(max_disjuncts));
  std::vector<TableauQuery> out;
  for (const ConjunctiveQuery& disjunct : ucq.disjuncts()) {
    RELCOMP_ASSIGN_OR_RETURN(TableauQuery tableau,
                             TableauQuery::FromConjunctive(disjunct, schema));
    if (tableau.satisfiable()) out.push_back(std::move(tableau));
  }
  return out;
}

/// Candidate tuple pool: instantiations of every tableau row (query and
/// constraint tableaux alike) over the active domain. Returns true if
/// the pool was truncated by the cap. Each row gets its own slice of
/// the cap, and per-variable candidates are ordered with the query/
/// constraint constants and the fresh values first — witnesses from
/// the constructive proofs are built from exactly those values, so
/// truncation discards the least interesting tuples.
Result<bool> BuildPool(const std::vector<TableauQuery>& query_tableaux,
                       const std::vector<TableauQuery>& cc_tableaux,
                       const ActiveDomain& adom, size_t max_pool_size,
                       std::vector<std::pair<std::string, Tuple>>* pool) {
  std::set<Value> interesting;
  size_t total_rows = 0;
  for (const auto* group : {&query_tableaux, &cc_tableaux}) {
    for (const TableauQuery& tableau : *group) {
      std::set<Value> cs = tableau.Constants();
      interesting.insert(cs.begin(), cs.end());
      total_rows += tableau.rows().size();
    }
  }
  for (const Value& v : adom.fresh()) interesting.insert(v);
  const size_t per_row_budget =
      std::max<size_t>(16, max_pool_size / std::max<size_t>(1, total_rows));

  std::set<std::pair<std::string, Tuple>> seen;
  bool truncated = false;
  auto add_row = [&](const TableauQuery& tableau, const TableauRow& row) {
    // Distinct variables of this row.
    std::vector<std::string> vars;
    std::set<std::string> var_set;
    for (const Term& t : row.terms) {
      if (t.is_variable() && var_set.insert(t.var()).second) {
        vars.push_back(t.var());
      }
    }
    std::vector<std::vector<Value>> candidates;
    for (const std::string& v : vars) {
      std::vector<Value> all =
          adom.CandidatesFor(*tableau.VariableDomain(v));
      std::stable_partition(all.begin(), all.end(), [&](const Value& val) {
        return interesting.count(val) > 0;
      });
      candidates.push_back(std::move(all));
    }
    size_t row_added = 0;
    bool row_full = false;
    Bindings bindings;
    std::function<void(size_t)> recurse = [&](size_t i) {
      if (row_full) return;
      if (i == vars.size()) {
        std::optional<Tuple> t = bindings.Ground(row.terms);
        if (t.has_value()) {
          if (seen.size() >= max_pool_size) {
            truncated = true;
            row_full = true;
            return;
          }
          if (seen.emplace(row.relation, std::move(*t)).second) {
            if (++row_added >= per_row_budget) {
              truncated = true;
              row_full = true;
            }
          }
        }
        return;
      }
      for (const Value& v : candidates[i]) {
        bindings.Set(vars[i], v);
        recurse(i + 1);
        if (row_full) return;
      }
      bindings.Unset(vars[i]);
    };
    recurse(0);
  };
  for (const TableauQuery& tableau : query_tableaux) {
    for (const TableauRow& row : tableau.rows()) add_row(tableau, row);
  }
  for (const TableauQuery& tableau : cc_tableaux) {
    for (const TableauRow& row : tableau.rows()) add_row(tableau, row);
  }
  pool->assign(seen.begin(), seen.end());
  return truncated;
}

}  // namespace

std::string RcqpResult::ToString() const {
  std::string out;
  if (exists) {
    out = "RELATIVELY COMPLETE QUERY (witness exists)";
  } else if (exhaustive) {
    out = "NO RELATIVELY COMPLETE DATABASE";
  } else if (exhaustion.exhausted()) {
    out = StrCat("UNKNOWN (", exhaustion.ToString(), ")");
  } else {
    out = "NO WITNESS FOUND WITHIN BUDGET (inconclusive)";
  }
  out += StrCat(" [method: ", method, exhaustive ? "" : ", non-exhaustive",
                "]");
  if (checkpoint.has_value()) {
    out += StrCat("\ncheckpoint: ", checkpoint->Serialize());
  }
  if (!unbounded_variables.empty()) {
    out += "\nunbounded head variables: ";
    for (size_t i = 0; i < unbounded_variables.size(); ++i) {
      if (i > 0) out += ", ";
      out += unbounded_variables[i].variable;
    }
  }
  if (witness.has_value()) {
    out += StrCat("\nwitness D =\n", witness->ToString());
  }
  return out;
}

Result<std::vector<std::vector<VariableBoundedness>>> AnalyzeIndBoundedness(
    const AnyQuery& query, const ConstraintSet& constraints,
    const Schema& db_schema) {
  RELCOMP_ASSIGN_OR_RETURN(std::vector<TableauQuery> tableaux,
                           QueryTableaux(query, db_schema, 4096));
  std::map<std::string, std::set<size_t>> projected =
      IndProjectedColumns(constraints);
  std::vector<std::vector<VariableBoundedness>> out;
  out.reserve(tableaux.size());
  for (const TableauQuery& tableau : tableaux) {
    out.push_back(AnalyzeTableau(tableau, projected));
  }
  return out;
}

Result<RcqpResult> DecideRcqp(const AnyQuery& query,
                              std::shared_ptr<const Schema> db_schema,
                              const Database& master,
                              const ConstraintSet& constraints,
                              const RcqpOptions& options) {
  RELCOMP_RETURN_NOT_OK(GateLanguages(query, constraints));
  RELCOMP_RETURN_NOT_OK(query.Validate(*db_schema));
  RELCOMP_RETURN_NOT_OK(constraints.Validate(*db_schema, master.schema()));

  RcqpResult result;

  ExecutionBudget* budget = options.rcdp.budget;
  // Rolling checkpoints: rcdp.progress receives this call's phase
  // checkpoints ("rcqp-ind", "rcqp-empty", "rcqp-pool").
  const ProgressSink& sink = options.rcdp.progress;
  // Inner RCDP options: the caller's rcdp.resume (if any) is an RCDP
  // checkpoint, not an RCQP one — never forward it; RCQP resume state
  // travels in options.resume and its payload. Nor is the sink
  // forwarded: an inner "rcdp" checkpoint does not resume RCQP.
  RcdpOptions inner_rcdp = options.rcdp;
  inner_rcdp.resume = nullptr;
  inner_rcdp.progress = nullptr;
  const uint64_t fingerprint = CheckpointFingerprint(
      {FingerprintString("rcqp"), FingerprintString(query.ToString()),
       constraints.constraints().size(), master.TotalTuples()});
  const SearchCheckpoint* resume = options.resume;
  std::string_view resume_phase;
  if (resume != nullptr) {
    if (resume->decider != "rcqp-ind" && resume->decider != "rcqp-empty" &&
        resume->decider != "rcqp-chase" && resume->decider != "rcqp-pool") {
      return Status::InvalidArgument(
          StrCat("checkpoint decider \"", resume->decider,
                 "\" is not an RCQP phase (expected rcqp-ind, rcqp-empty, "
                 "rcqp-chase, or rcqp-pool)"));
    }
    if (resume->fingerprint != fingerprint) {
      return Status::InvalidArgument(
          "checkpoint fingerprint mismatch: resume requires the identical "
          "query, constraints, and master database instances");
    }
    resume_phase = resume->decider;
  }
  auto make_checkpoint = [&](std::string decider, size_t disjunct, size_t rank,
                             std::string payload) {
    SearchCheckpoint ckpt;
    ckpt.decider = std::move(decider);
    ckpt.disjunct = disjunct;
    ckpt.rank = rank;
    ckpt.fingerprint = fingerprint;
    ckpt.payload = std::move(payload);
    return ckpt;
  };

  RELCOMP_ASSIGN_OR_RETURN(
      std::vector<TableauQuery> tableaux,
      QueryTableaux(query, *db_schema, options.rcdp.max_union_disjuncts));

  // If the empty database is not partially closed, no database is: the
  // decidable constraint languages are monotone, so a violation of V by
  // ∅ persists in every extension. In particular RCQ is empty.
  Database empty_db(db_schema);
  RELCOMP_ASSIGN_OR_RETURN(bool empty_closed,
                           Satisfies(constraints, empty_db, master));
  if (!empty_closed) {
    result.verdict = Verdict::kIncomplete;
    result.exists = false;
    result.exhaustive = true;
    result.method = "no-partially-closed-database";
    return result;
  }

  // Unsatisfiable query: every partially closed database is complete.
  if (tableaux.empty()) {
    result.verdict = Verdict::kComplete;
    result.exists = true;
    result.witness = empty_db;
    result.method = "unsatisfiable-query";
    return result;
  }

  // Constraint tableaux (used for fresh-value counting and the witness
  // pool). Non-CQ-convertible constraints cannot occur: the language
  // gate admits only CQ/UCQ/∃FO+.
  std::vector<TableauQuery> cc_tableaux;
  for (const ContainmentConstraint& cc : constraints.constraints()) {
    RELCOMP_ASSIGN_OR_RETURN(
        std::vector<TableauQuery> ts,
        QueryTableaux(cc.query(), *db_schema,
                      options.rcdp.max_union_disjuncts));
    for (TableauQuery& t : ts) cc_tableaux.push_back(std::move(t));
  }

  // Active domain: constants of Dm, Q, V plus one fresh value per
  // variable of the query and constraint tableaux (Section 4.2's New).
  size_t num_vars = 0;
  for (const TableauQuery& t : tableaux) num_vars += t.variables().size();
  for (const TableauQuery& t : cc_tableaux) num_vars += t.variables().size();
  ActiveDomain adom =
      ActiveDomain::Build(empty_db, master, query.Constants(), constraints,
                          std::max<size_t>(1, num_vars));

  // ---- Exact IND path (Prop 4.3 / Theorem 4.5(1)). -------------------
  if (constraints.IsIndsOnly()) {
    // The probes and the witness stage valuations of the query tableaux
    // as id rows, so every candidate must have a family id.
    for (const TableauQuery& t : tableaux) {
      InternFiniteDomainValues(t, empty_db.interner().get());
    }
    // Built once (targets projected from Dm here) and shared by every
    // valuation probe and the witness below; their sessions stage over
    // ∅, which is partially closed (checked above).
    RELCOMP_ASSIGN_OR_RETURN(
        const DeltaConstraintChecker checker,
        DeltaConstraintChecker::Make(constraints, db_schema, master,
                                     options.rcdp.max_union_disjuncts));
    std::map<std::string, std::set<size_t>> projected =
        IndProjectedColumns(constraints);
    // Resume state: tableaux below start_tableau were already probed by
    // the interrupted run; the payload lists (comma-separated) the
    // indexes whose probe found a realizable valuation.
    size_t start_tableau = 0;
    size_t start_rank = 0;
    std::set<size_t> realized;
    if (resume != nullptr) {
      if (resume->decider != "rcqp-ind") {
        return Status::InvalidArgument(
            StrCat("checkpoint phase \"", resume->decider,
                   "\" does not apply: this instance takes the IND path"));
      }
      start_tableau = resume->disjunct;
      start_rank = resume->rank;
      if (start_tableau > tableaux.size()) {
        return Status::InvalidArgument(
            "rcqp-ind checkpoint tableau index out of range");
      }
      CodecReader payload("rcqp-ind checkpoint payload", resume->payload);
      while (!payload.at_end()) {
        RELCOMP_ASSIGN_OR_RETURN(const uint64_t idx, payload.U64());
        realized.insert(idx);
        if (!payload.at_end()) RELCOMP_RETURN_NOT_OK(payload.Expect(","));
      }
    }
    bool all_ok = true;
    bool probed_any = false;
    for (size_t ti = 0; ti < tableaux.size(); ++ti) {
      const TableauQuery& tableau = tableaux[ti];
      std::vector<VariableBoundedness> analysis =
          AnalyzeTableau(tableau, projected);
      bool bounded = std::all_of(
          analysis.begin(), analysis.end(),
          [](const VariableBoundedness& vb) { return vb.bounded(); });
      if (bounded) continue;
      bool realizable_found;
      if (ti < start_tableau) {
        realizable_found = realized.count(ti) > 0;
      } else {
        const size_t probe_start = ti == start_tableau ? start_rank : 0;
        std::function<void(size_t)> on_rank;
        if (sink != nullptr) {
          std::string payload = RealizedPayload(realized);
          // Every tableau before this one is probed: progress too.
          if (probed_any) {
            sink(make_checkpoint("rcqp-ind", ti, probe_start, payload));
          }
          on_rank = [&sink, &make_checkpoint, ti,
                     payload = std::move(payload)](size_t rank) {
            sink(make_checkpoint("rcqp-ind", ti, rank, payload));
          };
        }
        probed_any = true;
        RELCOMP_ASSIGN_OR_RETURN(
            ProbeOutcome probe,
            FindRealizableValuation(tableau, master, checker, empty_db, adom,
                                    EffectiveThreads(options.rcdp),
                                    options.rcdp.use_arena, budget,
                                    probe_start, std::move(on_rank)));
        if (probe.exhausted) {
          result.verdict = Verdict::kUnknown;
          result.exists = false;
          result.exhaustive = false;
          result.unbounded_variables.clear();
          result.method = "ind-syntactic";
          result.exhaustion =
              ExhaustionFromStatus(probe.exhaustion_status, budget);
          result.checkpoint = make_checkpoint("rcqp-ind", ti, probe.next_rank,
                                              RealizedPayload(realized));
          return result;
        }
        realizable_found = probe.realizable;
        if (realizable_found) realized.insert(ti);
      }
      if (realizable_found) {
        all_ok = false;
        for (VariableBoundedness& vb : analysis) {
          if (!vb.bounded()) {
            result.unbounded_variables.push_back(std::move(vb));
          }
        }
      }
    }
    result.verdict = all_ok ? Verdict::kComplete : Verdict::kIncomplete;
    result.exists = all_ok;
    result.exhaustive = true;
    result.method = "ind-syntactic";
    if (all_ok) {
      // Witness per the Prop 4.3 proof: for every achievable summary
      // tuple of every disjunct, one instantiated tableau. A budget
      // that trips while it is built leaves the answer kUnknown, never
      // kComplete without its evidence: the checkpoint past the last
      // tableau skips every probe on resume and rebuilds the witness.
      Database witness(db_schema);
      bool witness_complete = true;
      for (const TableauQuery& tableau : tableaux) {
        RELCOMP_RETURN_NOT_OK(AccumulateIndWitness(
            tableau, checker, adom, empty_db, options.rcdp.use_arena, budget,
            &witness, &witness_complete));
        if (!witness_complete) break;
      }
      if (!witness_complete) {
        result.verdict = Verdict::kUnknown;
        result.exists = false;
        result.exhaustive = false;
        result.exhaustion =
            ExhaustionFromStatus(budget->exhaustion_status(), budget);
        result.checkpoint = make_checkpoint("rcqp-ind", tableaux.size(), 0,
                                            RealizedPayload(realized));
        return result;
      }
      result.witness = std::move(witness);
    }
    return result;
  }

  // ---- General path (Prop 4.2 / Cor 4.4; NEXPTIME). ------------------

  if (resume_phase == "rcqp-ind") {
    return Status::InvalidArgument(
        "checkpoint phase \"rcqp-ind\" does not apply: this instance takes "
        "the general path");
  }

  // E1/E5 shortcut: every head variable of every satisfiable disjunct
  // ranges over a finite domain.
  bool all_finite = true;
  for (const TableauQuery& tableau : tableaux) {
    for (const std::string& var : SummaryVariables(tableau)) {
      if (tableau.VariableDomain(var)->is_infinite()) {
        all_finite = false;
        break;
      }
    }
    if (!all_finite) break;
  }
  if (all_finite) {
    result.verdict = Verdict::kComplete;
    result.exists = true;
    result.method = "all-finite-domains";
    // Witness: chase the empty database to completeness. A chase that
    // does not converge within its rounds leaves the decision without
    // a witness; a budget that trips mid-chase leaves it kUnknown, and
    // the resumed call (any general-path phase lands here first)
    // re-runs the deterministic chase.
    Result<ChaseResult> chased = ChaseToCompleteness(
        query, empty_db, master, constraints, /*max_rounds=*/256, inner_rcdp);
    if (chased.ok()) {
      if (chased->verdict == Verdict::kComplete) {
        result.witness = std::move(chased->db);
      } else if (chased->exhaustion.exhausted() &&
                 chased->exhaustion.kind != BudgetKind::kRounds) {
        result.verdict = Verdict::kUnknown;
        result.exists = false;
        result.exhaustive = false;
        result.exhaustion = chased->exhaustion;
        result.checkpoint =
            make_checkpoint("rcqp-chase", chased->rounds, 0, std::string());
      }
    }
    return result;
  }

  // Empty-database witness: D = ∅ complete? Skipped on a resume that
  // checkpointed in a later phase (the interrupted run already decided
  // it incomplete; both phases are deterministic).
  if (resume_phase != "rcqp-chase" && resume_phase != "rcqp-pool") {
    RcdpOptions empty_options = inner_rcdp;
    std::optional<SearchCheckpoint> empty_inner;
    if (resume_phase == "rcqp-empty" && !resume->payload.empty()) {
      RELCOMP_ASSIGN_OR_RETURN(SearchCheckpoint inner,
                               SearchCheckpoint::Deserialize(resume->payload));
      empty_inner = std::move(inner);
      empty_options.resume = &*empty_inner;
    }
    if (sink != nullptr) {
      empty_options.progress = [&sink,
                                &make_checkpoint](const SearchCheckpoint& in) {
        sink(make_checkpoint("rcqp-empty", 0, 0, in.Serialize()));
      };
    }
    RELCOMP_ASSIGN_OR_RETURN(
        RcdpResult empty_rcdp,
        DecideRcdp(query, empty_db, master, constraints, empty_options));
    if (empty_rcdp.verdict == Verdict::kUnknown) {
      result.verdict = Verdict::kUnknown;
      result.exists = false;
      result.exhaustive = false;
      result.method = "empty-witness";
      result.exhaustion = empty_rcdp.exhaustion;
      result.checkpoint = make_checkpoint(
          "rcqp-empty", 0, 0,
          empty_rcdp.checkpoint.has_value() ? empty_rcdp.checkpoint->Serialize()
                                            : std::string());
      return result;
    }
    if (empty_rcdp.complete) {
      result.verdict = Verdict::kComplete;
      result.exists = true;
      result.witness = empty_db;
      result.method = "empty-witness";
      return result;
    }
  }

  // Chase witness: grow the empty database by counterexamples; if the
  // chase converges, the result is a verified complete database. A
  // "rcqp-chase" resume re-runs the chase from scratch — the partially
  // chased database is not serializable into the checkpoint, and the
  // chase is deterministic, so the re-run reaches the identical state.
  if (options.max_chase_rounds > 0 && resume_phase != "rcqp-pool") {
    RELCOMP_ASSIGN_OR_RETURN(
        ChaseResult chased,
        ChaseToCompleteness(query, empty_db, master, constraints,
                            options.max_chase_rounds, inner_rcdp));
    if (chased.verdict == Verdict::kComplete) {
      result.verdict = Verdict::kComplete;
      result.exists = true;
      result.witness = std::move(chased.db);
      result.method = "chase-witness";
      return result;
    }
    if (chased.exhaustion.kind != BudgetKind::kRounds) {
      // A genuine budget/cancel exhaustion (not the rounds cap).
      result.verdict = Verdict::kUnknown;
      result.exists = false;
      result.exhaustive = false;
      result.method = "chase-witness";
      result.exhaustion = chased.exhaustion;
      result.checkpoint = make_checkpoint(
          "rcqp-chase", chased.rounds, 0,
          chased.checkpoint.has_value() ? chased.checkpoint->Serialize()
                                        : std::string());
      return result;
    }
    // kRounds: the chase did not converge within its cap; fall through
    // to the small-model pool search (the legacy behavior).
  }

  // Small-model witness search over the tableau-row instantiation pool.
  std::vector<std::pair<std::string, Tuple>> pool;
  RELCOMP_ASSIGN_OR_RETURN(bool truncated,
                           BuildPool(tableaux, cc_tableaux, adom,
                                     options.max_pool_size, &pool));
  bool budget_exhausted = false;  // ExecutionBudget (deadline/steps/memory/
                                  // cancel) tripped
  Status exhausted_status;
  // Candidate leaves are enumerated in a deterministic order (size-
  // iterative, lexicographic over pool indexes); a "rcqp-pool"
  // checkpoint's rank counts the leaves the interrupted run fully
  // judged, and a resumed call skips exactly those.
  size_t leaf_index = 0;
  size_t exhausted_rank = 0;
  const size_t resume_skip =
      resume_phase == "rcqp-pool" ? resume->rank : 0;
  std::optional<Database> found;

  std::vector<size_t> chosen;
  std::function<Result<bool>(size_t, size_t)> search =
      [&](size_t start, size_t remaining) -> Result<bool> {
    if (found.has_value() || budget_exhausted) return true;
    if (remaining == 0) {
      const size_t my_leaf = leaf_index++;
      if (my_leaf < resume_skip) return true;
      if (budget != nullptr) {
        // One counted decision point per candidate witness judged —
        // the pool-search analogue of the valuation binding step.
        Status st = budget->OnDecisionPoint();
        if (!st.ok()) {
          budget_exhausted = true;
          exhausted_status = std::move(st);
          exhausted_rank = my_leaf;
          return true;
        }
      }
      Database candidate(db_schema);
      for (size_t idx : chosen) {
        candidate.InsertUnchecked(pool[idx].first, pool[idx].second);
      }
      RELCOMP_ASSIGN_OR_RETURN(bool closed,
                               Satisfies(constraints, candidate, master));
      if (closed) {
        Result<RcdpResult> rcdp =
            DecideRcdp(query, candidate, master, constraints, inner_rcdp);
        RELCOMP_RETURN_NOT_OK(rcdp.status());
        if (rcdp->verdict == Verdict::kUnknown) {
          // Only the shared budget leaves an inner RCDP undecided. This
          // leaf was not fully judged; a resumed call re-judges it from
          // scratch (the inner RCDP is deterministic).
          budget_exhausted = true;
          exhausted_status = budget->exhaustion_status();
          exhausted_rank = my_leaf;
          return true;
        }
        if (rcdp->complete) {
          found = std::move(candidate);
          return true;
        }
      }
      // Judged and not a witness: a resumed call may skip it.
      if (sink != nullptr) {
        sink(make_checkpoint("rcqp-pool", 0, my_leaf + 1, std::string()));
      }
      return true;
    }
    for (size_t i = start; i + remaining <= pool.size() + 1 && i < pool.size();
         ++i) {
      chosen.push_back(i);
      RELCOMP_ASSIGN_OR_RETURN(bool ignored, search(i + 1, remaining - 1));
      (void)ignored;
      chosen.pop_back();
      if (found.has_value() || budget_exhausted) break;
    }
    return true;
  };
  size_t max_size = std::min(options.max_witness_tuples, pool.size());
  for (size_t size = 1; size <= max_size; ++size) {
    RELCOMP_ASSIGN_OR_RETURN(bool ignored, search(0, size));
    (void)ignored;
    if (found.has_value() || budget_exhausted) break;
  }

  result.method = "witness-search";
  if (found.has_value()) {
    result.verdict = Verdict::kComplete;
    result.exists = true;
    result.witness = std::move(found);
    return result;
  }
  result.exists = false;
  if (budget_exhausted) {
    result.verdict = Verdict::kUnknown;
    result.exhaustive = false;
    result.exhaustion = ExhaustionFromStatus(exhausted_status, budget);
    result.checkpoint =
        make_checkpoint("rcqp-pool", 0, exhausted_rank, std::string());
    return result;
  }
  result.exhaustive =
      !truncated && options.max_witness_tuples >= pool.size();
  result.verdict =
      result.exhaustive ? Verdict::kIncomplete : Verdict::kUnknown;
  return result;
}

}  // namespace relcomp
