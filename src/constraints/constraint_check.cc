#include "constraints/constraint_check.h"

#include "util/str.h"

namespace relcomp {

std::string ConstraintCheckResult::ToString() const {
  if (satisfied) return "satisfied";
  std::string out = StrCat("violated CC #", violated_index);
  if (witness.has_value()) {
    out += StrCat(" by tuple ", witness->ToString());
  }
  return out;
}

namespace {

/// Materializes π_{projection}(master_relation) over the master data.
Relation ProjectMaster(const Database& master,
                       const std::string& master_relation,
                       const std::vector<size_t>& projection) {
  const Relation& source = master.Get(master_relation);
  Relation out(projection.size());
  for (const Tuple& t : source) {
    std::vector<Value> values;
    values.reserve(projection.size());
    for (size_t col : projection) values.push_back(t[col]);
    out.Insert(Tuple(std::move(values)));
  }
  return out;
}

}  // namespace

Relation EvalProjection(const ContainmentConstraint& cc,
                        const Database& master) {
  return ProjectMaster(master, cc.master_relation(), cc.projection());
}

Result<bool> CheckConstraint(const ContainmentConstraint& cc,
                             const Database& db, const Database& master,
                             const EvalOptions& options) {
  EvalOptions local = options;
  // FO constraint queries may compare against master-data constants;
  // fold them into the active domain.
  if (cc.language() == QueryLanguage::kFo) {
    master.CollectConstants(&local.fo_extra_constants);
  }
  RELCOMP_ASSIGN_OR_RETURN(Relation answers, Evaluate(cc.query(), db, local));
  if (cc.has_empty_target()) return answers.empty();
  Relation target = EvalProjection(cc, master);
  return answers.IsSubsetOf(target);
}

Result<ConstraintCheckResult> CheckConstraints(const ConstraintSet& set,
                                               const Database& db,
                                               const Database& master,
                                               const EvalOptions& options) {
  ConstraintCheckResult result;
  for (size_t i = 0; i < set.constraints().size(); ++i) {
    const ContainmentConstraint& cc = set.constraints()[i];
    EvalOptions local = options;
    if (cc.language() == QueryLanguage::kFo) {
      master.CollectConstants(&local.fo_extra_constants);
    }
    RELCOMP_ASSIGN_OR_RETURN(Relation answers,
                             Evaluate(cc.query(), db, local));
    if (cc.has_empty_target()) {
      if (!answers.empty()) {
        result.satisfied = false;
        result.violated_index = static_cast<int>(i);
        result.witness = *answers.begin();
        return result;
      }
      continue;
    }
    Relation target = EvalProjection(cc, master);
    for (const Tuple& t : answers) {
      if (!target.Contains(t)) {
        result.satisfied = false;
        result.violated_index = static_cast<int>(i);
        result.witness = t;
        return result;
      }
    }
  }
  return result;
}

Result<bool> Satisfies(const ConstraintSet& set, const Database& db,
                       const Database& master, const EvalOptions& options) {
  RELCOMP_ASSIGN_OR_RETURN(ConstraintCheckResult result,
                           CheckConstraints(set, db, master, options));
  return result.satisfied;
}

Result<bool> Satisfies(const ConstraintSet& set, const DatabaseOverlay& db,
                       const Database& master, const EvalOptions& options) {
  for (const ContainmentConstraint& cc : set.constraints()) {
    EvalOptions local = options;
    if (cc.language() == QueryLanguage::kFo) {
      master.CollectConstants(&local.fo_extra_constants);
    }
    // Evaluate(…, DatabaseOverlay, …) runs CQ-convertible queries on
    // the view and materializes only for FO/Datalog.
    RELCOMP_ASSIGN_OR_RETURN(Relation answers,
                             Evaluate(cc.query(), db, local));
    if (cc.has_empty_target()) {
      if (!answers.empty()) return false;
      continue;
    }
    Relation target = EvalProjection(cc, master);
    if (!answers.IsSubsetOf(target)) return false;
  }
  return true;
}

ConstraintSession::ConstraintSession(const Database& base,
                                     const ConjunctiveEvalOptions& eval_options)
    : view_(&base), eval_options_(eval_options) {
  if (eval_options_.budget != nullptr) {
    view_.set_memory_tracker(eval_options_.budget);
  }
}

Result<bool> ConstraintSession::Check() {
  // One counted decision point per check, in lockstep with the
  // valuation search's per-binding points.
  if (eval_options_.budget != nullptr) {
    RELCOMP_RETURN_NOT_OK(eval_options_.budget->OnDecisionPoint());
  }
  for (const Probe& probe : probes_) {
    if (probe.delta_slot != DatabaseOverlay::kNoSlot &&
        view_.Staged(probe.delta_slot).empty()) {
      continue;
    }
    const Relation* target =
        probe.target == kNoTarget ? nullptr : &targets_[probe.target];
    // True iff some match's head falls outside the target (or, with no
    // target, iff any match exists — the q ⊆ ∅ form). Heads stay ids:
    // the target shares the view's interner.
    bool violated = false;
    RELCOMP_RETURN_NOT_OK(probe.cq->ForEachHeadMatch(
        view_, &probe.binding, eval_options_,
        [&](const ValueId* head_ids, const Value* const*) {
          violated = target == nullptr || !target->ContainsIds(head_ids);
          return !violated;
        }));
    if (violated) return false;
  }
  return true;
}

Result<bool> ConstraintSession::Check(
    const std::vector<std::pair<std::string, Tuple>>& delta) {
  view_.Clear();
  for (const auto& [relation, tuple] : delta) view_.Add(relation, tuple);
  return Check();
}

namespace {
constexpr char kCcDeltaSuffix[] = "$ccdelta";
}  // namespace

Result<DeltaConstraintChecker> DeltaConstraintChecker::Make(
    const ConstraintSet& set, std::shared_ptr<const Schema> db_schema,
    const Database& master, size_t max_union_disjuncts) {
  DeltaConstraintChecker checker;
  for (const std::string& name : db_schema->relation_names()) {
    std::string delta_name = StrCat(name, kCcDeltaSuffix);
    // The alias names R's Δ tuples; a real relation of that name would
    // be shadowed by it, so such a schema is refused.
    if (db_schema->HasRelation(delta_name)) {
      return Status::InvalidArgument(
          StrCat("duplicate relation schema: ", delta_name));
    }
    checker.delta_of_.emplace(std::move(delta_name), name);
  }
  for (const ContainmentConstraint& cc : set.constraints()) {
    RELCOMP_ASSIGN_OR_RETURN(UnionQuery ucq,
                             cc.query().ToUnion(max_union_disjuncts));
    CcVariants entry;
    entry.empty_target = cc.has_empty_target();
    if (!entry.empty_target) entry.target = EvalProjection(cc, master);
    for (const ConjunctiveQuery& disjunct : ucq.disjuncts()) {
      for (size_t i = 0; i < disjunct.body().size(); ++i) {
        const Atom& atom = disjunct.body()[i];
        if (!atom.is_relation()) continue;
        ConjunctiveQuery variant = disjunct;
        variant.mutable_body()[i] =
            Atom::Relation(StrCat(atom.relation(), kCcDeltaSuffix),
                           atom.args());
        entry.variants.push_back(std::move(variant));
        entry.variant_delta_relations.push_back(atom.relation());
      }
      // A disjunct with no relation atoms matches independently of Δ;
      // since (D, Dm) |= V it cannot newly violate — safe to drop.
    }
    // Compile only after the variants vector is complete: CompiledCq
    // borrows the query object, and push_back reallocation would
    // relocate it.
    entry.compiled.reserve(entry.variants.size());
    for (const ConjunctiveQuery& variant : entry.variants) {
      entry.compiled.emplace_back(variant);
    }
    checker.constraints_.push_back(std::move(entry));
  }
  return checker;
}

ConstraintSession DeltaConstraintChecker::NewSession(
    const Database& base, const ConjunctiveEvalOptions& eval_options) const {
  ConstraintSession session(base, eval_options);
  DatabaseOverlay& view = session.view_;
  // An R$ccdelta atom reads R's staged rows and no base rows: the
  // overlay filters tuples already in the base (and duplicates within
  // the delta), so R's staged rows are exactly the genuinely new ones.
  auto delta_atom = [&](const std::string& relation)
      -> std::optional<CqBinding::Atom> {
    auto it = delta_of_.find(relation);
    if (it == delta_of_.end()) return std::nullopt;
    const RelationSchema* rs = base.schema().FindRelation(it->second);
    return CqBinding::Atom{nullptr, view.Slot(it->second, rs->arity())};
  };
  for (const CcVariants& cc : constraints_) {
    size_t target = ConstraintSession::kNoTarget;
    if (!cc.empty_target) {
      // p(Dm) onto the base's interner, so a head probes it by id.
      Relation copy(cc.target.arity(), base.interner());
      copy.UnionWith(cc.target);
      session.targets_.push_back(std::move(copy));
      target = session.targets_.size() - 1;
    }
    for (size_t v = 0; v < cc.variants.size(); ++v) {
      ConstraintSession::Probe probe;
      probe.cq = &cc.compiled[v];
      probe.binding = cc.compiled[v].Bind(&view, delta_atom);
      probe.target = target;
      probe.delta_slot = view.FindSlot(cc.variant_delta_relations[v]);
      session.probes_.push_back(std::move(probe));
    }
  }
  return session;
}

}  // namespace relcomp
