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

Relation EvalProjection(const ContainmentConstraint& cc,
                        const Database& master) {
  const Relation& source = master.Get(cc.master_relation());
  Relation out(cc.projection().size());
  for (const Tuple& t : source) {
    std::vector<Value> values;
    values.reserve(cc.projection().size());
    for (size_t col : cc.projection()) values.push_back(t[col]);
    out.Insert(Tuple(std::move(values)));
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

/// Checks one compiled disjunct of a constraint query against a target:
/// true iff some match's head tuple falls outside the target (or, with
/// a null target, iff any match exists — the q ⊆ ∅ form). Early-exits
/// on the first violation. Heads stay on the id/value-pointer plane —
/// no Bindings map or Tuple is materialized per match; the target
/// membership test resolves the head values through the target's own
/// interner (ContainsValues).
Result<bool> DisjunctViolates(const CompiledCq& cq,
                              const DatabaseOverlay& view,
                              const Relation* target,
                              const ConjunctiveEvalOptions& options) {
  bool violated = false;
  Status st = cq.ForEachHeadMatch(
      view, options,
      [&](const ValueId* /*head_ids*/, const Value* const* head_vals) {
        if (target == nullptr || !target->ContainsValues(head_vals)) {
          violated = true;
          return false;  // stop
        }
        return true;
      });
  RELCOMP_RETURN_NOT_OK(st);
  return violated;
}

}  // namespace

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

Result<CompiledConstraintCheck> CompiledConstraintCheck::Make(
    const ConstraintSet& set, const Database& master,
    size_t max_union_disjuncts) {
  CompiledConstraintCheck compiled;
  compiled.entries_.reserve(set.constraints().size());
  for (const ContainmentConstraint& cc : set.constraints()) {
    RELCOMP_ASSIGN_OR_RETURN(UnionQuery ucq,
                             cc.query().ToUnion(max_union_disjuncts));
    Entry entry;
    entry.ucq = std::move(ucq);
    entry.compiled.reserve(entry.ucq.disjuncts().size());
    for (const ConjunctiveQuery& cq : entry.ucq.disjuncts()) {
      entry.compiled.emplace_back(cq);
    }
    entry.empty_target = cc.has_empty_target();
    if (!entry.empty_target) {
      entry.target = EvalProjection(cc, master);
    }
    compiled.entries_.push_back(std::move(entry));
  }
  return compiled;
}

Result<bool> CompiledConstraintCheck::Satisfied(
    const DatabaseOverlay& view,
    const ConjunctiveEvalOptions& options) const {
  // One counted decision point per constraint check, in lockstep with
  // the valuation search's per-binding points.
  if (options.budget != nullptr) {
    RELCOMP_RETURN_NOT_OK(options.budget->OnDecisionPoint());
  }
  for (const Entry& entry : entries_) {
    const Relation* target = entry.empty_target ? nullptr : &entry.target;
    for (const CompiledCq& cq : entry.compiled) {
      RELCOMP_ASSIGN_OR_RETURN(bool violated,
                               DisjunctViolates(cq, view, target, options));
      if (violated) return false;
    }
  }
  return true;
}

namespace {
constexpr char kCcDeltaSuffix[] = "$ccdelta";
}  // namespace

Result<DeltaConstraintChecker> DeltaConstraintChecker::Make(
    const ConstraintSet& set, std::shared_ptr<const Schema> db_schema,
    size_t max_union_disjuncts) {
  DeltaConstraintChecker checker;
  checker.base_schema_ = db_schema;
  for (const std::string& name : db_schema->relation_names()) {
    std::string delta_name = StrCat(name, kCcDeltaSuffix);
    // The alias is virtual on the overlay; a real relation of that name
    // would be shadowed by it, so such a schema is refused.
    if (db_schema->HasRelation(delta_name)) {
      return Status::InvalidArgument(
          StrCat("duplicate relation schema: ", delta_name));
    }
    checker.delta_names_[name] = std::move(delta_name);
  }
  for (const ContainmentConstraint& cc : set.constraints()) {
    RELCOMP_ASSIGN_OR_RETURN(UnionQuery ucq,
                             cc.query().ToUnion(max_union_disjuncts));
    CcVariants entry;
    entry.empty_target = cc.has_empty_target();
    entry.master_relation = cc.master_relation();
    entry.projection = cc.projection();
    for (const ConjunctiveQuery& disjunct : ucq.disjuncts()) {
      for (size_t i = 0; i < disjunct.body().size(); ++i) {
        const Atom& atom = disjunct.body()[i];
        if (!atom.is_relation()) continue;
        ConjunctiveQuery variant = disjunct;
        std::string delta_name = StrCat(atom.relation(), kCcDeltaSuffix);
        variant.mutable_body()[i] = Atom::Relation(delta_name, atom.args());
        entry.variants.push_back(std::move(variant));
        entry.variant_delta_relations.push_back(std::move(delta_name));
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

DeltaConstraintChecker::Session::Session(
    const DeltaConstraintChecker* checker, const Database& base,
    const Database& master, const ConjunctiveEvalOptions& eval_options)
    : checker_(checker), master_(&master), eval_options_(eval_options),
      view_(&base), targets_(checker->constraints_.size()) {
  // The view stages candidate rows under both the real relation name
  // and its $ccdelta alias; the base — with its column indexes — is
  // never copied.
  if (eval_options_.budget != nullptr) {
    view_.set_memory_tracker(eval_options_.budget);
  }
}

const Relation& DeltaConstraintChecker::Session::TargetFor(size_t cc_index) {
  std::optional<Relation>& slot = targets_[cc_index];
  if (!slot.has_value()) {
    const CcVariants& cc = checker_->constraints_[cc_index];
    slot = ProjectMaster(*master_, cc.master_relation, cc.projection);
  }
  return *slot;
}

Result<bool> DeltaConstraintChecker::Session::Check(
    const std::vector<std::pair<std::string, Tuple>>& delta) {
  // One counted decision point per delta check (see
  // CompiledConstraintCheck::Satisfied).
  if (eval_options_.budget != nullptr) {
    RELCOMP_RETURN_NOT_OK(eval_options_.budget->OnDecisionPoint());
  }
  view_.Clear();
  for (const auto& [relation, tuple] : delta) {
    // Add() filters tuples already in the base (and duplicates within
    // the delta); only genuinely new tuples reach the $ccdelta alias,
    // which is virtual — absent from the base schema — so it is served
    // purely from the staged rows.
    if (view_.Add(relation, tuple)) {
      view_.Add(checker_->delta_names_.at(relation), tuple);
    }
  }
  if (!view_.HasPending()) return true;  // base already satisfies V
  for (size_t c = 0; c < checker_->constraints_.size(); ++c) {
    const CcVariants& cc = checker_->constraints_[c];
    for (size_t v = 0; v < cc.variants.size(); ++v) {
      if (view_.Pending(cc.variant_delta_relations[v]).empty()) continue;
      const Relation* target = cc.empty_target ? nullptr : &TargetFor(c);
      Result<bool> violated =
          DisjunctViolates(cc.compiled[v], view_, target, eval_options_);
      if (!violated.ok()) {
        view_.Clear();
        return violated.status();
      }
      if (*violated) {
        view_.Clear();
        return false;
      }
    }
  }
  view_.Clear();
  return true;
}

Result<bool> DeltaConstraintChecker::Check(const Database& extended,
                                           const Database& delta,
                                           const Database& master) const {
  // `extended` already holds D ∪ Δ; only the $ccdelta aliases need
  // staging, and they are virtual relations of the overlay.
  DatabaseOverlay view(&extended);
  for (const std::string& name : base_schema_->relation_names()) {
    const std::string& delta_name = delta_names_.at(name);
    for (const Tuple& t : delta.Get(name)) {
      view.Add(delta_name, t);
    }
  }
  for (const CcVariants& cc : constraints_) {
    std::optional<Relation> target;
    for (size_t v = 0; v < cc.variants.size(); ++v) {
      if (view.Pending(cc.variant_delta_relations[v]).empty()) continue;
      if (!cc.empty_target && !target.has_value()) {
        target = ProjectMaster(master, cc.master_relation, cc.projection);
      }
      RELCOMP_ASSIGN_OR_RETURN(
          bool violated,
          DisjunctViolates(cc.compiled[v], view,
                           cc.empty_target ? nullptr : &*target,
                           ConjunctiveEvalOptions()));
      if (violated) return false;
    }
  }
  return true;
}

}  // namespace relcomp
