#include "completeness/characterizations.h"

#include <functional>
#include <set>

#include "completeness/active_domain.h"
#include "completeness/valuation_search.h"
#include "constraints/constraint_check.h"
#include "eval/query_eval.h"
#include "tableau/tableau.h"
#include "util/str.h"

namespace relcomp {
namespace {

bool DecidableLanguage(QueryLanguage lang) {
  return lang == QueryLanguage::kCq || lang == QueryLanguage::kUcq ||
         lang == QueryLanguage::kPositive;
}

Result<std::vector<TableauQuery>> SatisfiableTableaux(const AnyQuery& query,
                                                      const Schema& schema) {
  RELCOMP_ASSIGN_OR_RETURN(UnionQuery ucq, query.ToUnion(4096));
  std::vector<TableauQuery> out;
  for (const ConjunctiveQuery& disjunct : ucq.disjuncts()) {
    RELCOMP_ASSIGN_OR_RETURN(TableauQuery t,
                             TableauQuery::FromConjunctive(disjunct, schema));
    if (t.satisfiable()) out.push_back(std::move(t));
  }
  return out;
}

}  // namespace

std::string BoundedDatabaseReport::ToString() const {
  if (bounded) {
    return StrCat("bounded (condition ", condition, " holds)");
  }
  std::string out = StrCat("NOT bounded: condition ", condition,
                           " fails at disjunct ", disjunct);
  if (violating_valuation.has_value()) {
    out += StrCat(" with valuation ", violating_valuation->ToString());
  }
  return out;
}

Result<BoundedDatabaseReport> CheckBoundedDatabase(
    const AnyQuery& query, const Database& db, const Database& master,
    const ConstraintSet& constraints) {
  if (!DecidableLanguage(query.language()) ||
      !DecidableLanguage(constraints.Language())) {
    return Status::Unsupported(
        "bounded-database characterizations cover CQ/UCQ/EFO+ only");
  }
  RELCOMP_ASSIGN_OR_RETURN(std::vector<TableauQuery> tableaux,
                           SatisfiableTableaux(query, db.schema()));
  RELCOMP_ASSIGN_OR_RETURN(Relation answer, Evaluate(query, db));

  BoundedDatabaseReport report;
  // An empty V is vacuously IND-only; report the C1/C2 form for it.
  const bool inds_only = !constraints.empty() && constraints.IsIndsOnly();
  const bool is_union = tableaux.size() > 1;
  report.condition = inds_only ? "C3"
                     : is_union ? "C4"
                     : answer.empty() ? "C1"
                                      : "C2";

  std::set<Value> query_constants = query.Constants();
  for (size_t i = 0; i < tableaux.size(); ++i) {
    const TableauQuery& tableau = tableaux[i];
    ActiveDomain adom = ActiveDomain::Build(
        db, master, query_constants, constraints,
        std::max<size_t>(1, tableau.variables().size()));
    ValuationEnumerator::Options options;
    options.pruned = false;            // definitional: enumerate everything
    options.symmetry_break_fresh = false;
    options.interner = db.interner().get();
    ValuationEnumerator enumerator(&tableau, &adom, options);
    Status inner;
    RELCOMP_RETURN_NOT_OK(enumerator.EnumerateIds(
        nullptr, [&](const IdValuation& v) {
          const Bindings mu = v.ToBindings();
          Result<Tuple> summary = tableau.SummaryTuple(mu);
          if (!summary.ok()) {
            inner = summary.status();
            return false;
          }
          if (answer.Contains(*summary)) return true;  // μ(u) ∈ Q(D)
          // Build the V-check target: μ(T) alone for INDs (C3),
          // D ∪ μ(T) otherwise (C1/C2/C4).
          Database target(db.schema_ptr());
          if (!inds_only) target = db;
          Status st = tableau.InstantiateInto(mu, &target);
          if (!st.ok()) {
            inner = st;
            return false;
          }
          Result<bool> sat = Satisfies(constraints, target, master);
          if (!sat.ok()) {
            inner = sat.status();
            return false;
          }
          if (*sat) {
            report.bounded = false;
            report.violating_valuation = mu;
            report.disjunct = static_cast<int>(i);
            return false;
          }
          return true;
        }));
    RELCOMP_RETURN_NOT_OK(inner);
    if (!report.bounded) break;
  }
  return report;
}

std::string BoundedQueryReport::ToString() const {
  std::string out = bounded ? "bounded" : "NOT bounded";
  out += StrCat(" (condition ", condition, ")");
  for (size_t d = 0; d < ind_analysis.size(); ++d) {
    for (const VariableBoundedness& vb : ind_analysis[d]) {
      out += StrCat("\n  disjunct ", d, " var ", vb.variable, ": ",
                    vb.finite_domain ? "finite-domain"
                    : vb.ind_bounded ? "IND-bounded"
                                     : "UNBOUNDED");
    }
  }
  return out;
}

Result<BoundedQueryReport> CheckAllHeadVariablesFinite(
    const AnyQuery& query, const Schema& db_schema) {
  RELCOMP_ASSIGN_OR_RETURN(std::vector<TableauQuery> tableaux,
                           SatisfiableTableaux(query, db_schema));
  BoundedQueryReport report;
  report.condition = tableaux.size() > 1 ? "E5" : "E1";
  report.bounded = true;
  for (const TableauQuery& tableau : tableaux) {
    for (const Term& t : tableau.summary()) {
      if (t.is_variable() &&
          tableau.VariableDomain(t.var())->is_infinite()) {
        report.bounded = false;
        return report;
      }
    }
  }
  return report;
}

Result<BoundedQueryReport> CheckIndBoundedQuery(
    const AnyQuery& query, const ConstraintSet& constraints,
    const Schema& db_schema) {
  if (!constraints.IsIndsOnly()) {
    return Status::InvalidArgument(
        "E3/E4 apply when every constraint is an IND");
  }
  BoundedQueryReport report;
  report.condition = "E3/E4";
  RELCOMP_ASSIGN_OR_RETURN(report.ind_analysis,
                           AnalyzeIndBoundedness(query, constraints,
                                                 db_schema));
  report.bounded = true;
  for (const auto& disjunct : report.ind_analysis) {
    for (const VariableBoundedness& vb : disjunct) {
      if (!vb.bounded()) report.bounded = false;
    }
  }
  return report;
}

Result<bool> CheckBoundingDatabaseE2(const AnyQuery& query,
                                     const Database& dv,
                                     const Database& master,
                                     const ConstraintSet& constraints) {
  if (!DecidableLanguage(query.language()) ||
      !DecidableLanguage(constraints.Language())) {
    return Status::Unsupported(
        "bounded-query characterizations cover CQ/UCQ/EFO+ only");
  }
  RELCOMP_ASSIGN_OR_RETURN(bool dv_closed, Satisfies(constraints, dv, master));
  if (!dv_closed) return false;
  RELCOMP_ASSIGN_OR_RETURN(std::vector<TableauQuery> tableaux,
                           SatisfiableTableaux(query, dv.schema()));
  std::set<Value> query_constants = query.Constants();
  for (const TableauQuery& tableau : tableaux) {
    ActiveDomain adom = ActiveDomain::Build(
        dv, master, query_constants, constraints,
        std::max<size_t>(1, tableau.variables().size()));
    // Infinite-domain head variables of this disjunct.
    std::set<std::string> watched;
    for (const Term& t : tableau.summary()) {
      if (t.is_variable() && tableau.VariableDomain(t.var())->is_infinite()) {
        watched.insert(t.var());
      }
    }
    if (watched.empty()) continue;
    ValuationEnumerator::Options options;
    options.pruned = false;
    options.symmetry_break_fresh = false;
    options.interner = dv.interner().get();
    ValuationEnumerator enumerator(&tableau, &adom, options);
    bool bounded = true;
    Status inner;
    RELCOMP_RETURN_NOT_OK(enumerator.EnumerateIds(
        nullptr, [&](const IdValuation& v) {
          const Bindings mu = v.ToBindings();
          // Does some watched variable escape to a fresh value while
          // (dv ∪ μ(T), Dm) |= V?
          bool escapes = false;
          for (const std::string& var : watched) {
            std::optional<Value> v = mu.Get(var);
            if (v.has_value() && adom.IsFresh(*v)) escapes = true;
          }
          if (!escapes) return true;
          Database extended = dv;
          Status st = tableau.InstantiateInto(mu, &extended);
          if (!st.ok()) {
            inner = st;
            return false;
          }
          Result<bool> sat = Satisfies(constraints, extended, master);
          if (!sat.ok()) {
            inner = sat.status();
            return false;
          }
          if (*sat) {
            bounded = false;
            return false;
          }
          return true;
        }));
    RELCOMP_RETURN_NOT_OK(inner);
    if (!bounded) return false;
  }
  return true;
}

}  // namespace relcomp
