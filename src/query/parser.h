#ifndef RELCOMP_QUERY_PARSER_H_
#define RELCOMP_QUERY_PARSER_H_

#include <string>
#include <string_view>

#include "query/any_query.h"
#include "relational/tuple.h"
#include "util/status.h"

namespace relcomp {

/// Text syntax for queries.
///
/// Rule syntax (CQ / UCQ / datalog):
///
///   Q(x) :- Cust(x, n, cc, a, p), Supt(e, d, x), cc = "01".
///   Q(x) :- Vip(x).
///   Above(x) :- Manage(x, "e0").
///   Above(x) :- Manage(x, y), Above(y).
///
/// * identifiers are variables; `_` is an anonymous variable;
/// * numbers and quoted strings are constants;
/// * `%` starts a line comment; the trailing `.` per rule is optional;
/// * several rules with the same head predicate form a UCQ, and rules
///   whose bodies mention head predicates form a datalog program.
///
/// FO formula syntax:
///
///   Q(x) := exists y. (R(x, y) & !(S(y) | x = y))
///
/// with `!` > `&` > `|` precedence and `exists`/`forall` binding as far
/// right as possible.

/// Parses a single rule as a conjunctive query.
Result<ConjunctiveQuery> ParseConjunctiveQuery(std::string_view text);

/// Parses one or more rules with a common head predicate as a UCQ.
Result<UnionQuery> ParseUnionQuery(std::string_view text);

/// Parses rules as a datalog program. The output predicate defaults to
/// the head of the first rule; pass `output` to override.
Result<DatalogProgram> ParseDatalogProgram(std::string_view text,
                                           std::string output = "");

/// Parses "Name(v1, ..., vk) := formula" as an FO query.
Result<FoQuery> ParseFoQuery(std::string_view text);

/// A relation atom whose arguments are all constants: one fact.
struct GroundAtom {
  std::string relation;
  Tuple tuple;
};

/// Parses "Name(c1, ..., ck)", where every ci is an integer or a quoted
/// string, in one pass with the same lexical rules as the query syntax
/// above. As at the end of a rule body, one trailing ',' is allowed.
Result<GroundAtom> ParseGroundAtom(std::string_view text);

/// Parses `text` in the syntax appropriate for `lang` and wraps it.
/// For kPositive the formula must be in ∃FO+ (checked).
Result<AnyQuery> ParseQuery(std::string_view text, QueryLanguage lang);

}  // namespace relcomp

#endif  // RELCOMP_QUERY_PARSER_H_
