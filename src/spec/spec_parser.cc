#include "spec/spec_parser.h"

#include <cctype>
#include <fstream>
#include <sstream>

#include "query/parser.h"
#include "util/str.h"

namespace relcomp {
namespace {

Status LineError(size_t line, const std::string& message) {
  return Status::InvalidArgument(StrCat("spec line ", line, ": ", message));
}

/// Hostile-input guards. Relation arities bound every downstream tuple
/// and tableau width; int(N) domains materialize N values eagerly, so
/// an unchecked N is a memory bomb. Overruns are kInvalidArgument with
/// the line number, never a crash or an allocation stall.
constexpr size_t kMaxSpecArity = 4096;
constexpr int64_t kMaxFiniteDomainSize = 1 << 20;

/// Strips a trailing comment (% or #) outside of string literals.
std::string_view StripComment(std::string_view line) {
  char quote = 0;  // the open literal's quote, 0 outside literals
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quote != 0) {
      if (c == quote) quote = 0;
    } else if (c == '"' || c == '\'') {
      quote = c;
    } else if (c == '%' || c == '#') {
      return line.substr(0, i);
    }
  }
  return line;
}

/// Parses "Name(attr[: dom], ...)" into a RelationSchema.
Result<RelationSchema> ParseRelationDecl(std::string_view text, size_t line) {
  size_t open = text.find('(');
  size_t close = text.rfind(')');
  if (open == std::string_view::npos || close == std::string_view::npos ||
      close < open) {
    return LineError(line, "expected Name(attr, ...)");
  }
  std::string name(TrimWhitespace(text.substr(0, open)));
  if (name.empty()) return LineError(line, "missing relation name");
  std::vector<AttributeDef> attrs;
  std::string_view args = text.substr(open + 1, close - open - 1);
  if (!TrimWhitespace(args).empty()) {
    for (const std::string& piece : SplitAndTrim(args, ',')) {
      if (attrs.size() >= kMaxSpecArity) {
        return LineError(line, StrCat("relation ", name, " exceeds the arity "
                                      "limit of ", kMaxSpecArity));
      }
      size_t colon = piece.find(':');
      std::string attr_name =
          std::string(TrimWhitespace(piece.substr(0, colon)));
      if (attr_name.empty()) {
        return LineError(line, "empty attribute name");
      }
      if (colon == std::string::npos) {
        attrs.push_back(AttributeDef::Inf(attr_name));
        continue;
      }
      std::string domain(TrimWhitespace(piece.substr(colon + 1)));
      if (domain == "inf" || domain == "d") {
        attrs.push_back(AttributeDef::Inf(attr_name));
      } else if (domain == "bool") {
        attrs.push_back(AttributeDef::Over(attr_name, Domain::Boolean()));
      } else if (domain.rfind("int(", 0) == 0 && domain.back() == ')') {
        int64_t n = 0;
        if (!ParseInt64(domain.substr(4, domain.size() - 5), &n) || n < 1) {
          return LineError(line, StrCat("bad finite domain: ", domain));
        }
        if (n > kMaxFiniteDomainSize) {
          return LineError(
              line, StrCat("finite domain int(", n, ") exceeds the limit of ",
                           kMaxFiniteDomainSize, " values"));
        }
        attrs.push_back(AttributeDef::Over(
            attr_name, Domain::FiniteInts(StrCat("int", n), n)));
      } else {
        return LineError(line, StrCat("unknown domain: ", domain,
                                      " (use inf, bool, or int(N))"));
      }
    }
  }
  return RelationSchema(name, std::move(attrs));
}

/// Parses a fact "R(const, ...)"; errors carry the line number.
Result<GroundAtom> ParseFact(std::string_view text, size_t line) {
  Result<GroundAtom> fact = ParseGroundAtom(text);
  if (!fact.ok()) {
    return LineError(line, StrCat("bad fact: ", fact.status().message()));
  }
  return fact;
}

/// Parses "Rel[0, 2]" / "empty" into a CC target.
Result<std::pair<std::string, std::vector<size_t>>> ParseTarget(
    std::string_view text, size_t line) {
  std::string_view trimmed = TrimWhitespace(text);
  if (trimmed == "empty") return std::make_pair(std::string(), std::vector<size_t>());
  size_t open = trimmed.find('[');
  size_t close = trimmed.rfind(']');
  if (open == std::string_view::npos || close == std::string_view::npos ||
      close < open) {
    return LineError(line,
                     "constraint target must be `empty` or `Rel[c0, c1]`");
  }
  std::string name(TrimWhitespace(trimmed.substr(0, open)));
  std::vector<size_t> cols;
  for (const std::string& piece :
       SplitAndTrim(trimmed.substr(open + 1, close - open - 1), ',')) {
    if (piece.empty()) continue;
    int64_t col = 0;
    if (!ParseInt64(piece, &col) || col < 0) {
      return LineError(line, StrCat("bad projection column: ", piece));
    }
    cols.push_back(static_cast<size_t>(col));
  }
  return std::make_pair(name, cols);
}

/// Parses the constraint's left side: an FO formula definition when the
/// text contains `:=`, a CQ rule otherwise. FO formulas in the ∃FO+
/// fragment are tagged Positive so they stay in the decidable cells.
Result<AnyQuery> ParseConstraintQuery(std::string_view text, size_t line) {
  if (text.find(":=") != std::string_view::npos) {
    auto fo = ParseFoQuery(text);
    if (!fo.ok()) {
      return LineError(line, fo.status().message());
    }
    if (fo->IsPositiveExistential()) return AnyQuery::Positive(*std::move(fo));
    return AnyQuery::Fo(*std::move(fo));
  }
  auto cq = ParseConjunctiveQuery(text);
  if (!cq.ok()) {
    return LineError(line, cq.status().message());
  }
  return AnyQuery::Cq(*std::move(cq));
}

Result<AnyQuery> ParseSpecQuery(std::string_view lang, std::string_view text,
                                size_t line) {
  QueryLanguage language;
  if (lang == "cq") {
    language = QueryLanguage::kCq;
  } else if (lang == "ucq") {
    language = QueryLanguage::kUcq;
  } else if (lang == "fo") {
    language = QueryLanguage::kFo;
  } else if (lang == "efo" || lang == "efo+") {
    language = QueryLanguage::kPositive;
  } else if (lang == "fp" || lang == "datalog") {
    language = QueryLanguage::kDatalog;
  } else {
    return LineError(line, StrCat("unknown query language: ", lang,
                                  " (use cq, ucq, efo, fo, fp)"));
  }
  auto query = ParseQuery(text, language);
  if (!query.ok()) {
    return LineError(line, query.status().message());
  }
  return query;
}

/// Consumes a leading keyword (identifier) from *text; returns it.
std::string TakeWord(std::string_view* text) {
  *text = TrimWhitespace(*text);
  size_t end = 0;
  while (end < text->size() &&
         (std::isalnum(static_cast<unsigned char>((*text)[end])) ||
          (*text)[end] == '_' || (*text)[end] == '+')) {
    ++end;
  }
  std::string word(text->substr(0, end));
  *text = TrimWhitespace(text->substr(end));
  return word;
}

}  // namespace

Result<CompletenessSpec> ParseCompletenessSpec(std::string_view text) {
  CompletenessSpec spec;
  struct PendingFact {
    bool master;
    std::string relation;
    Tuple tuple;
    size_t line;
  };
  std::vector<PendingFact> facts;
  struct PendingConstraint {
    AnyQuery query;
    std::string target_relation;  // empty => ⊆ ∅
    std::vector<size_t> target_cols;
    size_t line;
  };
  std::vector<PendingConstraint> constraints;

  size_t line_no = 0;
  size_t start = 0;
  while (start <= text.size()) {
    size_t nl = text.find('\n', start);
    std::string_view raw = nl == std::string_view::npos
                               ? text.substr(start)
                               : text.substr(start, nl - start);
    start = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++line_no;
    std::string_view rest = TrimWhitespace(StripComment(raw));
    if (rest.empty()) continue;

    std::string keyword = TakeWord(&rest);
    bool master = false;
    if (keyword == "master") {
      master = true;
      keyword = TakeWord(&rest);
    }
    if (keyword == "relation") {
      RELCOMP_ASSIGN_OR_RETURN(RelationSchema rs,
                               ParseRelationDecl(rest, line_no));
      Status st = master ? spec.master_schema->AddRelation(std::move(rs))
                         : spec.db_schema->AddRelation(std::move(rs));
      if (!st.ok()) return LineError(line_no, st.message());
    } else if (keyword == "fact") {
      RELCOMP_ASSIGN_OR_RETURN(GroundAtom fact, ParseFact(rest, line_no));
      facts.push_back(
          {master, std::move(fact.relation), std::move(fact.tuple), line_no});
    } else if (keyword == "constraint") {
      if (master) return LineError(line_no, "constraints cannot be 'master'");
      size_t sep = rest.find("|=");
      if (sep == std::string_view::npos) {
        return LineError(line_no,
                         "constraint needs `|= target` (or `|= empty`)");
      }
      RELCOMP_ASSIGN_OR_RETURN(
          AnyQuery q, ParseConstraintQuery(rest.substr(0, sep), line_no));
      RELCOMP_ASSIGN_OR_RETURN(auto target,
                               ParseTarget(rest.substr(sep + 2), line_no));
      constraints.push_back({std::move(q), std::move(target.first),
                             std::move(target.second), line_no});
    } else if (keyword == "query") {
      if (master) return LineError(line_no, "queries cannot be 'master'");
      std::string lang = TakeWord(&rest);
      RELCOMP_ASSIGN_OR_RETURN(AnyQuery q,
                               ParseSpecQuery(lang, rest, line_no));
      spec.queries.push_back(std::move(q));
    } else {
      return LineError(line_no, StrCat("unknown statement: ", keyword));
    }
  }

  // Phase 2: insert facts (schemas are now complete) and build CCs.
  for (PendingFact& fact : facts) {
    Status st = fact.master
                    ? spec.master.Insert(fact.relation, std::move(fact.tuple))
                    : spec.db.Insert(fact.relation, std::move(fact.tuple));
    if (!st.ok()) return LineError(fact.line, st.message());
  }
  for (PendingConstraint& pc : constraints) {
    ContainmentConstraint cc =
        pc.target_relation.empty()
            ? ContainmentConstraint::SubsetOfEmpty(std::move(pc.query))
            : ContainmentConstraint::Subset(std::move(pc.query),
                                            pc.target_relation,
                                            std::move(pc.target_cols));
    Status st = cc.Validate(*spec.db_schema, *spec.master_schema);
    if (!st.ok()) return LineError(pc.line, st.message());
    spec.constraints.Add(std::move(cc));
  }
  for (size_t i = 0; i < spec.queries.size(); ++i) {
    Status st = spec.queries[i].Validate(*spec.db_schema);
    if (!st.ok()) {
      return Status::InvalidArgument(
          StrCat("query #", i + 1, " (", spec.queries[i].name(),
                 "): ", st.message()));
    }
  }
  return spec;
}

Result<CompletenessSpec> LoadCompletenessSpec(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    return Status::NotFound(StrCat("cannot open spec file: ", path));
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return ParseCompletenessSpec(buffer.str());
}

Result<DeltaBatch> ParseDeltaBatch(std::string_view text) {
  DeltaBatch batch;
  size_t line_no = 0;
  size_t start = 0;
  while (start <= text.size()) {
    size_t nl = text.find('\n', start);
    std::string_view raw = nl == std::string_view::npos
                               ? text.substr(start)
                               : text.substr(start, nl - start);
    start = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++line_no;
    std::string_view rest = TrimWhitespace(StripComment(raw));
    if (rest.empty()) continue;

    std::string keyword = TakeWord(&rest);
    bool master = false;
    if (keyword == "master") {
      master = true;
      keyword = TakeWord(&rest);
    }
    DeltaOp op;
    if (keyword == "insert") {
      op.insert = true;
    } else if (keyword == "delete") {
      op.insert = false;
    } else {
      return LineError(line_no,
                       StrCat("expected insert/delete (optionally after "
                              "`master`); got: ",
                              keyword));
    }
    RELCOMP_ASSIGN_OR_RETURN(GroundAtom fact, ParseFact(rest, line_no));
    op.relation = std::move(fact.relation);
    op.tuple = std::move(fact.tuple);
    (master ? batch.master_ops : batch.db_ops).push_back(std::move(op));
  }
  return batch;
}

Result<DeltaBatch> LoadDeltaBatch(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    return Status::NotFound(StrCat("cannot open delta file: ", path));
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return ParseDeltaBatch(buffer.str());
}

}  // namespace relcomp
