#include "query/parser.h"

#include <cctype>
#include <charconv>
#include <map>
#include <set>
#include <vector>

#include "util/str.h"

namespace relcomp {
namespace {

enum class TokKind {
  kIdent,
  kInt,
  kString,
  kLParen,
  kRParen,
  kComma,
  kDot,
  kRuleArrow,   // :-
  kDefine,      // :=
  kEq,          // =
  kNe,          // !=
  kAnd,         // &
  kOr,          // |
  kNot,         // !
  kEnd,
};

struct Token {
  TokKind kind;
  std::string text;  // ident or string payload
  int64_t int_value = 0;
  size_t pos = 0;
};

/// Hostile-input guards: the formula grammar is recursive (parens, !,
/// quantifiers), so unchecked depth is a stack overflow on inputs like
/// "((((…" or "!!!!…"; argument lists bound the arities fed into
/// schemas and tableaux downstream. Both overruns must surface as
/// kInvalidArgument with an offset, never as a crash.
constexpr size_t kMaxFormulaDepth = 256;
constexpr size_t kMaxArgs = 4096;

// Lexical rules shared by the Lexer and ParseGroundAtom, so trivia,
// identifiers, integers and string literals have one grammar. Each
// scanner starts at `*i` and advances it past what it read.

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool IsDigitAt(std::string_view in, size_t i) {
  return i < in.size() && std::isdigit(static_cast<unsigned char>(in[i]));
}

/// True when an integer literal `-?[0-9]+` starts at `i`.
bool IsIntStart(std::string_view in, size_t i) {
  return IsDigitAt(in, i) ||
         (i < in.size() && in[i] == '-' && IsDigitAt(in, i + 1));
}

bool IsQuote(char c) { return c == '"' || c == '\''; }

/// Skips whitespace and `%` line comments.
void SkipTrivia(std::string_view in, size_t* i) {
  while (*i < in.size()) {
    if (std::isspace(static_cast<unsigned char>(in[*i]))) {
      ++*i;
    } else if (in[*i] == '%') {
      while (*i < in.size() && in[*i] != '\n') ++*i;
    } else {
      return;
    }
  }
}

/// `[A-Za-z_][A-Za-z0-9_$]*`; precondition: IsIdentStart(in[*i]).
std::string_view ScanIdent(std::string_view in, size_t* i) {
  const size_t start = (*i)++;
  while (*i < in.size() &&
         (std::isalnum(static_cast<unsigned char>(in[*i])) || in[*i] == '_' ||
          in[*i] == '$')) {
    ++*i;
  }
  return in.substr(start, *i - start);
}

/// Precondition: IsIntStart(in, *i). Out-of-range literals are errors.
Result<int64_t> ScanInt(std::string_view in, size_t* i) {
  const size_t start = *i;
  size_t end = start + 1;
  while (IsDigitAt(in, end)) ++end;
  int64_t value = 0;
  auto [ptr, ec] = std::from_chars(in.data() + start, in.data() + end, value);
  if (ec != std::errc() || ptr != in.data() + end) {
    return Status::InvalidArgument(
        StrCat("bad integer literal at offset ", start));
  }
  *i = end;
  return value;
}

/// A `"…"` or `'…'` literal, no escapes; precondition: IsQuote(in[*i]).
/// Returns the payload between the quotes.
Result<std::string_view> ScanString(std::string_view in, size_t* i) {
  const size_t start = *i;
  const size_t close = in.find(in[start], start + 1);
  if (close == std::string_view::npos) {
    return Status::InvalidArgument(
        StrCat("unterminated string literal at offset ", start));
  }
  *i = close + 1;
  return in.substr(start + 1, close - start - 1);
}

class Lexer {
 public:
  explicit Lexer(std::string_view input) : input_(input) {}

  Status Tokenize(std::vector<Token>* out) {
    size_t i = 0;
    for (;;) {
      SkipTrivia(input_, &i);
      if (i >= input_.size()) break;
      const char c = input_[i];
      const size_t start = i;
      if (IsIdentStart(c)) {
        out->push_back(
            {TokKind::kIdent, std::string(ScanIdent(input_, &i)), 0, start});
        continue;
      }
      if (IsIntStart(input_, i)) {
        RELCOMP_ASSIGN_OR_RETURN(int64_t value, ScanInt(input_, &i));
        out->push_back({TokKind::kInt, "", value, start});
        continue;
      }
      if (IsQuote(c)) {
        RELCOMP_ASSIGN_OR_RETURN(std::string_view payload,
                                 ScanString(input_, &i));
        out->push_back({TokKind::kString, std::string(payload), 0, start});
        continue;
      }
      switch (c) {
        case '(':
          out->push_back({TokKind::kLParen, "", 0, start});
          ++i;
          continue;
        case ')':
          out->push_back({TokKind::kRParen, "", 0, start});
          ++i;
          continue;
        case ',':
          out->push_back({TokKind::kComma, "", 0, start});
          ++i;
          continue;
        case '.':
          out->push_back({TokKind::kDot, "", 0, start});
          ++i;
          continue;
        case '&':
          out->push_back({TokKind::kAnd, "", 0, start});
          ++i;
          continue;
        case '|':
          out->push_back({TokKind::kOr, "", 0, start});
          ++i;
          continue;
        case '=':
          out->push_back({TokKind::kEq, "", 0, start});
          ++i;
          continue;
        case '!':
          if (i + 1 < input_.size() && input_[i + 1] == '=') {
            out->push_back({TokKind::kNe, "", 0, start});
            i += 2;
          } else {
            out->push_back({TokKind::kNot, "", 0, start});
            ++i;
          }
          continue;
        case ':':
          if (i + 1 < input_.size() && input_[i + 1] == '-') {
            out->push_back({TokKind::kRuleArrow, "", 0, start});
            i += 2;
            continue;
          }
          if (i + 1 < input_.size() && input_[i + 1] == '=') {
            out->push_back({TokKind::kDefine, "", 0, start});
            i += 2;
            continue;
          }
          return Status::InvalidArgument(
              StrCat("stray ':' at offset ", i));
        default:
          return Status::InvalidArgument(
              StrCat("unexpected character '", std::string(1, c),
                     "' at offset ", i));
      }
    }
    out->push_back({TokKind::kEnd, "", 0, input_.size()});
    return Status::OK();
  }

 private:
  std::string_view input_;
};

/// Shared cursor over the token stream.
class Cursor {
 public:
  explicit Cursor(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Next() { return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_]; }
  bool AtEnd() const { return Peek().kind == TokKind::kEnd; }

  bool TryConsume(TokKind kind) {
    if (Peek().kind != kind) return false;
    Next();
    return true;
  }

  Status Expect(TokKind kind, const char* what) {
    if (!TryConsume(kind)) {
      return Status::InvalidArgument(
          StrCat("expected ", what, " at offset ", Peek().pos));
    }
    return Status::OK();
  }

 private:
  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

/// Parses a term. Anonymous `_` variables get unique names `_anon$k`.
Result<Term> ParseTerm(Cursor* cur, int* anon_counter) {
  const Token& t = cur->Next();
  switch (t.kind) {
    case TokKind::kIdent:
      if (t.text == "_") {
        return Term::Var(StrCat("_anon$", (*anon_counter)++));
      }
      return Term::Var(t.text);
    case TokKind::kInt:
      return Term::ConstInt(t.int_value);
    case TokKind::kString:
      return Term::ConstStr(t.text);
    default:
      return Status::InvalidArgument(
          StrCat("expected term at offset ", t.pos));
  }
}

/// Parses `Pred(t1, ..., tk)`; the predicate name was already consumed.
Result<std::vector<Term>> ParseArgList(Cursor* cur, int* anon_counter) {
  RELCOMP_RETURN_NOT_OK(cur->Expect(TokKind::kLParen, "'('"));
  std::vector<Term> args;
  if (cur->TryConsume(TokKind::kRParen)) return args;
  while (true) {
    if (args.size() >= kMaxArgs) {
      return Status::InvalidArgument(
          StrCat("argument list exceeds ", kMaxArgs, " terms at offset ",
                 cur->Peek().pos));
    }
    RELCOMP_ASSIGN_OR_RETURN(Term t, ParseTerm(cur, anon_counter));
    args.push_back(std::move(t));
    if (cur->TryConsume(TokKind::kRParen)) break;
    RELCOMP_RETURN_NOT_OK(cur->Expect(TokKind::kComma, "',' or ')'"));
  }
  return args;
}

/// Parses one body atom: relation atom or comparison.
Result<Atom> ParseBodyAtom(Cursor* cur, int* anon_counter) {
  // Lookahead: IDENT '(' => relation atom; otherwise a comparison whose
  // lhs is a term.
  if (cur->Peek().kind == TokKind::kIdent) {
    Token ident = cur->Next();
    if (cur->Peek().kind == TokKind::kLParen) {
      RELCOMP_ASSIGN_OR_RETURN(std::vector<Term> args,
                               ParseArgList(cur, anon_counter));
      return Atom::Relation(ident.text, std::move(args));
    }
    // Comparison with variable lhs.
    Term lhs = ident.text == "_"
                   ? Term::Var(StrCat("_anon$", (*anon_counter)++))
                   : Term::Var(ident.text);
    if (cur->TryConsume(TokKind::kEq)) {
      RELCOMP_ASSIGN_OR_RETURN(Term rhs, ParseTerm(cur, anon_counter));
      return Atom::Eq(std::move(lhs), std::move(rhs));
    }
    if (cur->TryConsume(TokKind::kNe)) {
      RELCOMP_ASSIGN_OR_RETURN(Term rhs, ParseTerm(cur, anon_counter));
      return Atom::Ne(std::move(lhs), std::move(rhs));
    }
    return Status::InvalidArgument(
        StrCat("expected '(', '=' or '!=' after identifier at offset ",
               cur->Peek().pos));
  }
  RELCOMP_ASSIGN_OR_RETURN(Term lhs, ParseTerm(cur, anon_counter));
  if (cur->TryConsume(TokKind::kEq)) {
    RELCOMP_ASSIGN_OR_RETURN(Term rhs, ParseTerm(cur, anon_counter));
    return Atom::Eq(std::move(lhs), std::move(rhs));
  }
  RELCOMP_RETURN_NOT_OK(cur->Expect(TokKind::kNe, "'=' or '!='"));
  RELCOMP_ASSIGN_OR_RETURN(Term rhs, ParseTerm(cur, anon_counter));
  return Atom::Ne(std::move(lhs), std::move(rhs));
}

/// Parses one rule `Head(args) :- body.` (trailing '.' optional at EOF).
Result<DatalogRule> ParseRule(Cursor* cur, int* anon_counter) {
  if (cur->Peek().kind != TokKind::kIdent) {
    return Status::InvalidArgument(
        StrCat("expected rule head at offset ", cur->Peek().pos));
  }
  DatalogRule rule;
  rule.head_predicate = cur->Next().text;
  RELCOMP_ASSIGN_OR_RETURN(rule.head_args, ParseArgList(cur, anon_counter));
  RELCOMP_RETURN_NOT_OK(cur->Expect(TokKind::kRuleArrow, "':-'"));
  // Empty body allowed: `Q() :- .` or `Q() :- true` is written as no atoms;
  // we accept an immediately following '.' for an empty (always-true) body.
  while (cur->Peek().kind != TokKind::kDot && !cur->AtEnd()) {
    RELCOMP_ASSIGN_OR_RETURN(Atom a, ParseBodyAtom(cur, anon_counter));
    rule.body.push_back(std::move(a));
    if (!cur->TryConsume(TokKind::kComma)) break;
  }
  cur->TryConsume(TokKind::kDot);
  return rule;
}

Result<std::vector<DatalogRule>> ParseRuleList(std::string_view text) {
  std::vector<Token> tokens;
  RELCOMP_RETURN_NOT_OK(Lexer(text).Tokenize(&tokens));
  Cursor cur(std::move(tokens));
  std::vector<DatalogRule> rules;
  int anon_counter = 0;
  while (!cur.AtEnd()) {
    RELCOMP_ASSIGN_OR_RETURN(DatalogRule r, ParseRule(&cur, &anon_counter));
    rules.push_back(std::move(r));
  }
  if (rules.empty()) {
    return Status::InvalidArgument("no rules found");
  }
  return rules;
}

// ---------------------------------------------------------------------------
// FO formula parsing: precedence ! > & > |, quantifiers extend right.

Result<FormulaPtr> ParseFormula(Cursor* cur, int* anon_counter, size_t depth);

Result<FormulaPtr> ParseFormulaPrimary(Cursor* cur, int* anon_counter,
                                       size_t depth) {
  const Token& t = cur->Peek();
  if (depth > kMaxFormulaDepth) {
    return Status::InvalidArgument(
        StrCat("formula nesting exceeds depth ", kMaxFormulaDepth,
               " at offset ", t.pos));
  }
  if (t.kind == TokKind::kNot) {
    cur->Next();
    RELCOMP_ASSIGN_OR_RETURN(
        FormulaPtr sub, ParseFormulaPrimary(cur, anon_counter, depth + 1));
    return Formula::MakeNot(std::move(sub));
  }
  if (t.kind == TokKind::kLParen) {
    cur->Next();
    RELCOMP_ASSIGN_OR_RETURN(FormulaPtr sub,
                             ParseFormula(cur, anon_counter, depth + 1));
    RELCOMP_RETURN_NOT_OK(cur->Expect(TokKind::kRParen, "')'"));
    return sub;
  }
  if (t.kind == TokKind::kIdent &&
      (t.text == "exists" || t.text == "forall")) {
    bool is_exists = t.text == "exists";
    cur->Next();
    std::vector<std::string> vars;
    while (cur->Peek().kind == TokKind::kIdent) {
      vars.push_back(cur->Next().text);
      if (!cur->TryConsume(TokKind::kComma)) break;
    }
    if (vars.empty()) {
      return Status::InvalidArgument(
          StrCat("quantifier without variables at offset ", t.pos));
    }
    RELCOMP_RETURN_NOT_OK(cur->Expect(TokKind::kDot, "'.'"));
    RELCOMP_ASSIGN_OR_RETURN(FormulaPtr sub,
                             ParseFormula(cur, anon_counter, depth + 1));
    return is_exists ? Formula::MakeExists(std::move(vars), std::move(sub))
                     : Formula::MakeForall(std::move(vars), std::move(sub));
  }
  // Otherwise: an atom (relation or comparison).
  RELCOMP_ASSIGN_OR_RETURN(Atom a, ParseBodyAtom(cur, anon_counter));
  return Formula::MakeAtom(std::move(a));
}

Result<FormulaPtr> ParseFormulaAnd(Cursor* cur, int* anon_counter,
                                   size_t depth) {
  RELCOMP_ASSIGN_OR_RETURN(FormulaPtr first,
                           ParseFormulaPrimary(cur, anon_counter, depth));
  std::vector<FormulaPtr> children = {std::move(first)};
  while (cur->TryConsume(TokKind::kAnd)) {
    RELCOMP_ASSIGN_OR_RETURN(FormulaPtr next,
                             ParseFormulaPrimary(cur, anon_counter, depth));
    children.push_back(std::move(next));
  }
  if (children.size() == 1) return std::move(children.front());
  return Formula::MakeAnd(std::move(children));
}

Result<FormulaPtr> ParseFormula(Cursor* cur, int* anon_counter, size_t depth) {
  RELCOMP_ASSIGN_OR_RETURN(FormulaPtr first,
                           ParseFormulaAnd(cur, anon_counter, depth));
  std::vector<FormulaPtr> children = {std::move(first)};
  while (cur->TryConsume(TokKind::kOr)) {
    RELCOMP_ASSIGN_OR_RETURN(FormulaPtr next,
                             ParseFormulaAnd(cur, anon_counter, depth));
    children.push_back(std::move(next));
  }
  if (children.size() == 1) return std::move(children.front());
  return Formula::MakeOr(std::move(children));
}

}  // namespace

Result<ConjunctiveQuery> ParseConjunctiveQuery(std::string_view text) {
  RELCOMP_ASSIGN_OR_RETURN(std::vector<DatalogRule> rules,
                           ParseRuleList(text));
  if (rules.size() != 1) {
    return Status::InvalidArgument(
        StrCat("expected exactly one rule for a CQ, got ", rules.size()));
  }
  DatalogRule& r = rules.front();
  return ConjunctiveQuery(r.head_predicate, std::move(r.head_args),
                          std::move(r.body));
}

Result<UnionQuery> ParseUnionQuery(std::string_view text) {
  RELCOMP_ASSIGN_OR_RETURN(std::vector<DatalogRule> rules,
                           ParseRuleList(text));
  UnionQuery out;
  out.set_name(rules.front().head_predicate);
  for (DatalogRule& r : rules) {
    if (r.head_predicate != out.name()) {
      return Status::InvalidArgument(
          StrCat("UCQ rules must share one head predicate; got ",
                 out.name(), " and ", r.head_predicate));
    }
    out.AddDisjunct(ConjunctiveQuery(r.head_predicate, std::move(r.head_args),
                                     std::move(r.body)));
  }
  return out;
}

Result<DatalogProgram> ParseDatalogProgram(std::string_view text,
                                           std::string output) {
  RELCOMP_ASSIGN_OR_RETURN(std::vector<DatalogRule> rules,
                           ParseRuleList(text));
  DatalogProgram program;
  program.set_output_predicate(output.empty() ? rules.front().head_predicate
                                              : std::move(output));
  for (DatalogRule& r : rules) program.AddRule(std::move(r));
  return program;
}

Result<FoQuery> ParseFoQuery(std::string_view text) {
  std::vector<Token> tokens;
  RELCOMP_RETURN_NOT_OK(Lexer(text).Tokenize(&tokens));
  Cursor cur(std::move(tokens));
  int anon_counter = 0;
  if (cur.Peek().kind != TokKind::kIdent) {
    return Status::InvalidArgument("expected query name");
  }
  std::string name = cur.Next().text;
  RELCOMP_ASSIGN_OR_RETURN(std::vector<Term> head_terms,
                           ParseArgList(&cur, &anon_counter));
  std::vector<std::string> head_vars;
  for (const Term& t : head_terms) {
    if (!t.is_variable()) {
      return Status::InvalidArgument(
          "FO query heads must consist of variables");
    }
    head_vars.push_back(t.var());
  }
  RELCOMP_RETURN_NOT_OK(cur.Expect(TokKind::kDefine, "':='"));
  RELCOMP_ASSIGN_OR_RETURN(FormulaPtr formula,
                           ParseFormula(&cur, &anon_counter, /*depth=*/0));
  cur.TryConsume(TokKind::kDot);
  if (!cur.AtEnd()) {
    return Status::InvalidArgument(
        StrCat("trailing input at offset ", cur.Peek().pos));
  }
  return FoQuery(std::move(name), std::move(head_vars), std::move(formula));
}

Result<GroundAtom> ParseGroundAtom(std::string_view text) {
  auto expected = [](const char* what, size_t at) {
    return Status::InvalidArgument(
        StrCat("expected ", what, " at offset ", at));
  };
  size_t i = 0;
  SkipTrivia(text, &i);
  if (i >= text.size() || !IsIdentStart(text[i])) {
    return expected("relation name", i);
  }
  GroundAtom atom;
  atom.relation = std::string(ScanIdent(text, &i));
  SkipTrivia(text, &i);
  if (i >= text.size() || text[i] != '(') return expected("'('", i);
  ++i;
  std::vector<Value> values;
  SkipTrivia(text, &i);
  if (i < text.size() && text[i] == ')') {
    ++i;
  } else {
    for (;;) {
      if (values.size() >= kMaxArgs) {
        return Status::InvalidArgument(
            StrCat("argument list exceeds ", kMaxArgs, " terms at offset ", i));
      }
      if (IsIntStart(text, i)) {
        RELCOMP_ASSIGN_OR_RETURN(int64_t value, ScanInt(text, &i));
        values.push_back(Value::Int(value));
      } else if (i < text.size() && IsQuote(text[i])) {
        RELCOMP_ASSIGN_OR_RETURN(std::string_view payload,
                                 ScanString(text, &i));
        values.push_back(Value::Str(payload));
      } else {
        return expected("a constant", i);
      }
      SkipTrivia(text, &i);
      if (i < text.size() && text[i] == ')') {
        ++i;
        break;
      }
      if (i >= text.size() || text[i] != ',') return expected("',' or ')'", i);
      ++i;
      SkipTrivia(text, &i);
    }
  }
  // As at the end of a rule body, one stray ',' may follow the atom.
  SkipTrivia(text, &i);
  if (i < text.size() && text[i] == ',') {
    ++i;
    SkipTrivia(text, &i);
  }
  if (i < text.size()) {
    return Status::InvalidArgument(StrCat("trailing input at offset ", i));
  }
  atom.tuple = Tuple(std::move(values));
  return atom;
}

Result<AnyQuery> ParseQuery(std::string_view text, QueryLanguage lang) {
  switch (lang) {
    case QueryLanguage::kCq: {
      RELCOMP_ASSIGN_OR_RETURN(ConjunctiveQuery q,
                               ParseConjunctiveQuery(text));
      return AnyQuery::Cq(std::move(q));
    }
    case QueryLanguage::kUcq: {
      RELCOMP_ASSIGN_OR_RETURN(UnionQuery q, ParseUnionQuery(text));
      return AnyQuery::Ucq(std::move(q));
    }
    case QueryLanguage::kPositive: {
      RELCOMP_ASSIGN_OR_RETURN(FoQuery q, ParseFoQuery(text));
      if (!q.IsPositiveExistential()) {
        return Status::InvalidArgument(
            "formula uses ! or forall; not in EFO+");
      }
      return AnyQuery::Positive(std::move(q));
    }
    case QueryLanguage::kFo: {
      RELCOMP_ASSIGN_OR_RETURN(FoQuery q, ParseFoQuery(text));
      return AnyQuery::Fo(std::move(q));
    }
    case QueryLanguage::kDatalog: {
      RELCOMP_ASSIGN_OR_RETURN(DatalogProgram p, ParseDatalogProgram(text));
      return AnyQuery::Fp(std::move(p));
    }
  }
  return Status::Internal("unreachable");
}

}  // namespace relcomp
