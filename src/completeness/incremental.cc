#include "completeness/incremental.h"

#include <algorithm>
#include <utility>

#include "constraints/constraint_check.h"
#include "eval/conjunctive_eval.h"
#include "query/union_query.h"
#include "util/str.h"

namespace relcomp {
namespace {

// FNV-1a, folded byte-wise with explicit tags so that ints, strings,
// and field boundaries never alias (i:1 vs s"1", ("ab","c") vs
// ("a","bc")).
constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t FnvBytes(uint64_t h, const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

uint64_t FnvU64(uint64_t h, uint64_t v) {
  unsigned char bytes[8];
  for (size_t i = 0; i < 8; ++i) bytes[i] = (v >> (8 * i)) & 0xff;
  return FnvBytes(h, bytes, 8);
}

uint64_t FnvValue(uint64_t h, const Value& v) {
  if (v.is_int()) {
    h = FnvBytes(h, "i", 1);
    return FnvU64(h, static_cast<uint64_t>(v.AsInt()));
  }
  h = FnvBytes(h, "s", 1);
  const std::string& s = v.AsString();
  h = FnvU64(h, s.size());
  return FnvBytes(h, s.data(), s.size());
}

/// XOR-fold of per-tuple fingerprints over one relation's content.
/// XOR is commutative, so the fold is independent of iteration and
/// insertion order and maintainable in O(1) per single-tuple update.
uint64_t XorFoldRelation(std::string_view name, const Relation& rel) {
  uint64_t acc = 0;
  for (const Tuple& t : rel) acc ^= FingerprintTuple(name, t);
  return acc;
}

uint64_t FingerprintAnswer(const Relation& answer) {
  uint64_t acc = XorFoldRelation("$answer", answer);
  return CheckpointFingerprint(
      {FingerprintString("rcdp-answer/1"), acc, answer.size()});
}

/// Fingerprint of the active-domain base constant set, replicating
/// exactly the set ActiveDomain::Build assembles for the decider:
/// UCQ constants ∪ consts(D) ∪ consts(Dm) ∪ per-CC query constants.
/// Equal sets ⇒ identical candidate lists (and identical fresh pool,
/// which is a pure function of this set), hence identical searches.
uint64_t FingerprintAdomBase(const UnionQuery& ucq, const Database& db,
                             const Database& master,
                             const ConstraintSet& constraints) {
  std::set<Value> base = ucq.Constants();
  db.CollectConstants(&base);
  master.CollectConstants(&base);
  for (const ContainmentConstraint& cc : constraints.constraints()) {
    std::set<Value> cc_consts = cc.query().Constants();
    base.insert(cc_consts.begin(), cc_consts.end());
  }
  uint64_t h = kFnvOffset;
  h = FnvBytes(h, "rcdp-adom/1", 11);
  h = FnvU64(h, base.size());
  for (const Value& v : base) h = FnvValue(h, v);
  return h;
}

bool DecidableLanguage(QueryLanguage lang) {
  return lang == QueryLanguage::kCq || lang == QueryLanguage::kUcq ||
         lang == QueryLanguage::kPositive;
}

/// Mirrors the decider's language gate so the serve-from-certificate
/// fast paths reject undecidable inputs the same way DecideRcdp would.
Status GateLanguages(const AnyQuery& query, const ConstraintSet& constraints) {
  if (!DecidableLanguage(query.language())) {
    return Status::Unsupported(StrCat(
        "RCDP is undecidable for L_Q = ",
        QueryLanguageToString(query.language()),
        " (Theorem 3.1); see reductions/ and automata/ for the encodings"));
  }
  if (!DecidableLanguage(constraints.Language())) {
    return Status::Unsupported(StrCat(
        "RCDP is undecidable for L_C = ",
        QueryLanguageToString(constraints.Language()), " (Theorem 3.1)"));
  }
  return Status::OK();
}

bool Intersects(const std::vector<std::string>& sorted_names,
                const std::set<std::string>& set) {
  for (const std::string& n : sorted_names) {
    if (set.count(n) > 0) return true;
  }
  return false;
}

/// --- relcomp-cert/1 text codec --------------------------------------

void PutStr(std::string* out, std::string_view s) {
  out->append(StrCat(s.size(), ":"));
  out->append(s.data(), s.size());
}

void PutValue(std::string* out, const Value& v) {
  if (v.is_int()) {
    out->append(StrCat("i", v.AsInt()));
  } else {
    out->push_back('s');
    PutStr(out, v.AsString());
  }
}

void PutTuple(std::string* out, const Tuple& t) {
  out->append(StrCat(t.arity()));
  for (size_t i = 0; i < t.arity(); ++i) {
    out->push_back(' ');
    PutValue(out, t[i]);
  }
}

/// Cursor over untrusted certificate text: every read is bounds- and
/// format-checked, so a corrupted or adversarial store entry yields
/// kInvalidArgument instead of UB.
class CertReader {
 public:
  explicit CertReader(std::string_view text) : text_(text) {}

  Status Expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) {
      return Malformed(StrCat("expected '", std::string(1, c), "' at byte ",
                              pos_));
    }
    ++pos_;
    return Status::OK();
  }

  Result<uint64_t> ReadU64() {
    if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
      return Malformed(StrCat("expected a number at byte ", pos_));
    }
    uint64_t v = 0;
    size_t digits = 0;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      if (++digits > 20) return Malformed("number too long");
      uint64_t d = static_cast<uint64_t>(text_[pos_] - '0');
      if (v > (UINT64_MAX - d) / 10) return Malformed("number overflows");
      v = v * 10 + d;
      ++pos_;
    }
    return v;
  }

  Result<int64_t> ReadI64() {
    bool neg = pos_ < text_.size() && text_[pos_] == '-';
    if (neg) ++pos_;
    RELCOMP_ASSIGN_OR_RETURN(uint64_t mag, ReadU64());
    if (neg) {
      if (mag > 9223372036854775808ull) return Malformed("int underflows");
      return static_cast<int64_t>(0ull - mag);
    }
    if (mag > static_cast<uint64_t>(INT64_MAX)) {
      return Malformed("int overflows");
    }
    return static_cast<int64_t>(mag);
  }

  Result<std::string_view> ReadStr() {
    RELCOMP_ASSIGN_OR_RETURN(uint64_t len, ReadU64());
    RELCOMP_RETURN_NOT_OK(Expect(':'));
    if (len > text_.size() - pos_) {
      return Malformed(StrCat("string length ", len, " runs past the end"));
    }
    std::string_view s = text_.substr(pos_, len);
    pos_ += len;
    return s;
  }

  Result<Value> ReadValue() {
    if (pos_ >= text_.size()) return Malformed("truncated value");
    char tag = text_[pos_++];
    if (tag == 'i') {
      RELCOMP_ASSIGN_OR_RETURN(int64_t v, ReadI64());
      return Value::Int(v);
    }
    if (tag == 's') {
      RELCOMP_ASSIGN_OR_RETURN(std::string_view s, ReadStr());
      return Value::Str(s);
    }
    return Malformed(StrCat("unknown value tag at byte ", pos_ - 1));
  }

  Result<Tuple> ReadTuple() {
    RELCOMP_ASSIGN_OR_RETURN(uint64_t arity, ReadU64());
    if (arity > 4096) return Malformed("tuple arity implausibly large");
    std::vector<Value> vals;
    vals.reserve(arity);
    for (uint64_t i = 0; i < arity; ++i) {
      RELCOMP_RETURN_NOT_OK(Expect(' '));
      RELCOMP_ASSIGN_OR_RETURN(Value v, ReadValue());
      vals.push_back(std::move(v));
    }
    return Tuple(std::move(vals));
  }

  Result<char> ReadChar() {
    if (pos_ >= text_.size()) return Malformed("truncated");
    return text_[pos_++];
  }

  Status ExpectEnd() {
    if (pos_ != text_.size()) {
      return Malformed(StrCat("trailing bytes at ", pos_));
    }
    return Status::OK();
  }

  static Status Malformed(std::string_view why) {
    return Status::InvalidArgument(StrCat("malformed certificate: ", why));
  }

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

char VerdictCode(Verdict v) {
  switch (v) {
    case Verdict::kComplete:
      return 'C';
    case Verdict::kIncomplete:
      return 'I';
    case Verdict::kUnknown:
      return 'U';
  }
  return '?';
}

/// --- Certificate assembly -------------------------------------------

struct InstanceFps {
  uint64_t instance = 0;
  uint64_t adom = 0;
  uint64_t answer = 0;
  uint64_t options = 0;
};

Result<RcdpCertificate> AssembleCertificate(const InstanceFps& fps,
                                            size_t num_disjuncts,
                                            const RcdpResult& result,
                                            const Database& db) {
  RcdpCertificate cert;
  cert.instance_fp = fps.instance;
  cert.adom_fp = fps.adom;
  cert.answer_fp = fps.answer;
  cert.options_fp = fps.options;
  cert.num_disjuncts = num_disjuncts;
  cert.verdict = result.verdict;
  if (result.verdict == Verdict::kIncomplete) {
    if (!result.counterexample_delta.has_value() ||
        !result.new_answer.has_value()) {
      return Status::Internal(
          "incomplete verdict carries no counterexample evidence");
    }
    cert.cex_disjunct = result.counterexample_disjunct;
    for (const std::string& name : db.schema().relation_names()) {
      for (const Tuple& t : result.counterexample_delta->Get(name)) {
        cert.cex_delta.emplace_back(name, t);
      }
    }
    cert.cex_answer = *result.new_answer;
  } else if (result.verdict == Verdict::kUnknown) {
    if (!result.checkpoint.has_value()) {
      return Status::Internal("unknown verdict carries no checkpoint");
    }
    cert.checkpoint = *result.checkpoint;
  }
  return cert;
}

/// Rebuilds the stored counterexample evidence exactly as the search
/// produced it: a delta Database over the instance's schema (fresh
/// interner, content-based ToString) plus the gained answer tuple.
Result<RcdpResult> ServeIncomplete(const RcdpCertificate& cert,
                                   const Database& db) {
  if (!cert.cex_answer.has_value()) {
    return Status::InvalidArgument(
        "malformed certificate: incomplete verdict without evidence");
  }
  RcdpResult result;
  result.verdict = Verdict::kIncomplete;
  result.complete = false;
  Database delta(db.schema_ptr());
  for (const auto& [relation, tuple] : cert.cex_delta) {
    if (!db.schema().HasRelation(relation)) {
      return Status::InvalidArgument(
          StrCat("malformed certificate: counterexample relation ", relation,
                 " is not in the schema"));
    }
    delta.InsertUnchecked(relation, tuple);
  }
  result.counterexample_delta = std::move(delta);
  result.new_answer = *cert.cex_answer;
  result.counterexample_disjunct = cert.cex_disjunct;
  return result;
}

}  // namespace

/// --- Fingerprints ---------------------------------------------------

uint64_t FingerprintTuple(std::string_view relation, const Tuple& tuple) {
  uint64_t h = kFnvOffset;
  h = FnvU64(h, relation.size());
  h = FnvBytes(h, relation.data(), relation.size());
  h = FnvU64(h, tuple.arity());
  for (size_t i = 0; i < tuple.arity(); ++i) h = FnvValue(h, tuple[i]);
  return h;
}

uint64_t FingerprintDatabase(const Database& db) {
  uint64_t acc = 0;
  for (const std::string& name : db.schema().relation_names()) {
    acc ^= XorFoldRelation(name, db.Get(name));
  }
  return CheckpointFingerprint(
      {FingerprintString("rcdp-db/1"), acc, db.TotalTuples()});
}

uint64_t FingerprintRcdpInstance(const AnyQuery& query, const Database& db,
                                 const Database& master,
                                 const ConstraintSet& constraints) {
  return CheckpointFingerprint(
      {FingerprintString("rcdp-inst/1"), FingerprintString(query.ToString()),
       FingerprintString(constraints.ToString()), FingerprintDatabase(db),
       FingerprintDatabase(master)});
}

uint64_t FingerprintRcdpOptions(const RcdpOptions& options) {
  uint64_t flags = 0;
  flags |= options.prune ? 1u : 0;
  flags |= options.ind_fast_path ? 2u : 0;
  flags |= options.delta_constraint_check ? 4u : 0;
  flags |= options.collapse_dont_care ? 8u : 0;
  // The 0 is the retired binding-cap slot: hashing it keeps every
  // certificate minted while the cap existed valid.
  return CheckpointFingerprint({FingerprintString("rcdp-opts/1"), flags, 0,
                                options.max_union_disjuncts});
}

/// --- Dependency graph -----------------------------------------------

Result<RcdpDependencyGraph> RcdpDependencyGraph::Build(
    const AnyQuery& query, const ConstraintSet& constraints,
    size_t max_union_disjuncts) {
  RcdpDependencyGraph graph;
  RELCOMP_ASSIGN_OR_RETURN(UnionQuery ucq,
                           query.ToUnion(max_union_disjuncts));
  graph.disjunct_relations.reserve(ucq.disjuncts().size());
  for (const ConjunctiveQuery& cq : ucq.disjuncts()) {
    CompiledCq compiled(cq);
    graph.disjunct_relations.push_back(compiled.body_relations());
  }
  graph.constraint_deps.reserve(constraints.constraints().size());
  for (const ContainmentConstraint& cc : constraints.constraints()) {
    ConstraintDeps dep;
    dep.empty_target = cc.has_empty_target();
    if (!dep.empty_target) dep.master_relation = cc.master_relation();
    RELCOMP_ASSIGN_OR_RETURN(UnionQuery cc_ucq,
                             cc.query().ToUnion(max_union_disjuncts));
    std::set<std::string> rels;
    for (const ConjunctiveQuery& cq : cc_ucq.disjuncts()) {
      CompiledCq compiled(cq);
      rels.insert(compiled.body_relations().begin(),
                  compiled.body_relations().end());
    }
    dep.body_relations.assign(rels.begin(), rels.end());
    graph.constraint_deps.push_back(std::move(dep));
  }
  return graph;
}

std::string RcdpDependencyGraph::ToString() const {
  auto join = [](const std::vector<std::string>& names) {
    std::string out = "{";
    for (size_t i = 0; i < names.size(); ++i) {
      if (i > 0) out.push_back(',');
      out += names[i];
    }
    out.push_back('}');
    return out;
  };
  std::string out = "Q:";
  for (size_t i = 0; i < disjunct_relations.size(); ++i) {
    out += StrCat(" d", i, "->", join(disjunct_relations[i]));
  }
  out += "; V:";
  for (size_t i = 0; i < constraint_deps.size(); ++i) {
    const ConstraintDeps& dep = constraint_deps[i];
    out += StrCat(" cc", i, " ", join(dep.body_relations), " -> ",
                  dep.empty_target ? "(empty)" : dep.master_relation);
  }
  return out;
}

/// --- Certificates ---------------------------------------------------

std::string RcdpCertificate::Serialize() const {
  std::string out = StrCat("relcomp-cert/1 ", instance_fp, " ", adom_fp, " ",
                           answer_fp, " ", options_fp, " ", num_disjuncts,
                           " ", std::string(1, VerdictCode(verdict)));
  if (verdict == Verdict::kIncomplete) {
    out += StrCat(" ", cex_disjunct, " ");
    if (cex_answer.has_value()) {
      out.push_back('A');
      out.push_back(' ');
      PutTuple(&out, *cex_answer);
    } else {
      out.push_back('-');
    }
    out += StrCat(" ", cex_delta.size());
    for (const auto& [relation, tuple] : cex_delta) {
      out.push_back(' ');
      PutStr(&out, relation);
      out.push_back(' ');
      PutTuple(&out, tuple);
    }
  } else if (verdict == Verdict::kUnknown && checkpoint.has_value()) {
    out.push_back(' ');
    PutStr(&out, checkpoint->Serialize());
  }
  return out;
}

Result<RcdpCertificate> RcdpCertificate::Deserialize(std::string_view text) {
  constexpr std::string_view kMagic = "relcomp-cert/1 ";
  if (text.substr(0, kMagic.size()) != kMagic) {
    return CertReader::Malformed("bad magic");
  }
  CertReader r(text.substr(kMagic.size()));
  RcdpCertificate cert;
  RELCOMP_ASSIGN_OR_RETURN(cert.instance_fp, r.ReadU64());
  RELCOMP_RETURN_NOT_OK(r.Expect(' '));
  RELCOMP_ASSIGN_OR_RETURN(cert.adom_fp, r.ReadU64());
  RELCOMP_RETURN_NOT_OK(r.Expect(' '));
  RELCOMP_ASSIGN_OR_RETURN(cert.answer_fp, r.ReadU64());
  RELCOMP_RETURN_NOT_OK(r.Expect(' '));
  RELCOMP_ASSIGN_OR_RETURN(cert.options_fp, r.ReadU64());
  RELCOMP_RETURN_NOT_OK(r.Expect(' '));
  RELCOMP_ASSIGN_OR_RETURN(uint64_t n, r.ReadU64());
  if (n > 1u << 20) return CertReader::Malformed("disjunct count too large");
  cert.num_disjuncts = n;
  RELCOMP_RETURN_NOT_OK(r.Expect(' '));
  RELCOMP_ASSIGN_OR_RETURN(char code, r.ReadChar());
  switch (code) {
    case 'C': {
      cert.verdict = Verdict::kComplete;
      RELCOMP_RETURN_NOT_OK(r.ExpectEnd());
      return cert;
    }
    case 'I': {
      cert.verdict = Verdict::kIncomplete;
      RELCOMP_RETURN_NOT_OK(r.Expect(' '));
      RELCOMP_ASSIGN_OR_RETURN(uint64_t cex, r.ReadU64());
      if (cex >= n) {
        return CertReader::Malformed(
            "counterexample disjunct out of range");
      }
      cert.cex_disjunct = cex;
      RELCOMP_RETURN_NOT_OK(r.Expect(' '));
      RELCOMP_ASSIGN_OR_RETURN(char answer_tag, r.ReadChar());
      if (answer_tag == 'A') {
        RELCOMP_RETURN_NOT_OK(r.Expect(' '));
        RELCOMP_ASSIGN_OR_RETURN(Tuple answer, r.ReadTuple());
        cert.cex_answer = std::move(answer);
      } else if (answer_tag != '-') {
        return CertReader::Malformed("bad answer tag");
      }
      RELCOMP_RETURN_NOT_OK(r.Expect(' '));
      RELCOMP_ASSIGN_OR_RETURN(uint64_t count, r.ReadU64());
      if (count > 1u << 20) {
        return CertReader::Malformed("delta size implausibly large");
      }
      cert.cex_delta.reserve(count);
      for (uint64_t i = 0; i < count; ++i) {
        RELCOMP_RETURN_NOT_OK(r.Expect(' '));
        RELCOMP_ASSIGN_OR_RETURN(std::string_view relation, r.ReadStr());
        RELCOMP_RETURN_NOT_OK(r.Expect(' '));
        RELCOMP_ASSIGN_OR_RETURN(Tuple tuple, r.ReadTuple());
        cert.cex_delta.emplace_back(std::string(relation),
                                    std::move(tuple));
      }
      RELCOMP_RETURN_NOT_OK(r.ExpectEnd());
      return cert;
    }
    case 'U': {
      cert.verdict = Verdict::kUnknown;
      RELCOMP_RETURN_NOT_OK(r.Expect(' '));
      RELCOMP_ASSIGN_OR_RETURN(std::string_view serialized, r.ReadStr());
      RELCOMP_ASSIGN_OR_RETURN(SearchCheckpoint ckpt,
                               SearchCheckpoint::Deserialize(serialized));
      cert.checkpoint = std::move(ckpt);
      RELCOMP_RETURN_NOT_OK(r.ExpectEnd());
      return cert;
    }
    default:
      return CertReader::Malformed("unknown verdict code");
  }
}

bool RcdpCertificate::operator==(const RcdpCertificate& other) const {
  return Serialize() == other.Serialize();
}

std::string RcdpCertificate::ToString() const { return Serialize(); }

/// --- Certify / Recertify --------------------------------------------

namespace {

Result<InstanceFps> ComputeFps(const AnyQuery& query, const UnionQuery& ucq,
                               const Database& db, const Database& master,
                               const ConstraintSet& constraints,
                               const RcdpOptions& options) {
  InstanceFps fps;
  fps.instance = FingerprintRcdpInstance(query, db, master, constraints);
  fps.adom = FingerprintAdomBase(ucq, db, master, constraints);
  ConjunctiveEvalOptions eval;
  eval.use_indexes = options.use_indexes;
  RELCOMP_ASSIGN_OR_RETURN(Relation answer, EvalUnion(ucq, db, eval));
  fps.answer = FingerprintAnswer(answer);
  fps.options = FingerprintRcdpOptions(options);
  return fps;
}

}  // namespace

Result<RcdpCertified> CertifyRcdp(const AnyQuery& query, const Database& db,
                                  const Database& master,
                                  const ConstraintSet& constraints,
                                  const RcdpOptions& options) {
  RELCOMP_ASSIGN_OR_RETURN(RcdpResult result,
                           DecideRcdp(query, db, master, constraints,
                                      options));
  RELCOMP_ASSIGN_OR_RETURN(UnionQuery ucq,
                           query.ToUnion(options.max_union_disjuncts));
  RELCOMP_ASSIGN_OR_RETURN(
      InstanceFps fps, ComputeFps(query, ucq, db, master, constraints,
                                  options));
  RELCOMP_ASSIGN_OR_RETURN(
      RcdpCertificate cert,
      AssembleCertificate(fps, ucq.disjuncts().size(), result, db));
  return RcdpCertified{std::move(result), std::move(cert)};
}

Result<RcdpCertified> RecertifyRcdp(const AnyQuery& query, const Database& db,
                                    const Database& master,
                                    const ConstraintSet& constraints,
                                    const RcdpCertificate& certificate,
                                    const DeltaApplyReport& report,
                                    const RcdpOptions& options) {
  RELCOMP_RETURN_NOT_OK(GateLanguages(query, constraints));
  RELCOMP_RETURN_NOT_OK(query.Validate(db.schema()));
  RELCOMP_RETURN_NOT_OK(constraints.Validate(db.schema(), master.schema()));

  // A certificate proves statements about one (options, instance)
  // pair; if the semantic options moved, nothing transfers.
  if (FingerprintRcdpOptions(options) != certificate.options_fp) {
    return CertifyRcdp(query, db, master, constraints, options);
  }

  RELCOMP_ASSIGN_OR_RETURN(UnionQuery ucq,
                           query.ToUnion(options.max_union_disjuncts));
  const size_t n = ucq.disjuncts().size();
  if (n != certificate.num_disjuncts) {
    return CertifyRcdp(query, db, master, constraints, options);
  }

  RELCOMP_ASSIGN_OR_RETURN(
      RcdpDependencyGraph graph,
      RcdpDependencyGraph::Build(query, constraints,
                                 options.max_union_disjuncts));

  InstanceFps fps;
  fps.options = certificate.options_fp;
  fps.instance = FingerprintRcdpInstance(query, db, master, constraints);
  const bool content_identical = fps.instance == certificate.instance_fp;

  std::vector<uint8_t> dirty(n, 0);
  if (content_identical) {
    // The post-update content equals the certified content (e.g. the
    // batch canceled itself out, or the report is an empty resume
    // request): closure held then, every per-disjunct statement still
    // holds, and the expensive fingerprints carry over unchanged.
    fps.adom = certificate.adom_fp;
    fps.answer = certificate.answer_fp;
  } else {
    // Targeted closure recheck. The constraint languages are monotone,
    // so (D, Dm) |= V can only newly fail where a CC body gained
    // potential matches (a D-relation it reads took an insert) or its
    // target projection lost tuples (a Dm-delete on its master
    // relation); D-deletes and Dm-inserts never break closure.
    for (size_t c = 0; c < graph.constraint_deps.size(); ++c) {
      const RcdpDependencyGraph::ConstraintDeps& dep =
          graph.constraint_deps[c];
      bool risky = Intersects(dep.body_relations, report.db_inserted);
      if (!risky && !dep.empty_target &&
          report.master_deleted.count(dep.master_relation) > 0) {
        risky = true;
      }
      if (!risky) continue;
      RELCOMP_ASSIGN_OR_RETURN(
          bool ok,
          CheckConstraint(constraints.constraints()[c], db, master));
      if (!ok) {
        return Status::InvalidArgument(
            "D is not partially closed: (D, Dm) does not satisfy V");
      }
    }

    fps.adom = FingerprintAdomBase(ucq, db, master, constraints);
    ConjunctiveEvalOptions eval;
    eval.use_indexes = options.use_indexes;
    RELCOMP_ASSIGN_OR_RETURN(Relation answer, EvalUnion(ucq, db, eval));
    fps.answer = FingerprintAnswer(answer);

    std::set<std::string> changed_db = report.db_inserted;
    changed_db.insert(report.db_deleted.begin(), report.db_deleted.end());
    std::set<std::string> changed_dm = report.master_inserted;
    changed_dm.insert(report.master_deleted.begin(),
                      report.master_deleted.end());

    // Global invalidation: a moved active domain changes every
    // disjunct's candidate lists; a moved answer changes the
    // "new answer gained" test everywhere; a touched constraint body
    // or target changes what extensions are admissible everywhere.
    bool global_dirty =
        fps.adom != certificate.adom_fp ||
        fps.answer != certificate.answer_fp;
    for (size_t c = 0; !global_dirty && c < graph.constraint_deps.size();
         ++c) {
      const RcdpDependencyGraph::ConstraintDeps& dep =
          graph.constraint_deps[c];
      if (Intersects(dep.body_relations, changed_db) ||
          (!dep.empty_target &&
           changed_dm.count(dep.master_relation) > 0)) {
        global_dirty = true;
      }
    }
    if (global_dirty) {
      RcdpOptions full = options;
      full.plan = nullptr;
      full.resume = nullptr;
      // The targeted recheck above is exact, so the from-scratch run
      // can skip its full closure pass.
      full.assume_partially_closed = true;
      return CertifyRcdp(query, db, master, constraints, full);
    }

    for (size_t i = 0; i < n; ++i) {
      dirty[i] = Intersects(graph.disjunct_relations[i], changed_db) ? 1 : 0;
    }
  }

  RcdpOptions planned = options;
  planned.resume = nullptr;
  planned.assume_partially_closed = true;
  RcdpDisjunctPlan plan;
  plan.skip.assign(n, 0);
  planned.plan = &plan;

  auto run_planned = [&]() -> Result<RcdpCertified> {
    RELCOMP_ASSIGN_OR_RETURN(
        RcdpResult result,
        DecideRcdp(query, db, master, constraints, planned));
    RELCOMP_ASSIGN_OR_RETURN(RcdpCertificate cert,
                             AssembleCertificate(fps, n, result, db));
    return RcdpCertified{std::move(result), std::move(cert)};
  };

  switch (certificate.verdict) {
    case Verdict::kComplete: {
      bool any_dirty = false;
      for (size_t i = 0; i < n; ++i) {
        plan.skip[i] = dirty[i] ? 0 : 1;
        any_dirty = any_dirty || dirty[i] != 0;
      }
      if (!any_dirty) {
        // Every disjunct certified counterexample-free and untouched:
        // the verdict re-serves with zero search.
        RcdpResult result;
        result.verdict = Verdict::kComplete;
        result.complete = true;
        RELCOMP_ASSIGN_OR_RETURN(RcdpCertificate cert,
                                 AssembleCertificate(fps, n, result, db));
        return RcdpCertified{std::move(result), std::move(cert)};
      }
      return run_planned();
    }

    case Verdict::kIncomplete: {
      const size_t cex = certificate.cex_disjunct;
      if (cex >= n) {
        return CertifyRcdp(query, db, master, constraints, options);
      }
      bool dirty_before = false;
      for (size_t i = 0; i < cex; ++i) {
        plan.skip[i] = dirty[i] ? 0 : 1;
        dirty_before = dirty_before || dirty[i] != 0;
      }
      if (!dirty[cex] && !dirty_before) {
        // The counterexample's disjunct and everything searched before
        // it are untouched: the stored evidence is still the first
        // counterexample a from-scratch run would find.
        RELCOMP_ASSIGN_OR_RETURN(RcdpResult result,
                                 ServeIncomplete(certificate, db));
        RELCOMP_ASSIGN_OR_RETURN(RcdpCertificate cert,
                                 AssembleCertificate(fps, n, result, db));
        return RcdpCertified{std::move(result), std::move(cert)};
      }
      if (!dirty[cex]) {
        // Only disjuncts before the counterexample moved: search just
        // those. An earlier counterexample (or exhaustion) among them
        // takes precedence; otherwise the stored evidence stands.
        for (size_t i = cex; i < n; ++i) plan.skip[i] = 1;
        RELCOMP_ASSIGN_OR_RETURN(
            RcdpResult result,
            DecideRcdp(query, db, master, constraints, planned));
        if (result.verdict == Verdict::kComplete) {
          RELCOMP_ASSIGN_OR_RETURN(RcdpResult served,
                                   ServeIncomplete(certificate, db));
          served.stats = result.stats;
          RELCOMP_ASSIGN_OR_RETURN(RcdpCertificate cert,
                                   AssembleCertificate(fps, n, served, db));
          return RcdpCertified{std::move(served), std::move(cert)};
        }
        RELCOMP_ASSIGN_OR_RETURN(RcdpCertificate cert,
                                 AssembleCertificate(fps, n, result, db));
        return RcdpCertified{std::move(result), std::move(cert)};
      }
      // The counterexample's own disjunct moved: re-run it and, since
      // the original search stopped there, everything after it too.
      return run_planned();
    }

    case Verdict::kUnknown: {
      if (!certificate.checkpoint.has_value() ||
          certificate.checkpoint->decider != "rcdp" ||
          certificate.checkpoint->disjunct >= n) {
        return CertifyRcdp(query, db, master, constraints, options);
      }
      const size_t frontier = certificate.checkpoint->disjunct;
      for (size_t i = 0; i < frontier; ++i) {
        plan.skip[i] = dirty[i] ? 0 : 1;
      }
      if (!dirty[frontier]) {
        // The interrupted disjunct is untouched: every rank below the
        // checkpoint is still certified counterexample-free, so the
        // search resumes exactly where it stopped.
        plan.resume_rank_disjunct = frontier;
        plan.resume_rank = certificate.checkpoint->rank;
      }
      return run_planned();
    }
  }
  return Status::Internal("unhandled certificate verdict");
}

}  // namespace relcomp
