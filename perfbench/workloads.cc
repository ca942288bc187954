#include "workloads.h"

#include <cstdio>

#include "util/str.h"

namespace perfbench {

using relcomp::JobKind;
using relcomp::StrCat;
using relcomp::Verdict;

namespace {

/// Size of one CRM-family instance (the paper's running example).
struct CrmShape {
  size_t domestic = 16;       ///< DCust customers c0..c{n-1}
  size_t international = 8;   ///< Cust-only customers x0..
  size_t employees = 2;       ///< e0..e{m-1}
  size_t support_each = 2;    ///< Supt tuples per employee (round robin)
  size_t manage_chain = 3;    ///< Managem / Manage chain length
};

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Example 2.1's φ0: supported domestic customers are bounded by DCust.
constexpr const char* kPhi0 =
    "constraint q0(c) :- Cust(c, n, cc, a, p), Supt(e, d, c), cc = \"01\" "
    "|= DCust[0]\n";
// The management graph cannot grow beyond the master hierarchy.
constexpr const char* kManageInd =
    "constraint qm(x, y) :- Manage(x, y) |= Managem[0, 1]\n";
// The IND form of φ0 used by Prop 4.3 (Tables I/II, IND rows).
constexpr const char* kSuptInd =
    "constraint qs(c) :- Supt(e, d, c) |= DCust[0]\n";

constexpr const char* kQ1 =
    "query cq Q1(c) :- Cust(c, n, cc, a, p), Supt(e, d, c), a = \"908\", "
    "cc = \"01\", e = \"e0\"\n";
constexpr const char* kQ2 = "query cq Q2(c) :- Supt(e, d, c), e = \"e0\"\n";
constexpr const char* kQ3 = "query cq Q3(x) :- Manage(x, y), y = \"e0\"\n";

bool Is908(size_t i) { return i % 2 == 0; }

/// Customer indexes employee `e` supports (the CrmScenario round robin).
std::vector<size_t> Supported(const CrmShape& shape, size_t e) {
  std::vector<size_t> out;
  if (shape.domestic == 0) return out;
  for (size_t j = 0; j < shape.support_each; ++j) {
    out.push_back((e * shape.support_each + j) % shape.domestic);
  }
  return out;
}

CrmShape FreshShape(int scale) {
  CrmShape s;
  if (scale == 0) {
    s.domestic = 2;
    s.international = 0;
    s.manage_chain = 0;
  }
  return s;
}

CrmShape RepeatShape(int scale) {
  CrmShape s;
  if (scale == 0) {
    s.domestic = 1;
    s.international = 0;
    s.employees = 1;
    s.support_each = 1;
    s.manage_chain = 2;
    return s;
  }
  s.domestic = 420;
  s.international = 120;
  s.employees = 40;
  s.support_each = 4;
  s.manage_chain = 40;
  return s;
}

CrmShape MasterShape(int scale) {
  CrmShape s;
  s.domestic = scale == 0 ? 1 : 32;
  s.international = scale == 0 ? 0 : 8;
  s.manage_chain = scale == 0 ? 0 : 3;
  return s;
}

std::string Quoted(const std::string& s) { return StrCat("\"", s, "\""); }

/// CRM-family spec text with every customer-side string prefixed by
/// `salt` (a fixed-length prefix keeps the value order, and so the
/// search cost, the same for every salt).
std::string CrmSpecText(const CrmShape& shape, const std::string& salt,
                        const std::string& constraints,
                        const std::string& query) {
  std::string out =
      "relation Cust(cid, name, cc, ac, phn)\n"
      "relation Supt(eid, dept, cid)\n"
      "relation Manage(eid1, eid2)\n"
      "master relation DCust(cid, name, ac, phn)\n"
      "master relation Managem(eid1, eid2)\n";
  auto cid = [&](size_t i) { return Quoted(StrCat(salt, "c", i)); };
  auto name = [&](size_t i) { return Quoted(StrCat(salt, "n", i)); };
  auto phone = [&](size_t i) { return Quoted(StrCat(salt, "555-", 1000 + i)); };
  for (size_t i = 0; i < shape.domestic; ++i) {
    out += StrCat("master fact DCust(", cid(i), ", ", name(i), ", \"",
                  Is908(i) ? "908" : "201", "\", ", phone(i), ")\n");
  }
  for (size_t i = 0; i + 1 < shape.manage_chain; ++i) {
    out += StrCat("master fact Managem(\"e", i + 1, "\", \"e", i, "\")\n");
  }
  for (size_t i = 0; i < shape.domestic; ++i) {
    out += StrCat("fact Cust(", cid(i), ", ", name(i), ", \"01\", \"",
                  Is908(i) ? "908" : "201", "\", ", phone(i), ")\n");
  }
  for (size_t i = 0; i < shape.international; ++i) {
    out += StrCat("fact Cust(", Quoted(StrCat(salt, "x", i)), ", ",
                  Quoted(StrCat(salt, "xn", i)), ", \"44\", \"20\", ",
                  Quoted(StrCat(salt, "777-", 1000 + i)), ")\n");
  }
  for (size_t e = 0; e < shape.employees; ++e) {
    for (size_t c : Supported(shape, e)) {
      out += StrCat("fact Supt(\"e", e, "\", \"d", e % 2, "\", ", cid(c),
                    ")\n");
    }
  }
  for (size_t i = 0; i + 1 < shape.manage_chain; ++i) {
    out += StrCat("fact Manage(\"e", i + 1, "\", \"e", i, "\")\n");
  }
  return out + constraints + query;
}

}  // namespace

bool MatchesKnownAnswer(const Audit& audit, Verdict verdict,
                        const std::string& evidence) {
  if (verdict != audit.expected) return false;
  if (audit.accepted.empty()) return true;
  // RCDP evidence: verdict|delta|new answer; RCQP: verdict|exists|method|...
  const size_t first = evidence.find('|');
  const size_t second =
      first == std::string::npos ? first : evidence.find('|', first + 1);
  if (second == std::string::npos) return false;
  if (audit.job.kind == JobKind::kRcdp) {
    return audit.accepted.count(evidence.substr(second + 1)) > 0;
  }
  const size_t third = evidence.find('|', second + 1);
  if (third == std::string::npos) return false;
  return audit.accepted.count(
             evidence.substr(second + 1, third - second - 1)) > 0;
}

const std::vector<WorkloadConfig>& Workloads() {
  static const std::vector<WorkloadConfig> kWorkloads = [] {
    std::vector<WorkloadConfig> w(3);
    w[0].name = "fresh_audits";
    w[0].clients = 1;
    // Two, not four: with the server loop, the polling client and the
    // service worker also runnable, four search threads oversubscribe a
    // 4-vCPU host and run medians moved by up to 60% between runs.
    w[0].search_threads = 2;
    w[0].slice_steps = 50000;
    w[0].warmup_audits = 3;
    w[0].rss_audit_mark = 60;
    w[1].name = "repeat_audits";
    w[1].clients = 2;
    w[1].search_threads = 1;
    w[1].distinct_specs = 8;
    w[1].rss_audit_mark = 300;
    w[2].name = "master_design";
    w[2].clients = 1;
    w[2].search_threads = 1;
    w[2].warmup_audits = 10;
    w[2].rss_audit_mark = 300;
    return w;
  }();
  return kWorkloads;
}

const WorkloadConfig* FindWorkload(const std::string& name) {
  for (const WorkloadConfig& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

AuditSource::AuditSource(const WorkloadConfig& config, uint64_t seed,
                         int scale)
    : config_(config), seed_(seed), scale_(scale) {
  if (config_.name != "repeat_audits") return;
  const CrmShape shape = RepeatShape(scale_);
  const size_t count = scale_ == 0 ? 1 : config_.distinct_specs;
  for (size_t i = 0; i < count; ++i) {
    Audit a;
    a.job.kind = JobKind::kRcdp;
    // Salted from sequence indexes at 2^63 and up, which no audit uses.
    a.job.spec_text = CrmSpecText(shape, Salt((1ull << 63) + i),
                                  StrCat(kPhi0, kManageInd), kQ3);
    a.job.num_threads = config_.search_threads;
    // Complete by construction: D's Manage already holds every
    // Managem pair, and qm admits no other Manage tuple.
    a.expected = Verdict::kComplete;
    specs_.push_back(std::move(a));
  }
}

std::string AuditSource::Salt(uint64_t k) const {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "s%08llx-",
                static_cast<unsigned long long>(
                    SplitMix64(seed_ ^ SplitMix64(k)) & 0xffffffffull));
  return buf;
}

Audit AuditSource::Make(uint64_t k) const {
  Audit a;
  a.job.num_threads = config_.search_threads;
  a.job.slice_steps = config_.slice_steps;
  const std::string salt = Salt(k);
  if (config_.name == "fresh_audits") {
    const CrmShape shape = FreshShape(scale_);
    a.job.kind = JobKind::kRcdp;
    a.job.spec_text = CrmSpecText(shape, salt, kPhi0, kQ1);
    // Q1(D) holds the 908 customers e0 supports. Any other DCust
    // customer c can be added as an answer (a Cust(c, .., "01", "908",
    // ..) tuple plus Supt(e0, .., c) where missing) without breaking
    // φ0, and no non-DCust customer can: D is incomplete exactly when
    // DCust has a customer outside Q1(D), and that customer is the new
    // answer.
    std::set<size_t> answers;
    for (size_t c : Supported(shape, 0)) {
      if (Is908(c)) answers.insert(c);
    }
    for (size_t i = 0; i < shape.domestic; ++i) {
      if (answers.count(i) == 0) {
        a.accepted.insert(StrCat("(\"", salt, "c", i, "\")"));
      }
    }
    a.expected = a.accepted.empty() ? Verdict::kComplete : Verdict::kIncomplete;
    return a;
  }
  if (config_.name == "repeat_audits") {
    const uint64_t pick = SplitMix64(seed_ + k) % specs_.size();
    a = specs_[pick];
    return a;
  }
  // master_design. Prop 4.3: Q2's only head variable c is IND-bounded
  // (Supt[cid] ⊆ DCust[cid]), so a complete database exists.
  a.job.kind = JobKind::kRcqp;
  a.job.spec_text = CrmSpecText(MasterShape(scale_), salt,
                                StrCat(kSuptInd, kManageInd), kQ2);
  a.expected = Verdict::kComplete;
  a.accepted = {"ind-syntactic"};
  return a;
}

}  // namespace perfbench
