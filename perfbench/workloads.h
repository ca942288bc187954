#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// Seeded audit generators for the three benchmark workloads. Every audit
// is a JobSpec (spec text in the relcheck .rcspec syntax) plus the
// verdict it must produce, known by construction.

#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "completeness/rcdp.h"
#include "service/decision_service.h"

namespace perfbench {

/// One audit: the job to submit and what its verdict must be.
struct Audit {
  relcomp::JobSpec job;
  relcomp::Verdict expected = relcomp::Verdict::kUnknown;
  /// RCDP incomplete: every acceptable new answer (Tuple::ToString).
  /// RCQP: the decider method expected in the evidence. Empty = only
  /// the verdict is checked.
  std::set<std::string> accepted;
};

/// Checks a terminal verdict and evidence string against the audit.
bool MatchesKnownAnswer(const Audit& audit, relcomp::Verdict verdict,
                        const std::string& evidence);

/// How a workload drives the server (BENCHMARK.json says why each
/// workload exists).
struct WorkloadConfig {
  std::string name;
  size_t clients = 1;
  size_t search_threads = 1;
  size_t slice_steps = 0;
  /// Untimed audits run at the end of set-up.
  size_t warmup_audits = 0;
  /// Distinct large specs decided in set-up (repeat_audits only).
  size_t distinct_specs = 0;
  /// The audit count at which peak RSS is read.
  size_t rss_audit_mark = 0;
};

/// The workloads, in BENCHMARK.json's order.
const std::vector<WorkloadConfig>& Workloads();
const WorkloadConfig* FindWorkload(const std::string& name);

/// Seeded audit source for one workload. Audit k of a seed is the same
/// on every run; `scale` shrinks instances for the known-answer test
/// (1 = benchmark size, 0 = smallest instance).
class AuditSource {
 public:
  AuditSource(const WorkloadConfig& config, uint64_t seed, int scale = 1);

  /// The k-th audit of the sequence (k counts from 0).
  Audit Make(uint64_t k) const;

  /// repeat_audits: the distinct specs timed audits draw from.
  size_t distinct_specs() const { return specs_.size(); }
  const Audit& spec(size_t i) const { return specs_[i]; }

 private:
  std::string Salt(uint64_t k) const;

  WorkloadConfig config_;
  uint64_t seed_;
  int scale_;
  std::vector<Audit> specs_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
