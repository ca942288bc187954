#include "service/verdict_cache.h"

#include "util/codec.h"
#include "util/str.h"

namespace relcomp {
namespace {

constexpr char kMagic[] = "relcomp-verdict/1";
constexpr const char* kVerdictCodes[] = {"C", "I"};  // by Verdict value

}  // namespace

// Record format: relcomp-verdict/1 <fp hex16> <C|I> <len>:<evidence>

std::string VerdictCache::EncodeRecord(uint64_t fingerprint,
                                       const CachedVerdict& cached) {
  std::string out =
      StrCat(kMagic, " ", Hex(fingerprint, 16), " ",
             kVerdictCodes[cached.verdict == Verdict::kComplete ? 0 : 1], " ");
  AppendSized(cached.evidence, &out);
  return out;
}

Result<CachedVerdict> VerdictCache::DecodeRecord(std::string_view record,
                                                 uint64_t fingerprint) {
  CodecReader r(kMagic, record);
  CachedVerdict cached;
  RELCOMP_RETURN_NOT_OK(r.Magic(kMagic));
  RELCOMP_ASSIGN_OR_RETURN(const uint64_t fp, r.Hex(16));
  if (fp != fingerprint) return r.Malformed("fingerprint is not the key's");
  RELCOMP_RETURN_NOT_OK(r.Expect(" "));
  RELCOMP_ASSIGN_OR_RETURN(const size_t code, r.Token(kVerdictCodes));
  cached.verdict = static_cast<Verdict>(code);
  RELCOMP_ASSIGN_OR_RETURN(const std::string_view evidence, r.Sized());
  RELCOMP_RETURN_NOT_OK(r.End());
  cached.evidence = std::string(evidence);
  return cached;
}

VerdictCache::VerdictCache(CheckpointStore* store) : store_(store) {}

std::string VerdictCache::KeyFor(uint64_t fingerprint) {
  return StrCat("v", Hex(fingerprint, 16));
}

std::optional<CachedVerdict> VerdictCache::Lookup(
    uint64_t fingerprint, const Blake2sDigest* request) {
  std::lock_guard<std::mutex> lock(mu_);
  auto hit = [&](const CachedVerdict& cached) {
    ++stats_.hits;
    if (request != nullptr) {
      if (requests_.size() >= kRequestMemoCap) requests_.clear();
      requests_[*request] = fingerprint;
    }
    return cached;
  };
  auto it = entries_.find(fingerprint);
  if (it != entries_.end()) return hit(it->second);
  if (store_ != nullptr) {
    Result<std::string> payload = store_->LoadVerdict(KeyFor(fingerprint));
    if (payload.ok()) {
      Result<CachedVerdict> cached = DecodeRecord(*payload, fingerprint);
      if (cached.ok()) {
        return hit(entries_[fingerprint] = *std::move(cached));
      }
      // A record that fails to parse, or whose embedded fingerprint
      // disagrees with the key it was stored under, is never served.
      ++stats_.rejections;
    }
  }
  ++stats_.misses;
  return std::nullopt;
}

std::optional<CachedVerdict> VerdictCache::LookupRequest(
    const Blake2sDigest& request) {
  std::lock_guard<std::mutex> lock(mu_);
  // The memo names only fingerprints a hit resolved, and entries are
  // never removed, so a remembered record always finds its verdict.
  auto it = requests_.find(request);
  if (it == requests_.end()) return std::nullopt;
  ++stats_.hits;
  ++stats_.request_hits;
  return entries_.at(it->second);
}

Status VerdictCache::Insert(uint64_t fingerprint, Verdict verdict,
                            const std::string& evidence) {
  if (verdict == Verdict::kUnknown) {
    return Status::InvalidArgument(
        "verdict cache stores decided verdicts only; kUnknown reflects "
        "the budget, not the instance");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (store_ != nullptr) {
    RELCOMP_RETURN_NOT_OK(store_->PersistVerdict(
        KeyFor(fingerprint),
        EncodeRecord(fingerprint, CachedVerdict{verdict, evidence})));
  }
  entries_[fingerprint] = CachedVerdict{verdict, evidence};
  ++stats_.insertions;
  return Status::OK();
}

VerdictCacheStats VerdictCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  VerdictCacheStats stats = stats_;
  stats.requests_remembered = requests_.size();
  return stats;
}

}  // namespace relcomp
