#ifndef RELCOMP_SERVICE_VERDICT_CACHE_H_
#define RELCOMP_SERVICE_VERDICT_CACHE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "completeness/rcdp.h"
#include "service/checkpoint_store.h"
#include "util/status.h"

namespace relcomp {

/// A cached decided verdict: what the DecisionService would have
/// answered for the fingerprinted instance, without re-running the
/// search.
struct CachedVerdict {
  Verdict verdict = Verdict::kComplete;
  std::string evidence;
};

/// Cache counters, snapshot under the cache mutex.
struct VerdictCacheStats {
  size_t hits = 0;
  size_t misses = 0;
  size_t insertions = 0;
  /// Store entries whose embedded fingerprint disagreed with the
  /// requested key — a corrupted or mis-keyed record, refused and
  /// counted, never served.
  size_t rejections = 0;
};

/// Fingerprint-keyed verdict cache over an optional CheckpointStore.
///
/// Keys are the strong content fingerprints of FingerprintRcdpInstance
/// (see completeness/incremental.h): equal fingerprint ⇒ equal
/// (Q, V, D, Dm) content ⇒ equal verdict and evidence, at any thread
/// count — so the key deliberately excludes num_threads. Only decided
/// verdicts (kComplete / kIncomplete) are cached; kUnknown depends on
/// the budget that produced it, not the instance.
///
/// Entries are durable `<key>.vrd` records in the backing store, so
/// cached verdicts survive restarts and are re-served by a recovered
/// DecisionService without any search. Entries are never removed: a
/// delta changes the instance's fingerprint, so the old entry goes
/// unused rather than wrong. Every entry embeds its own fingerprint; a store record
/// whose embedded fingerprint disagrees with the key it was loaded
/// under is rejected (stats().rejections), never served.
///
/// Thread safety: all methods are safe to call concurrently.
class VerdictCache {
 public:
  /// `store` may be null (memory-only cache) and is not owned; it must
  /// outlive the cache.
  explicit VerdictCache(CheckpointStore* store = nullptr);

  /// The store key for a fingerprint: "v" + 16 hex digits.
  static std::string KeyFor(uint64_t fingerprint);

  /// The relcomp-verdict/1 store record, and its decoder: anything else,
  /// or a record whose embedded fingerprint is not `fingerprint`, is
  /// refused with kInvalidArgument and never served.
  static std::string EncodeRecord(uint64_t fingerprint,
                                  const CachedVerdict& cached);
  static Result<CachedVerdict> DecodeRecord(std::string_view record,
                                            uint64_t fingerprint);

  /// Serves the cached verdict for the fingerprint, consulting the
  /// in-memory map first and the backing store second. std::nullopt on
  /// miss (or on a rejected store entry).
  std::optional<CachedVerdict> Lookup(uint64_t fingerprint);

  /// Caches a decided verdict. kUnknown is refused with
  /// kInvalidArgument. With a backing store the entry is durably
  /// persisted; a store write failure leaves the cache unchanged.
  Status Insert(uint64_t fingerprint, Verdict verdict,
                const std::string& evidence);

  VerdictCacheStats stats() const;

 private:
  CheckpointStore* store_;
  mutable std::mutex mu_;
  std::map<uint64_t, CachedVerdict> entries_;
  VerdictCacheStats stats_;
};

}  // namespace relcomp

#endif  // RELCOMP_SERVICE_VERDICT_CACHE_H_
