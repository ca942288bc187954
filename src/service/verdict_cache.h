#ifndef RELCOMP_SERVICE_VERDICT_CACHE_H_
#define RELCOMP_SERVICE_VERDICT_CACHE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "completeness/rcdp.h"
#include "service/checkpoint_store.h"
#include "util/blake2s.h"
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
  /// Lookups served, by fingerprint or from the request memo.
  size_t hits = 0;
  size_t misses = 0;
  size_t insertions = 0;
  /// Store entries whose embedded fingerprint disagreed with the
  /// requested key — a corrupted or mis-keyed record, refused and
  /// counted, never served.
  size_t rejections = 0;
  /// Hits served from the request memo, with no parse (a subset of
  /// hits).
  size_t request_hits = 0;
  /// Job records the request memo remembers now (a gauge, at most
  /// VerdictCache::kRequestMemoCap).
  size_t requests_remembered = 0;
};

/// Fingerprint-keyed verdict cache over an optional CheckpointStore.
///
/// Keys are the content fingerprints of FingerprintRcdpInstance (see
/// completeness/incremental.h): 64-bit truncations of BLAKE2s over the
/// instance (Q, V, D, Dm), equal for equal content at any thread count
/// — so the key deliberately excludes num_threads. A submitter needs
/// about 2^32 work to find two instances that share a key. Only decided
/// verdicts (kComplete / kIncomplete) are cached; kUnknown depends on
/// the budget that produced it, not the instance.
///
/// The request memo maps the digest of a job record (JobSpec::Digest,
/// BLAKE2s-256 of its bytes) to the fingerprint a parse of it resolved
/// to, so a byte-identical repeat is served with no parse. It is filled
/// only by a fingerprint hit, held in memory only (a restart empties
/// it), and cleared when it reaches kRequestMemoCap records: a
/// forgotten record costs one parse.
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

  /// The most job records the request memo holds.
  static constexpr size_t kRequestMemoCap = 1024;

  /// Serves the cached verdict for the fingerprint, consulting the
  /// in-memory map first and the backing store second. std::nullopt on
  /// miss (or on a rejected store entry). On a hit, a non-null
  /// `request` (the digest of the job record whose parse produced the
  /// fingerprint) is remembered in the request memo.
  std::optional<CachedVerdict> Lookup(uint64_t fingerprint,
                                      const Blake2sDigest* request = nullptr);

  /// Serves the verdict of a job record the request memo remembers,
  /// counted as a hit; std::nullopt, counted nowhere, otherwise.
  std::optional<CachedVerdict> LookupRequest(const Blake2sDigest& request);

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
  /// The request memo: job-record digest -> instance fingerprint.
  std::map<Blake2sDigest, uint64_t> requests_;
  VerdictCacheStats stats_;
};

}  // namespace relcomp

#endif  // RELCOMP_SERVICE_VERDICT_CACHE_H_
