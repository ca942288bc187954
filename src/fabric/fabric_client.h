#ifndef RELCOMP_FABRIC_FABRIC_CLIENT_H_
#define RELCOMP_FABRIC_FABRIC_CLIENT_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "fabric/ring.h"
#include "net/client.h"
#include "util/status.h"

namespace relcomp {

/// Fabric client tuning.
struct FabricClientOptions {
  /// Per-endpoint transport tuning. The fabric default trims the
  /// per-endpoint retry budget to 1: retrying a dead endpoint is the
  /// FabricClient's job, against the NEXT candidate, not the same
  /// socket eight more times.
  NetClientOptions endpoint_options{.max_retries = 1};
  /// Overall wall-clock bound on one routed operation (Submit / Poll /
  /// Cancel), across every candidate sweep, ring refresh, and pause.
  /// kDeadlineExceeded once it elapses.
  std::chrono::milliseconds op_deadline{30000};
  /// Pause between full candidate sweeps (every candidate refused or
  /// unreachable — typically the window between a member dying and a
  /// peer adopting its shard). The actual sleep is drawn uniformly
  /// from [retry_pause/2, retry_pause] — mirroring NetClient's backoff
  /// jitter, so a crowd of clients orphaned by the same member death
  /// does not re-sweep the fabric in lockstep.
  std::chrono::milliseconds retry_pause{10};
  /// Jitter PRNG seed (fixed default keeps tests deterministic).
  uint64_t jitter_seed = 0x9e3779b97f4a7c15ull;
};

/// Observability counters; monotonic for the client's lifetime.
struct FabricClientStats {
  size_t routed_calls = 0;    ///< operations attempted through the ring
  size_t ring_refreshes = 0;  ///< ring fetch sweeps performed
  size_t failovers = 0;       ///< candidate advances after a refusal
};

/// Routing client for the sharded decision fabric.
///
/// Holds a FabricRing (bootstrapped from any reachable seed endpoint —
/// a standalone NetServer answers with a singleton ring, so the same
/// client drives both shapes) and routes every keyed operation to the
/// shard owner. On a refusal or connection loss it walks the remaining
/// live candidates in order, then re-fetches the ring — an adoption
/// bumps the epoch, and highest-epoch-wins re-resolves placement — and
/// sweeps again until the operation lands or its deadline lapses.
///
/// AwaitTerminal therefore spans not just server restarts (the PR 5
/// client's contract) but server LOSS: SIGKILL the owner mid-job, let
/// any peer adopt the shard, and the same poll loop converges on the
/// adopter and returns the bit-for-bit verdict its recovery produced.
///
/// Not thread-safe: one FabricClient per thread.
class FabricClient {
 public:
  explicit FabricClient(std::vector<std::string> seed_endpoints,
                        FabricClientOptions options = FabricClientOptions());

  /// Submits `spec` under `key` to the shard owner (same idempotency
  /// contract as NetClient::Submit).
  Status Submit(const std::string& key, const JobSpec& spec);

  /// Non-blocking state probe for `key`, routed to the shard owner.
  Result<WireReply> Poll(const std::string& key);

  /// Cooperative cancellation of `key`, routed to the shard owner.
  Status Cancel(const std::string& key);

  /// Polls `key` until terminal, surviving owner loss and shard
  /// handoff; kDeadlineExceeded once `limit` elapses. kNotFound is
  /// terminal here — see SubmitAndAwait for the self-healing variant.
  Result<WireReply> AwaitTerminal(
      const std::string& key,
      std::chrono::milliseconds poll_interval = std::chrono::milliseconds(5),
      std::chrono::milliseconds limit = std::chrono::milliseconds(60000));

  /// Submit, then the same await loop, self-healing: a kNotFound poll
  /// (the job was terminal and is gone before the verdict was read — a
  /// restart can land in exactly that window, and a verdict-cache hit
  /// never had a job record) resubmits under the same idempotency key
  /// and keeps waiting. Determinism + the durable verdict cache make
  /// the answer bit-for-bit either way. A submit reply that already
  /// carries the terminal state (a verdict-cache hit, or a duplicate
  /// of a finished job) is returned as it is, with no poll: a hit costs
  /// one routed request.
  Result<WireReply> SubmitAndAwait(
      const std::string& key, const JobSpec& spec,
      std::chrono::milliseconds poll_interval = std::chrono::milliseconds(5),
      std::chrono::milliseconds limit = std::chrono::milliseconds(60000));

  /// Fetches the ring from every reachable known endpoint, keeping the
  /// highest epoch seen. OK if at least one endpoint answered.
  Status RefreshRing();

  /// Asks shard `shard`'s current owner to hand it off to `successor`
  /// via the planned-handoff protocol, then refreshes the ring so this
  /// client routes by the successor's re-publish. Unlike the keyed
  /// ops this targets the owner endpoint directly — a handoff is an
  /// instruction to a specific member, not a routable request.
  /// kUnavailable when the ring records no live owner for the shard.
  Status HandoffShard(size_t shard, const std::string& successor);

  /// Asks the member at `adopter` to adopt `shard` (the orphan-repair
  /// counterpart of HandoffShard — used for shards whose owner died
  /// without handing off), then refreshes the ring.
  Status AdoptShard(size_t shard, const std::string& adopter);

  /// Fetches the relcomp-health/1 report from every reachable known
  /// endpoint, in sweep order; an unreachable member's report is a
  /// one-line "unreachable: ..." explanation. Updates the steering
  /// table as a side effect (`relcheck --health` prints this).
  std::vector<std::pair<std::string, std::string>> FleetHealth();

  /// The next inter-sweep pause CallRouted will sleep (consumes one
  /// draw from the jitter PRNG): uniform in [retry_pause/2,
  /// retry_pause]. Public so tests can pin the deterministic sequence.
  std::chrono::milliseconds NextRetryPause();

  /// The ring the client currently routes by (default-constructed
  /// until the first successful RefreshRing).
  const FabricRing& ring() const { return ring_; }
  bool has_ring() const { return have_ring_; }

  const FabricClientStats& stats() const { return stats_; }

 private:
  /// Routes one keyed request: candidate sweep, ring refresh, repeat
  /// until a non-kUnavailable answer or the op deadline.
  Result<WireReply> CallRouted(const WireRequest& request);
  /// Routes a kSubmit of `spec` under `key`; the reply as it came.
  Result<WireReply> CallSubmit(const std::string& key, const JobSpec& spec);
  /// The one await loop: polls `key` until terminal, waiting through
  /// anything retryable, and resubmits `*spec` on kNotFound when the
  /// caller holds the spec (non-null).
  Result<WireReply> Await(const std::string& key, const JobSpec* spec,
                          std::chrono::milliseconds poll_interval,
                          std::chrono::milliseconds limit);
  /// The per-endpoint client (created on first use).
  NetClient* ClientFor(const std::string& endpoint);
  /// Try order for `shard`: owner, other live ring endpoints, seeds.
  std::vector<std::string> CandidatesFor(size_t shard) const;
  /// Every endpoint worth asking for a ring: ring endpoints ∪ seeds.
  std::vector<std::string> KnownEndpoints() const;

  std::vector<std::string> seeds_;
  FabricClientOptions options_;
  FabricRing ring_;
  bool have_ring_ = false;
  /// Last-seen health-state token per endpoint (from the ring-refresh
  /// piggyback or FleetHealth). CandidatesFor tries members last seen
  /// healthy (or never probed) before degraded/read-only/down ones.
  std::map<std::string, std::string> endpoint_health_;
  std::map<std::string, std::unique_ptr<NetClient>> clients_;
  FabricClientStats stats_;
  std::mt19937_64 jitter_;
};

}  // namespace relcomp

#endif  // RELCOMP_FABRIC_FABRIC_CLIENT_H_
