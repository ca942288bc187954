#include "fabric/fabric_client.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "util/str.h"

namespace relcomp {
namespace {

using Clock = std::chrono::steady_clock;

bool Contains(const std::vector<std::string>& list, const std::string& item) {
  return std::find(list.begin(), list.end(), item) != list.end();
}

/// Retryable against another candidate (or after a ring refresh):
/// transport loss, a typed refusal, or a per-endpoint deadline.
bool Retryable(StatusCode code) {
  return code == StatusCode::kUnavailable ||
         code == StatusCode::kDeadlineExceeded;
}

}  // namespace

FabricClient::FabricClient(std::vector<std::string> seed_endpoints,
                           FabricClientOptions options)
    : seeds_(std::move(seed_endpoints)),
      options_(options),
      jitter_(options.jitter_seed) {}

std::chrono::milliseconds FabricClient::NextRetryPause() {
  const int64_t pause = options_.retry_pause.count();
  if (pause <= 0) return std::chrono::milliseconds(0);
  std::uniform_int_distribution<int64_t> dist(pause - pause / 2, pause);
  return std::chrono::milliseconds(dist(jitter_));
}

NetClient* FabricClient::ClientFor(const std::string& endpoint) {
  auto it = clients_.find(endpoint);
  if (it == clients_.end()) {
    it = clients_
             .emplace(endpoint, std::make_unique<NetClient>(
                                    endpoint, options_.endpoint_options))
             .first;
  }
  return it->second.get();
}

std::vector<std::string> FabricClient::KnownEndpoints() const {
  std::vector<std::string> out;
  if (have_ring_) {
    for (const std::string& endpoint : ring_.endpoints) {
      if (!endpoint.empty() && !Contains(out, endpoint)) {
        out.push_back(endpoint);
      }
    }
  }
  for (const std::string& seed : seeds_) {
    if (!seed.empty() && !Contains(out, seed)) out.push_back(seed);
  }
  return out;
}

std::vector<std::string> FabricClient::CandidatesFor(size_t shard) const {
  std::vector<std::string> out;
  // The recorded owner first — the common, no-failure path. Then every
  // other live member (one of them may have adopted the shard since
  // our ring was fetched), then the seeds (a member the current ring
  // no longer names can still answer with a fresher ring's refusal).
  if (have_ring_ && shard < ring_.num_shards() &&
      !ring_.endpoints[shard].empty()) {
    out.push_back(ring_.endpoints[shard]);
  }
  for (const std::string& endpoint : KnownEndpoints()) {
    if (!Contains(out, endpoint)) out.push_back(endpoint);
  }
  // Steering: try members last seen healthy (or never probed) before
  // degraded/read-only/down ones. Sick members stay in the list — a
  // degraded member still answers polls and verdict-cache hits, and
  // this client's health view may be stale.
  std::stable_partition(out.begin(), out.end(), [&](const std::string& e) {
    auto it = endpoint_health_.find(e);
    return it == endpoint_health_.end() || it->second == "healthy";
  });
  return out;
}

Status FabricClient::RefreshRing() {
  ++stats_.ring_refreshes;
  Status last = Status::Unavailable("no fabric endpoint reachable");
  bool any = false;
  for (const std::string& endpoint : KnownEndpoints()) {
    NetClient* client = ClientFor(endpoint);
    Result<std::string> serialized = client->Ring();
    if (!serialized.ok()) {
      endpoint_health_[endpoint] = "down";
      last = serialized.status();
      continue;
    }
    // Steering data rides the same sweep: a member that answers its
    // ring answers its health too, and a degraded one sorts behind
    // healthy candidates until it heals.
    Result<std::string> health = client->Health();
    endpoint_health_[endpoint] =
        health.ok() ? std::string(HealthReportState(*health)) : "down";
    Result<FabricRing> ring = FabricRing::Deserialize(*serialized);
    if (!ring.ok()) {
      last = ring.status();
      continue;
    }
    // Highest epoch wins: a zombie or laggard can only present a
    // stale assignment, and stale loses by construction.
    if (!have_ring_ || ring->epoch > ring_.epoch ||
        (ring->epoch == ring_.epoch && !any)) {
      ring_ = *std::move(ring);
      have_ring_ = true;
    }
    any = true;
  }
  return any ? Status::OK() : last;
}

Result<WireReply> FabricClient::CallRouted(const WireRequest& request) {
  ++stats_.routed_calls;
  const bool bounded = options_.op_deadline.count() > 0;
  const Clock::time_point deadline = Clock::now() + options_.op_deadline;
  auto expired = [&] { return bounded && Clock::now() >= deadline; };
  Status last = Status::Unavailable("no fabric endpoint reachable");
  for (bool first_sweep = true;; first_sweep = false) {
    if (!have_ring_ || !first_sweep) {
      Status refreshed = RefreshRing();
      if (!refreshed.ok()) {
        last = refreshed;
        // An auth rejection is a configuration error, not an outage:
        // every re-sweep would present the same (missing or wrong)
        // key, so burning the op deadline on it helps nobody.
        if (refreshed.code() == StatusCode::kPermissionDenied) {
          return refreshed;
        }
      }
    }
    if (have_ring_) {
      const size_t shard = ring_.ShardForKey(request.key);
      for (const std::string& endpoint : CandidatesFor(shard)) {
        Result<WireReply> reply = ClientFor(endpoint)->Call(request);
        if (reply.ok() && !Retryable(reply->code)) return reply;
        last = reply.ok() ? reply->ToStatus() : reply.status();
        if (!reply.ok() && !Retryable(reply.status().code())) {
          return reply.status();
        }
        ++stats_.failovers;
        if (expired()) break;
      }
    }
    if (expired()) {
      return Status::DeadlineExceeded(
          StrCat("fabric op deadline (", options_.op_deadline.count(),
                 " ms) exceeded for key \"", request.key,
                 "\": ", last.message()));
    }
    std::this_thread::sleep_for(NextRetryPause());
  }
}

Status FabricClient::HandoffShard(size_t shard, const std::string& successor) {
  if (!have_ring_) RELCOMP_RETURN_NOT_OK(RefreshRing());
  if (shard >= ring_.num_shards()) {
    return Status::InvalidArgument(
        StrCat("shard ", shard, " out of range for ", ring_.num_shards(),
               " shards"));
  }
  const std::string owner = ring_.endpoints[shard];
  if (owner.empty()) {
    return Status::Unavailable(
        StrCat("shard ", shard, " has no live owner to hand it off (ring "
               "epoch ", ring_.epoch, "); adopt it instead"));
  }
  RELCOMP_RETURN_NOT_OK(ClientFor(owner)->Handoff(shard, successor));
  // The successor's adopt re-published the ring at a higher epoch;
  // pick it up now so this client's next keyed op routes correctly on
  // the first try. Best effort — the routing loop self-heals anyway.
  (void)RefreshRing();
  return Status::OK();
}

Status FabricClient::AdoptShard(size_t shard, const std::string& adopter) {
  if (adopter.empty()) {
    return Status::InvalidArgument("adopt needs an adopter endpoint");
  }
  RELCOMP_RETURN_NOT_OK(ClientFor(adopter)->Adopt(shard));
  (void)RefreshRing();
  return Status::OK();
}

std::vector<std::pair<std::string, std::string>> FabricClient::FleetHealth() {
  if (!have_ring_) (void)RefreshRing();
  std::vector<std::pair<std::string, std::string>> out;
  for (const std::string& endpoint : KnownEndpoints()) {
    Result<std::string> health = ClientFor(endpoint)->Health();
    if (health.ok()) {
      endpoint_health_[endpoint] = std::string(HealthReportState(*health));
      out.emplace_back(endpoint, *std::move(health));
    } else {
      endpoint_health_[endpoint] = "down";
      out.emplace_back(
          endpoint,
          StrCat("unreachable: ", health.status().message(), "\n"));
    }
  }
  return out;
}

Result<WireReply> FabricClient::CallSubmit(const std::string& key,
                                           const JobSpec& spec) {
  WireRequest req;
  req.op = WireOp::kSubmit;
  req.key = key;
  req.job = spec.Serialize();
  return CallRouted(req);
}

Status FabricClient::Submit(const std::string& key, const JobSpec& spec) {
  RELCOMP_ASSIGN_OR_RETURN(WireReply reply, CallSubmit(key, spec));
  return reply.ToStatus();
}

Result<WireReply> FabricClient::Poll(const std::string& key) {
  WireRequest req;
  req.op = WireOp::kPoll;
  req.key = key;
  return CallRouted(req);
}

Status FabricClient::Cancel(const std::string& key) {
  WireRequest req;
  req.op = WireOp::kCancel;
  req.key = key;
  RELCOMP_ASSIGN_OR_RETURN(WireReply reply, CallRouted(req));
  return reply.ToStatus();
}

Result<WireReply> FabricClient::AwaitTerminal(
    const std::string& key, std::chrono::milliseconds poll_interval,
    std::chrono::milliseconds limit) {
  return Await(key, nullptr, poll_interval, limit);
}

Result<WireReply> FabricClient::SubmitAndAwait(
    const std::string& key, const JobSpec& spec,
    std::chrono::milliseconds poll_interval, std::chrono::milliseconds limit) {
  RELCOMP_ASSIGN_OR_RETURN(WireReply submitted, CallSubmit(key, spec));
  RELCOMP_RETURN_NOT_OK(submitted.ToStatus());
  if (submitted.state == WireJobState::kDone) return submitted;
  return Await(key, &spec, poll_interval, limit);
}

Result<WireReply> FabricClient::Await(const std::string& key,
                                      const JobSpec* spec,
                                      std::chrono::milliseconds poll_interval,
                                      std::chrono::milliseconds limit) {
  const Clock::time_point deadline = Clock::now() + limit;
  for (;;) {
    Result<WireReply> reply = Poll(key);
    if (reply.ok() && reply->code == StatusCode::kOk &&
        reply->state == WireJobState::kDone) {
      return reply;
    }
    const StatusCode code = reply.ok() ? reply->code : reply.status().code();
    if (code == StatusCode::kNotFound && spec != nullptr) {
      // The job is terminal and gone: a verdict-cache hit, or a job
      // that completed and was forgotten, lost to a restart before its
      // verdict was read. The idempotency key plus the determinism
      // contract make resubmission the honest recovery: the verdict
      // cache answers from its durable record when it survived, and a
      // recomputation is bit-for-bit the same (verdicts are
      // deterministic at every thread count).
      Status resubmitted = Submit(key, *spec);
      if (!resubmitted.ok() && !Retryable(resubmitted.code())) {
        return resubmitted;
      }
    } else if (code != StatusCode::kOk && !Retryable(code)) {
      // Keep waiting through anything retryable — the whole point is
      // to span the owner's death and the shard's adoption.
      return reply.ok() ? reply->ToStatus() : reply.status();
    }
    if (Clock::now() >= deadline) {
      return Status::DeadlineExceeded(
          StrCat("job \"", key, "\" not terminal within ", limit.count(),
                 " ms of fabric polling"));
    }
    std::this_thread::sleep_for(poll_interval);
  }
}

}  // namespace relcomp
