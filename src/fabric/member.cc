#include "fabric/member.h"

#include <algorithm>
#include <string_view>
#include <utility>

#include "net/client.h"
#include "util/str.h"

namespace relcomp {
namespace {

/// The control-record key every shard journals its ring under.
constexpr char kRingControlKey[] = "ring";

/// Worst-wins ordering of health-state tokens.
int HealthRank(std::string_view state) {
  if (state == "healthy") return 0;
  if (state == "degraded") return 1;
  if (state == "readonly") return 2;
  return 3;  // "down" (or anything unrecognized: assume the worst)
}

}  // namespace

const char* HandoffStageToString(HandoffStage stage) {
  switch (stage) {
    case HandoffStage::kDrain:
      return "drain";
    case HandoffStage::kFlush:
      return "flush";
    case HandoffStage::kJournal:
      return "journal";
    case HandoffStage::kRelease:
      return "release";
    case HandoffStage::kAdopt:
      return "adopt";
    case HandoffStage::kConfirm:
      return "confirm";
  }
  return "?";
}

Result<std::unique_ptr<FabricMember>> FabricMember::Start(
    const FabricMemberOptions& options) {
  if (options.fabric_root.empty()) {
    return Status::InvalidArgument("fabric member needs a fabric_root");
  }
  if (options.endpoints.empty()) {
    return Status::InvalidArgument("fabric member needs an endpoint list");
  }
  if (options.member_index >= options.endpoints.size()) {
    return Status::InvalidArgument(
        StrCat("member index ", options.member_index, " out of range for ",
               options.endpoints.size(), " endpoints"));
  }
  std::unique_ptr<FabricMember> member(new FabricMember());
  member->options_ = options;
  member->ring_ =
      FabricRing::Make(options.endpoints, options.seed, options.vnodes);

  const size_t home = options.member_index;
  RELCOMP_ASSIGN_OR_RETURN(std::unique_ptr<DecisionService> service,
                           member->StartShardService(home));

  // A ring record in the home shard outranks the configured initial
  // ring: it carries every reassignment that happened before this
  // (re)start. The placement shape, though, is non-negotiable — a
  // member configured with a different seed/vnodes/shard count would
  // route keys to different shards than the durable jobs were placed
  // by, so that is a refusal, not a merge.
  Result<std::string> record =
      service->mutable_store()->LoadControl(kRingControlKey);
  if (record.ok()) {
    RELCOMP_ASSIGN_OR_RETURN(FabricRing recorded,
                             FabricRing::Deserialize(*record));
    if (recorded.seed != member->ring_.seed ||
        recorded.vnodes != member->ring_.vnodes ||
        recorded.num_shards() != member->ring_.num_shards()) {
      return Status::FailedPrecondition(
          StrCat("fabric placement contract mismatch for ",
                 options.fabric_root, ": shard ", home, " was created with ",
                 recorded.num_shards(), " shards / seed ", recorded.seed,
                 " / vnodes ", recorded.vnodes, ", member configured with ",
                 member->ring_.num_shards(), " / ", options.seed, " / ",
                 options.vnodes));
    }
    if (recorded.epoch > member->ring_.epoch) member->ring_ = recorded;
  } else if (record.status().code() != StatusCode::kNotFound) {
    return record.status();
  }

  // Rejoin: if the durable ring says this shard has no live owner (a
  // prior drain or an adoption that was itself drained), taking it
  // back is a reassignment like any other — fenced by an epoch bump.
  const std::string& self = options.endpoints[home];
  if (member->ring_.endpoints[home] != self) {
    ++member->ring_.epoch;
    member->ring_.endpoints[home] = self;
  }

  member->recovered_jobs_ += service->RecoveredJobs().size();
  member->services_[home] = std::move(service);
  {
    std::lock_guard<std::mutex> lock(member->mu_);
    RELCOMP_RETURN_NOT_OK(member->PersistRingLocked());
  }

  NetServerOptions server_options = options.server_options;
  FabricMember* raw = member.get();
  server_options.route =
      [raw](const std::string& key) -> Result<DecisionService*> {
    std::lock_guard<std::mutex> lock(raw->mu_);
    const size_t shard = raw->ring_.ShardForKey(key);
    // A shard mid-handoff sheds even while its service still exists:
    // admission after the flush point would strand work behind the
    // departing flock.
    auto draining = raw->draining_.find(shard);
    if (draining != raw->draining_.end()) {
      return Status::Unavailable(
          StrCat("shard ", shard, " is mid-handoff to ", draining->second,
                 " (ring epoch ", raw->ring_.epoch, "); retry shortly"));
    }
    auto it = raw->services_.find(shard);
    if (it != raw->services_.end()) return it->second.get();
    const std::string& owner = raw->ring_.endpoints[shard];
    if (owner.empty()) {
      return Status::Unavailable(
          StrCat("shard ", shard, " has no live owner (ring epoch ",
                 raw->ring_.epoch, "); retry after adoption"));
    }
    return Status::Unavailable(
        StrCat("shard ", shard, " is owned by ", owner, " (ring epoch ",
               raw->ring_.epoch, "), not this member"));
  };
  server_options.ring = [raw] {
    std::lock_guard<std::mutex> lock(raw->mu_);
    return raw->ring_.Serialize();
  };
  server_options.adopt = [raw](size_t shard) { return raw->AdoptShard(shard); };
  server_options.handoff = [raw](size_t shard, const std::string& successor) {
    return raw->HandoffShard(shard, successor);
  };
  server_options.health = [raw] { return raw->HealthReport(); };
  RELCOMP_ASSIGN_OR_RETURN(
      member->server_,
      NetServer::Start(member->services_[home].get(), self, server_options));
  if (options.health_probe_interval.count() > 0) {
    member->prober_ = std::thread([raw] { raw->ProberLoop(); });
  }
  return member;
}

FabricMember::~FabricMember() {
  Shutdown();
  // The server loop thread calls the routing hooks, so it must be gone
  // before the services (and this object's mutex) are.
  server_.reset();
  services_.clear();
}

Result<std::unique_ptr<DecisionService>> FabricMember::StartShardService(
    size_t shard) {
  DecisionServiceOptions service_options = options_.service_options;
  service_options.store_options.fabric_root = options_.fabric_root;
  service_options.store_options.shard_name = StrCat("shard-", shard);
  return DecisionService::Start("", service_options);
}

Status FabricMember::PersistRingLocked() {
  const std::string serialized = ring_.Serialize();
  Status first = Status::OK();
  for (auto& [shard, service] : services_) {
    Status persisted =
        service->mutable_store()->PersistControl(kRingControlKey, serialized);
    // Best effort per shard: a crashed shard store cannot take the
    // record, but the reassignment is already durable in the shards
    // that could — the highest-epoch-wins merge tolerates laggards.
    if (first.ok() && !persisted.ok() &&
        persisted.code() != StatusCode::kFailedPrecondition) {
      first = persisted;
    }
  }
  return first;
}

Status FabricMember::AdoptShard(size_t shard) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      return Status::FailedPrecondition("member is shut down");
    }
    if (shard >= ring_.num_shards()) {
      return Status::InvalidArgument(
          StrCat("shard ", shard, " out of range for ", ring_.num_shards(),
                 " shards"));
    }
    if (services_.count(shard) > 0) {
      return Status::OK();  // already ours — adoption is idempotent
    }
  }
  // Open outside the lock: Start scans the shard's store directory and
  // resumes its jobs, which can take a while; routing for shards we
  // already own must not stall behind it. The flock inside Open is the
  // actual exclusion — if the old owner still lives, this fails
  // kFailedPrecondition and nothing changed.
  RELCOMP_ASSIGN_OR_RETURN(std::unique_ptr<DecisionService> service,
                           StartShardService(shard));

  std::lock_guard<std::mutex> lock(mu_);
  // Fencing: the adopted shard may carry a newer ring than we hold
  // (the dead member adopted something first, or drained and rejoined)
  // — merge by epoch before bumping past it, so the reassignment we
  // write outranks everything either party ever wrote.
  Result<std::string> record =
      service->mutable_store()->LoadControl(kRingControlKey);
  if (record.ok()) {
    Result<FabricRing> recorded = FabricRing::Deserialize(*record);
    if (recorded.ok() && recorded->seed == ring_.seed &&
        recorded->vnodes == ring_.vnodes &&
        recorded->num_shards() == ring_.num_shards() &&
        recorded->epoch > ring_.epoch) {
      ring_ = *std::move(recorded);
    }
  }
  ++ring_.epoch;
  const std::string& self = options_.endpoints[options_.member_index];
  for (const auto& [owned, unused] : services_) {
    (void)unused;
    ring_.endpoints[owned] = self;
  }
  ring_.endpoints[shard] = self;
  recovered_jobs_ += service->RecoveredJobs().size();
  services_[shard] = std::move(service);
  return PersistRingLocked();
}

Status FabricMember::StageFault(HandoffStage stage) {
  if (options_.handoff_fault) return options_.handoff_fault(stage);
  return Status::OK();
}

Status FabricMember::HandoffShard(size_t shard, const std::string& successor) {
  const std::string& self = options_.endpoints[options_.member_index];
  if (successor.empty()) {
    return Status::InvalidArgument("handoff needs a successor endpoint");
  }
  if (successor == self) {
    return Status::InvalidArgument(
        StrCat("handoff of shard ", shard, " to self (", self,
               ") is meaningless — the shard is already here"));
  }
  if (std::find(options_.endpoints.begin(), options_.endpoints.end(),
                successor) == options_.endpoints.end()) {
    return Status::InvalidArgument(
        StrCat("handoff successor ", successor,
               " is not a member of this fabric"));
  }

  // Stage 1 — drain: from this moment the route hook sheds the shard
  // (kUnavailable naming the successor); nothing new can slip in
  // behind the flush.
  DecisionService* service = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      return Status::FailedPrecondition("member is shut down");
    }
    if (shard >= ring_.num_shards()) {
      return Status::InvalidArgument(
          StrCat("shard ", shard, " out of range for ", ring_.num_shards(),
                 " shards"));
    }
    auto it = services_.find(shard);
    if (it == services_.end()) {
      return Status::FailedPrecondition(
          StrCat("shard ", shard, " is not owned by this member; its owner is ",
                 ring_.endpoints[shard].empty() ? "(nobody)"
                                                : ring_.endpoints[shard]));
    }
    if (draining_.count(shard) > 0) {
      return Status::FailedPrecondition(
          StrCat("shard ", shard, " is already mid-handoff to ",
                 draining_[shard]));
    }
    RELCOMP_RETURN_NOT_OK(StageFault(HandoffStage::kDrain));
    draining_[shard] = successor;
    service = it->second.get();
  }

  // Stage 2 — flush: every running job unwinds at its next decision
  // point and persists its checkpoint; queued jobs stay durable on
  // disk. After Quiesce the directory is exactly what the successor's
  // startup recovery expects. An abort here un-drains — the shard
  // keeps serving (queued jobs still run after a failed pre-journal
  // handoff only via recovery, so only the fault hook aborts here;
  // Quiesce itself failing means the service crashed and adoption is
  // the answer anyway).
  Status flush = StageFault(HandoffStage::kFlush);
  if (flush.ok()) flush = service->Quiesce();
  if (!flush.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    draining_.erase(shard);
    return flush;
  }

  // Stage 3 — journal: the epoch bump naming the successor MUST land
  // in the departing shard's own store before the flock is released;
  // it is the fence that stops this member's tenure from ever
  // outranking the successor's. The other owned shards get the new
  // ring best-effort.
  {
    std::lock_guard<std::mutex> lock(mu_);
    Status journal = StageFault(HandoffStage::kJournal);
    if (journal.ok()) {
      ++ring_.epoch;
      ring_.endpoints[shard] = successor;
      journal = services_[shard]->mutable_store()->PersistControl(
          kRingControlKey, ring_.Serialize());
      if (journal.ok()) (void)PersistRingLocked();
    }
    if (!journal.ok()) {
      // The service is already flushed; resuming is not possible
      // (workers parked by design). Give up tenure instead: no-owner
      // record, flock freed below, any member can adopt.
      ++ring_.epoch;
      ring_.endpoints[shard] = std::string();
      std::unique_ptr<DecisionService> departing =
          std::move(services_[shard]);
      services_.erase(shard);
      (void)PersistRingLocked();
      draining_.erase(shard);
      departing.reset();  // flock released
      return journal;
    }
  }

  // Stage 4 — release: destroy the service; its store destructor frees
  // the directory flock, which is the successor's admission ticket.
  {
    std::unique_ptr<DecisionService> departing;
    {
      std::lock_guard<std::mutex> lock(mu_);
      Status release = StageFault(HandoffStage::kRelease);
      if (!release.ok()) return release;  // draining_ kept: record names successor
      departing = std::move(services_[shard]);
      services_.erase(shard);
    }
    departing.reset();
  }

  // Stage 5 — adopt: tell the successor to take the shard. A failure
  // here (dead or stalled successor) leaves the shard flock-free with
  // a durable record naming the successor — the fabric's ordinary
  // adoption path (any member) completes the move; this member's part
  // is done either way.
  Status adopt = StageFault(HandoffStage::kAdopt);
  if (adopt.ok()) {
    NetClientOptions client_options;
    client_options.io_timeout = options_.handoff_adopt_deadline;
    client_options.call_deadline = options_.handoff_adopt_deadline;
    client_options.max_retries = 2;
    client_options.auth_key = options_.server_options.auth_key;
    client_options.auth_key2 = options_.server_options.auth_key2;
    NetClient client(successor, client_options);
    adopt = client.Adopt(shard);
  }
  if (!adopt.ok()) return adopt;

  // Stage 6 — confirm: the successor owns the shard and has published
  // a ring that outranks ours; drop the drain marker (routing now
  // sheds via the ring, naming the successor).
  RELCOMP_RETURN_NOT_OK(StageFault(HandoffStage::kConfirm));
  {
    std::lock_guard<std::mutex> lock(mu_);
    draining_.erase(shard);
  }
  return Status::OK();
}

void FabricMember::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!shutdown_) {
      shutdown_ = true;
      probe_cv_.notify_all();
      // Departure precedes the listener closing: the durable record
      // must say "no owner" before the last moment a peer or client
      // could still reach us, so whoever adopts the shards next starts
      // from an epoch that outranks our tenure.
      ++ring_.epoch;
      for (const auto& [shard, service] : services_) {
        (void)service;
        ring_.endpoints[shard] = std::string();
      }
      (void)PersistRingLocked();
    }
  }
  // The prober calls HandoffShard and shard services; it must be gone
  // before the destructor tears either down.
  {
    std::lock_guard<std::mutex> join_lock(prober_join_mu_);
    if (prober_.joinable()) prober_.join();
  }
  if (server_) server_->Shutdown();
}

void FabricMember::ProberLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    probe_cv_.wait_for(lock, options_.health_probe_interval,
                       [&] { return shutdown_; });
    if (shutdown_) return;
    lock.unlock();
    ProbeAndEvict();
    lock.lock();
  }
}

void FabricMember::ProbeAndEvictNow() { ProbeAndEvict(); }

void FabricMember::ProbeAndEvict() {
  // Pass 1 (locked): find sick shards, re-probe their stores in place,
  // and snapshot successor candidates. Only a shard whose store FAILS
  // a live probe is evicted — a transient fault heals right here and
  // the shard stays put.
  std::vector<std::pair<size_t, std::vector<std::string>>> evictions;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return;
    const std::string& self = options_.endpoints[options_.member_index];
    for (auto& [shard, service] : services_) {
      if (draining_.count(shard) > 0) continue;
      if (service->HealthState() == "healthy") continue;
      if (service->ProbeStoreNow().ok()) continue;
      std::vector<std::string> candidates;
      for (const std::string& endpoint : ring_.endpoints) {
        if (!endpoint.empty() && endpoint != self &&
            std::find(candidates.begin(), candidates.end(), endpoint) ==
                candidates.end()) {
          candidates.push_back(endpoint);
        }
      }
      // No live peer: nowhere to go. Keep serving what memory and the
      // verdict cache can answer; the next sweep retries.
      if (candidates.empty()) continue;
      evictions.emplace_back(shard, std::move(candidates));
    }
  }

  // Pass 2 (unlocked — HandoffShard takes mu_ itself): steer each
  // eviction toward a peer that reports itself healthy; when none
  // does, the first live peer still beats a dying disk.
  for (auto& [shard, candidates] : evictions) {
    NetClientOptions probe_options;
    probe_options.io_timeout = std::chrono::milliseconds(2000);
    probe_options.max_retries = 1;
    probe_options.auth_key = options_.server_options.auth_key;
    probe_options.auth_key2 = options_.server_options.auth_key2;
    std::string successor;
    for (const std::string& candidate : candidates) {
      NetClient peer(candidate, probe_options);
      Result<std::string> health = peer.Health();
      if (health.ok() && HealthReportState(*health) == "healthy") {
        successor = candidate;
        break;
      }
    }
    if (successor.empty()) successor = candidates.front();
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++self_eviction_attempts_;
    }
    // A journal-stage failure inside HandoffShard already gave up
    // tenure with a truthful no-owner record — either way this disk no
    // longer owns the shard, which is the point.
    Status moved = HandoffShard(shard, successor);
    if (moved.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      ++self_evictions_;
    }
  }
}

std::string FabricMember::HealthReport() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string worst = "healthy";
  std::string lines;
  for (const auto& [shard, service] : services_) {
    const std::string state = service->HealthState();
    if (HealthRank(state) > HealthRank(worst)) worst = state;
    lines += service->HealthLine(StrCat(shard));
    lines += '\n';
  }
  return StrCat(kHealthMagic, " ", worst, "\n", lines);
}

size_t FabricMember::self_eviction_attempts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return self_eviction_attempts_;
}

size_t FabricMember::self_evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return self_evictions_;
}

FabricRing FabricMember::ring() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_;
}

std::vector<size_t> FabricMember::owned_shards() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<size_t> out;
  out.reserve(services_.size());
  for (const auto& [shard, service] : services_) {
    (void)service;
    out.push_back(shard);
  }
  return out;
}

DecisionService* FabricMember::shard_service(size_t shard) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = services_.find(shard);
  return it == services_.end() ? nullptr : it->second.get();
}

size_t FabricMember::recovered_jobs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recovered_jobs_;
}

}  // namespace relcomp
