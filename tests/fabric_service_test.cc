// End-to-end tests for the sharded decision fabric: consistent-hash
// routing over live members, the kill-any-single-server sweep (the
// owner dies at every checkpoint-persist site and at sampled decision
// points; the shard is recovered by its restarted owner or handed off
// to an adopting peer), epoch-fenced drains, typed degradation while a
// shard has no live owner, and the verdict cache riding a handoff.
//
// The acceptance bar everywhere is the PR-3/4 one: the verdict and
// evidence after any single kill are bit-for-bit the uninterrupted
// single-server run's, no store file is ever corrupted, and no job is
// served twice.

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "completeness/rcdp.h"
#include "fabric/fabric_client.h"
#include "fabric/member.h"
#include "fabric/ring.h"
#include "net/client.h"
#include "spec/spec_parser.h"
#include "util/execution_control.h"
#include "util/str.h"
#include "test_support.h"

namespace relcomp {
namespace {

JobSpec MakeJob(const std::string& spec, size_t threads = 1,
                size_t slice = 0) {
  JobSpec job;
  job.kind = JobKind::kRcdp;
  job.spec_text = spec;
  job.num_threads = threads;
  job.slice_steps = slice;
  return job;
}

size_t CountDecisionPoints(const std::string& spec_text, size_t threads) {
  auto spec = ParseCompletenessSpec(spec_text);
  EXPECT_TRUE(spec.ok());
  ExecutionBudget budget;
  budget.set_max_steps(1u << 30);
  RcdpOptions options;
  options.num_threads = threads;
  options.budget = &budget;
  auto r = DecideRcdp(spec->queries[0], spec->db, spec->master,
                      spec->constraints, options);
  EXPECT_TRUE(r.ok());
  return budget.steps();
}

/// An in-process fabric: N members over one root, each on its own
/// socket. `tweak` customizes one member's options before Start (the
/// kill harness arms the owner's crash knobs through it).
struct Fabric {
  std::string root;
  std::vector<std::string> endpoints;
  std::vector<std::unique_ptr<FabricMember>> members;
};

using MemberTweak = std::function<void(size_t, FabricMemberOptions&)>;

FabricMemberOptions MemberOptions(const Fabric& fabric, size_t index,
                                  const MemberTweak& tweak) {
  FabricMemberOptions options;
  options.fabric_root = fabric.root;
  options.member_index = index;
  options.endpoints = fabric.endpoints;
  if (tweak) tweak(index, options);
  return options;
}

Fabric StartFabric(const char* tag, size_t n, const MemberTweak& tweak = {}) {
  Fabric fabric;
  fabric.root = FreshDir(tag);
  for (size_t i = 0; i < n; ++i) fabric.endpoints.push_back(FreshSocket(tag));
  for (size_t i = 0; i < n; ++i) {
    auto member = FabricMember::Start(MemberOptions(fabric, i, tweak));
    EXPECT_TRUE(member.ok()) << member.status().ToString();
    fabric.members.push_back(member.ok() ? std::move(*member) : nullptr);
  }
  return fabric;
}

Status RestartMember(Fabric& fabric, size_t index,
                     const MemberTweak& tweak = {}) {
  fabric.members[index].reset();
  auto member = FabricMember::Start(MemberOptions(fabric, index, tweak));
  if (!member.ok()) return member.status();
  fabric.members[index] = std::move(*member);
  return Status::OK();
}

/// A key that the placement contract routes to `shard`.
std::string KeyForShard(const FabricRing& ring, size_t shard,
                        const char* tag) {
  for (int i = 0;; ++i) {
    std::string key = StrCat("job-", tag, "-", i);
    if (ring.ShardForKey(key) == shard) return key;
  }
}

/// How often `key` completed across every live shard service — the
/// no-job-served-twice audit.
size_t TimesCompleted(const Fabric& fabric, const std::string& key) {
  size_t times = 0;
  for (const auto& member : fabric.members) {
    if (!member) continue;
    for (size_t shard : member->owned_shards()) {
      DecisionService* service = member->shard_service(shard);
      if (service == nullptr || service->crashed()) continue;
      for (const std::string& done : service->completed_order()) {
        if (done == key) ++times;
      }
    }
  }
  return times;
}

void ExpectNoCorruption(const Fabric& fabric) {
  for (const auto& member : fabric.members) {
    if (!member) continue;
    for (size_t shard : member->owned_shards()) {
      DecisionService* service = member->shard_service(shard);
      if (service == nullptr || service->crashed()) continue;
      EXPECT_EQ(service->store().corrupt_files_skipped(), 0u)
          << "shard " << shard << " read a corrupt store file";
    }
  }
}

/// Blocks until the owner either crashed (simulated kill fired) or
/// finished the job; returns true when it crashed.
bool AwaitCrashOrCompletion(DecisionService* service,
                            const std::string& key) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (std::chrono::steady_clock::now() < deadline) {
    if (service->crashed()) return true;
    auto poll = service->Poll(key);
    if (poll.ok() && poll->terminal) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ADD_FAILURE() << "owner neither crashed nor finished " << key;
  return false;
}

// --- Parameterized over (members, threads) ---------------------------

class FabricSweepTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {
 protected:
  size_t members() const { return std::get<0>(GetParam()); }
  size_t threads() const { return std::get<1>(GetParam()); }
};

TEST_P(FabricSweepTest, RoutesAndCompletesAcrossMembers) {
  const std::string expected = DirectRcdpEvidence(GridSpec(5, 6), threads());
  Fabric fabric = StartFabric("route", members());
  FabricClient client(fabric.endpoints);
  const FabricRing placement = FabricRing::Make(fabric.endpoints);

  std::vector<std::string> keys;
  for (size_t i = 0; i < 3 * members(); ++i) {
    keys.push_back(StrCat("job-route-", i));
    ASSERT_TRUE(
        client.Submit(keys.back(), MakeJob(GridSpec(5, 6), threads())).ok());
  }
  for (const std::string& key : keys) {
    auto reply = client.AwaitTerminal(key);
    ASSERT_TRUE(reply.ok()) << key << ": " << reply.status().ToString();
    EXPECT_EQ(reply->evidence, expected) << key;
    // The job completed on exactly the shard the placement contract
    // names, and nowhere else.
    const size_t shard = placement.ShardForKey(key);
    DecisionService* owner =
        fabric.members[shard]->shard_service(shard);
    ASSERT_NE(owner, nullptr);
    EXPECT_EQ(TimesCompleted(fabric, key), 1u) << key;
    bool on_owner = false;
    for (const std::string& done : owner->completed_order()) {
      if (done == key) on_owner = true;
    }
    EXPECT_TRUE(on_owner) << key << " did not run on its shard " << shard;
  }
  ExpectNoCorruption(fabric);
}

TEST_P(FabricSweepTest, KillAtEveryPersistSiteRecoversByRestart) {
  const std::string expected = DirectRcdpEvidence(GridSpec(5, 6), threads());
  const size_t total = CountDecisionPoints(GridSpec(5, 6), threads());
  const size_t slice = total / 6 + 1;

  // Learn the persist count from one unkilled fabric run.
  size_t persists = 0;
  {
    Fabric fabric = StartFabric("persistbase", members());
    FabricClient client(fabric.endpoints);
    auto reply = client.SubmitAndAwait(
        "job-base", MakeJob(GridSpec(5, 6), threads(), slice));
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_EQ(reply->evidence, expected);
    const size_t shard = FabricRing::Make(fabric.endpoints)
                             .ShardForKey("job-base");
    persists =
        fabric.members[shard]->shard_service(shard)->checkpoints_persisted();
  }
  ASSERT_GE(persists, 1u);

  size_t kills = 0;
  for (size_t k = 1; k <= persists; ++k) {
    SCOPED_TRACE(StrCat("k=", k));
    const std::string tag = StrCat("ps", k);
    const size_t owner_shard =
        FabricRing::Make(std::vector<std::string>(members()))
            .ShardForKey(StrCat("job-", tag, "-0"));
    // Arm the k-th-persist kill on the member whose shard will own the
    // key; every other member runs clean.
    Fabric fabric =
        StartFabric(tag.c_str(), members(),
                    [&](size_t index, FabricMemberOptions& options) {
                      if (index == owner_shard) {
                        options.service_options.crash_after_persist = k;
                      }
                    });
    const std::string key =
        KeyForShard(FabricRing::Make(fabric.endpoints), owner_shard,
                    tag.c_str());
    FabricClient client(fabric.endpoints);
    ASSERT_TRUE(
        client.Submit(key, MakeJob(GridSpec(5, 6), threads(), slice)).ok());

    DecisionService* owner =
        fabric.members[owner_shard]->shard_service(owner_shard);
    ASSERT_NE(owner, nullptr);
    if (!AwaitCrashOrCompletion(owner, key)) {
      // This schedule finished in fewer than k persists — still must
      // be bit-for-bit.
      auto reply = client.AwaitTerminal(key);
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
      EXPECT_EQ(reply->evidence, expected);
      continue;
    }
    ++kills;
    // The kill: the owner process dies (its flock dies with it) and is
    // restarted over the same shard directory; recovery re-enqueues
    // the in-flight job and resumes its newest checkpoint.
    ASSERT_TRUE(RestartMember(fabric, owner_shard).ok());
    EXPECT_GE(fabric.members[owner_shard]->recovered_jobs(), 1u);
    auto reply = client.AwaitTerminal(key);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->evidence, expected);
    EXPECT_EQ(TimesCompleted(fabric, key), 1u) << "job served twice";
    ExpectNoCorruption(fabric);
  }
  EXPECT_GT(kills, 0u) << "the sweep never actually killed anyone";
}

TEST_P(FabricSweepTest, KillAtEveryPersistSiteRecoversByAdoption) {
  const std::string expected = DirectRcdpEvidence(GridSpec(5, 6), threads());
  const size_t total = CountDecisionPoints(GridSpec(5, 6), threads());
  const size_t slice = total / 6 + 1;

  size_t kills = 0;
  for (size_t k = 1;; ++k) {
    SCOPED_TRACE(StrCat("k=", k));
    const std::string tag = StrCat("ad", k);
    const size_t owner_shard =
        FabricRing::Make(std::vector<std::string>(members()))
            .ShardForKey(StrCat("job-", tag, "-0"));
    Fabric fabric =
        StartFabric(tag.c_str(), members(),
                    [&](size_t index, FabricMemberOptions& options) {
                      if (index == owner_shard) {
                        options.service_options.crash_after_persist = k;
                      }
                    });
    const std::string key =
        KeyForShard(FabricRing::Make(fabric.endpoints), owner_shard,
                    tag.c_str());
    FabricClient client(fabric.endpoints);
    ASSERT_TRUE(
        client.Submit(key, MakeJob(GridSpec(5, 6), threads(), slice)).ok());

    DecisionService* owner =
        fabric.members[owner_shard]->shard_service(owner_shard);
    ASSERT_NE(owner, nullptr);
    if (!AwaitCrashOrCompletion(owner, key)) {
      auto reply = client.AwaitTerminal(key);
      ASSERT_TRUE(reply.ok());
      EXPECT_EQ(reply->evidence, expected);
      break;  // k exceeded the run's persist count: sweep exhausted
    }
    ++kills;
    // The kill, handed off instead of restarted: the owner dies for
    // good and a surviving peer adopts its shard.
    const size_t adopter = (owner_shard + 1) % members();
    const uint64_t epoch_before = fabric.members[adopter]->ring().epoch;
    fabric.members[owner_shard].reset();
    ASSERT_TRUE(fabric.members[adopter]->AdoptShard(owner_shard).ok());
    EXPECT_GT(fabric.members[adopter]->ring().epoch, epoch_before)
        << "adoption did not fence with an epoch bump";
    EXPECT_EQ(fabric.members[adopter]->ring().endpoints[owner_shard],
              fabric.endpoints[adopter]);
    EXPECT_GE(fabric.members[adopter]->recovered_jobs(), 1u);

    auto reply = client.AwaitTerminal(key);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->evidence, expected);
    EXPECT_EQ(TimesCompleted(fabric, key), 1u) << "job served twice";
    ExpectNoCorruption(fabric);
  }
  EXPECT_GT(kills, 0u) << "the sweep never actually killed anyone";
}

TEST_P(FabricSweepTest, KillAtSampledDecisionPointsRecoversByAdoption) {
  const std::string expected = DirectRcdpEvidence(GridSpec(5, 6), threads());
  // The points come from the 1-thread count: every schedule reaches
  // it, because every unit below the winner runs to exhaustion, while
  // a parallel count also holds the schedule-dependent points units
  // above the winner claim before they stop.
  const size_t total = CountDecisionPoints(GridSpec(5, 6), 1);
  ASSERT_GT(total, 4u);

  for (size_t point : {total / 4, total / 2, (3 * total) / 4}) {
    SCOPED_TRACE(StrCat("point=", point));
    const std::string tag = StrCat("dp", point);
    const size_t owner_shard =
        FabricRing::Make(std::vector<std::string>(members()))
            .ShardForKey(StrCat("job-", tag, "-0"));
    FaultInjector inject(FaultInjector::Fault::kPersistAbort, point);
    Fabric fabric =
        StartFabric(tag.c_str(), members(),
                    [&](size_t index, FabricMemberOptions& options) {
                      if (index == owner_shard) {
                        options.service_options.fault_injector = &inject;
                      }
                    });
    const std::string key =
        KeyForShard(FabricRing::Make(fabric.endpoints), owner_shard,
                    tag.c_str());
    FabricClient client(fabric.endpoints);
    ASSERT_TRUE(
        client.Submit(key, MakeJob(GridSpec(5, 6), threads())).ok());

    DecisionService* owner =
        fabric.members[owner_shard]->shard_service(owner_shard);
    ASSERT_NE(owner, nullptr);
    ASSERT_TRUE(AwaitCrashOrCompletion(owner, key))
        << "injector at " << point << " never fired";
    const size_t adopter = (owner_shard + 1) % members();
    fabric.members[owner_shard].reset();
    ASSERT_TRUE(fabric.members[adopter]->AdoptShard(owner_shard).ok());
    auto reply = client.AwaitTerminal(key);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->evidence, expected);
    EXPECT_EQ(TimesCompleted(fabric, key), 1u);
    ExpectNoCorruption(fabric);
  }
}

INSTANTIATE_TEST_SUITE_P(
    MembersThreads, FabricSweepTest,
    ::testing::Values(std::make_tuple(2, 1), std::make_tuple(2, 8),
                      std::make_tuple(3, 1), std::make_tuple(3, 8)));

// --- Single-shape behaviors ------------------------------------------

TEST(FabricServiceTest, WrongOwnerShedIsTypedAndNamesTheOwner) {
  Fabric fabric = StartFabric("shed", 2);
  const std::string key =
      KeyForShard(FabricRing::Make(fabric.endpoints), 0, "shed");
  // Ask member 1 directly for shard 0's key: a typed kUnavailable
  // naming the real owner, not a hang and not a silent wrong answer.
  NetClientOptions options;
  options.max_retries = 1;
  NetClient direct(fabric.endpoints[1], options);
  Status submitted = direct.Submit(key, MakeJob(GridSpec(5, 6)));
  ASSERT_FALSE(submitted.ok());
  EXPECT_EQ(submitted.code(), StatusCode::kUnavailable)
      << submitted.ToString();
  EXPECT_NE(submitted.message().find("owned by"), std::string::npos)
      << submitted.ToString();
}

TEST(FabricServiceTest, DrainDepartsTheRingThenAdoptionRevives) {
  const std::string expected = DirectRcdpEvidence(GridSpec(5, 6), 1);
  Fabric fabric = StartFabric("drain", 2);
  const std::string key =
      KeyForShard(FabricRing::Make(fabric.endpoints), 0, "drain");

  // Graceful drain of shard 0's owner: the departure (epoch bump, ""
  // endpoint) is journaled before the listener closes.
  fabric.members[0]->Shutdown();
  fabric.members[0].reset();

  // Typed degradation, not a hang: the shard has no live owner, so a
  // deadline-bounded client gets kDeadlineExceeded out of repeated
  // typed kUnavailable refusals, in bounded time.
  {
    FabricClientOptions options;
    options.op_deadline = std::chrono::milliseconds(400);
    FabricClient client(fabric.endpoints, options);
    const auto start = std::chrono::steady_clock::now();
    Status submitted = client.Submit(key, MakeJob(GridSpec(5, 6)));
    ASSERT_FALSE(submitted.ok());
    EXPECT_EQ(submitted.code(), StatusCode::kDeadlineExceeded)
        << submitted.ToString();
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(20));
  }

  // Adoption fences past the departure: the drained owner journaled
  // epoch 1 into shard 0, so the adopter's reassignment lands at 2.
  ASSERT_TRUE(fabric.members[1]->AdoptShard(0).ok());
  EXPECT_EQ(fabric.members[1]->ring().epoch, 2u);
  EXPECT_EQ(fabric.members[1]->ring().endpoints[0], fabric.endpoints[1]);

  FabricClient client(fabric.endpoints);
  auto reply = client.SubmitAndAwait(key, MakeJob(GridSpec(5, 6)));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->evidence, expected);
  ExpectNoCorruption(fabric);
}

TEST(FabricServiceTest, AdoptionIsRefusedWhileTheOwnerLives) {
  Fabric fabric = StartFabric("zombie", 2);
  // Member 0 is alive and holds shard 0's flock: adopting it would be
  // a double-serve, so the attempt must fail typed, changing nothing.
  const uint64_t epoch_before = fabric.members[1]->ring().epoch;
  Status adopted = fabric.members[1]->AdoptShard(0);
  ASSERT_FALSE(adopted.ok());
  EXPECT_EQ(adopted.code(), StatusCode::kFailedPrecondition)
      << adopted.ToString();
  EXPECT_EQ(fabric.members[1]->ring().epoch, epoch_before);
  EXPECT_EQ(fabric.members[1]->owned_shards(), (std::vector<size_t>{1}));
}

TEST(FabricServiceTest, PlacementContractMismatchIsRefused) {
  Fabric fabric = StartFabric("contract", 2);
  fabric.members[0].reset();
  fabric.members[1].reset();
  // Reopening shard 0 as part of a THREE-shard fabric would route keys
  // differently than the durable jobs were placed: refusal, not drift.
  FabricMemberOptions options;
  options.fabric_root = fabric.root;
  options.member_index = 0;
  options.endpoints = {fabric.endpoints[0], fabric.endpoints[1],
                       FreshSocket("contract_extra")};
  auto member = FabricMember::Start(options);
  ASSERT_FALSE(member.ok());
  EXPECT_EQ(member.status().code(), StatusCode::kFailedPrecondition)
      << member.status().ToString();
  EXPECT_NE(member.status().message().find("placement contract"),
            std::string::npos);
}

TEST(FabricServiceTest, RejoinAfterDrainFencesWithAHigherEpoch) {
  Fabric fabric = StartFabric("rejoin", 2);
  fabric.members[0]->Shutdown();  // journals epoch 1, shard 0 unowned
  fabric.members[0].reset();
  ASSERT_TRUE(RestartMember(fabric, 0).ok());
  // The rejoin outranks the departure it read back.
  EXPECT_EQ(fabric.members[0]->ring().epoch, 2u);
  EXPECT_EQ(fabric.members[0]->ring().endpoints[0], fabric.endpoints[0]);

  const std::string key =
      KeyForShard(FabricRing::Make(fabric.endpoints), 0, "rejoin");
  FabricClient client(fabric.endpoints);
  auto reply = client.SubmitAndAwait(key, MakeJob(GridSpec(5, 6)));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
}

TEST(FabricServiceTest, VerdictCacheIsServedAcrossShardHandoff) {
  const std::string expected = DirectRcdpEvidence(GridSpec(5, 6), 1);
  MemberTweak with_cache = [](size_t, FabricMemberOptions& options) {
    options.service_options.enable_verdict_cache = true;
  };
  Fabric fabric = StartFabric("vcache", 2, with_cache);
  const std::string key =
      KeyForShard(FabricRing::Make(fabric.endpoints), 0, "vcache");
  {
    FabricClient client(fabric.endpoints);
    auto reply = client.SubmitAndAwait(key, MakeJob(GridSpec(5, 6)));
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_EQ(reply->evidence, expected);
  }
  // Hand shard 0 to member 1; the journaled verdict record must ride
  // along and answer the resubmission without a fresh search.
  fabric.members[0]->Shutdown();
  fabric.members[0].reset();
  ASSERT_TRUE(fabric.members[1]->AdoptShard(0).ok());
  DecisionService* adopted = fabric.members[1]->shard_service(0);
  ASSERT_NE(adopted, nullptr);
  ASSERT_EQ(adopted->verdicts_served_from_cache(), 0u);

  FabricClient client(fabric.endpoints);
  auto reply = client.SubmitAndAwait(key, MakeJob(GridSpec(5, 6)));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->evidence, expected);
  EXPECT_GE(adopted->verdicts_served_from_cache(), 1u)
      << "the handed-off verdict cache was not consulted";
  EXPECT_EQ(adopted->store().corrupt_files_skipped(), 0u);
}

TEST(FabricServiceTest, SubmitAndAwaitOfAHitIsOneRoutedRequest) {
  // The submit reply of a hit carries the verdict, so SubmitAndAwait
  // returns it without a poll: the owner reads one frame.
  MemberTweak with_cache = [](size_t, FabricMemberOptions& options) {
    options.service_options.enable_verdict_cache = true;
  };
  Fabric fabric = StartFabric("hitroute", 2, with_cache);
  const FabricRing ring = FabricRing::Make(fabric.endpoints);
  FabricClient client(fabric.endpoints);
  const JobSpec job = MakeJob(GridSpec(5, 6));
  const std::string miss = KeyForShard(ring, 0, "miss");
  auto decided = client.SubmitAndAwait(miss, job);
  ASSERT_TRUE(decided.ok()) << decided.status().ToString();

  const std::string hit = KeyForShard(ring, 0, "hit");
  NetServer* owner = fabric.members[0]->server();
  const size_t frames = owner->stats().frames_received;
  const size_t routed = client.stats().routed_calls;
  auto reply = client.SubmitAndAwait(hit, job);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->evidence, DirectRcdpEvidence(GridSpec(5, 6), 1));
  EXPECT_EQ(reply->attempts, 0u);
  EXPECT_EQ(client.stats().routed_calls - routed, 1u);
  EXPECT_EQ(owner->stats().frames_received - frames, 1u);
  EXPECT_EQ(fabric.members[0]->shard_service(0)->verdicts_served_from_cache(),
            1u);
}

TEST(FabricServiceTest, VerdictIsRecomputedHonestlyWithoutTheCache) {
  // Same handoff, cache disabled: the adopter re-runs the search and
  // determinism makes the answer bit-for-bit anyway — served honestly,
  // never corrupted.
  const std::string expected = DirectRcdpEvidence(GridSpec(5, 6), 1);
  Fabric fabric = StartFabric("nocache", 2);
  const std::string key =
      KeyForShard(FabricRing::Make(fabric.endpoints), 0, "nocache");
  {
    FabricClient client(fabric.endpoints);
    auto reply = client.SubmitAndAwait(key, MakeJob(GridSpec(5, 6)));
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_EQ(reply->evidence, expected);
  }
  fabric.members[0]->Shutdown();
  fabric.members[0].reset();
  ASSERT_TRUE(fabric.members[1]->AdoptShard(0).ok());
  DecisionService* adopted = fabric.members[1]->shard_service(0);
  ASSERT_NE(adopted, nullptr);

  FabricClient client(fabric.endpoints);
  auto reply = client.SubmitAndAwait(key, MakeJob(GridSpec(5, 6)));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->evidence, expected);
  EXPECT_EQ(adopted->verdicts_served_from_cache(), 0u);
  EXPECT_EQ(adopted->store().corrupt_files_skipped(), 0u);
}

TEST(FabricServiceTest, FabricClientBootstrapsOffAStandaloneServer) {
  // The uniform-shape contract: a FabricClient pointed at plain
  // NetServers (no fabric) bootstraps off their singleton rings and
  // completes the audit — multi-endpoint --connect without a fabric.
  const std::string expected = DirectRcdpEvidence(GridSpec(5, 6), 1);
  auto service = DecisionService::Start(FreshDir("solo"));
  ASSERT_TRUE(service.ok());
  auto server = NetServer::Start(service->get(), FreshSocket("solo"));
  ASSERT_TRUE(server.ok());
  FabricClient client({(*server)->address()});
  auto reply = client.SubmitAndAwait("job-solo", MakeJob(GridSpec(5, 6)));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->evidence, expected);
  ASSERT_TRUE(client.has_ring());
  EXPECT_EQ(client.ring().num_shards(), 1u);
}

}  // namespace
}  // namespace relcomp
