// Chaos harness for the fabric's planned shard handoff: clean handoffs
// under live traffic must be invisible (bit-for-bit verdicts, zero
// kUnavailable once the switch window closes), and a kill at EVERY
// protocol stage — drain, flush, journal, release, adopt, confirm —
// must recover to identical verdicts with zero corrupt files and no
// job served twice. Around the tentpole: stalled and dead successors,
// torn frames during handoff traffic, the handoff/adopt race resolved
// highest-epoch-wins, the rebalance planner end to end, authenticated
// frames (shared-secret HMAC) accepting keyed peers and refusing
// everyone else with typed errors.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fabric/fabric_client.h"
#include "fabric/member.h"
#include "fabric/rebalancer.h"
#include "fabric/ring.h"
#include "net/client.h"
#include "util/str.h"
#include "test_support.h"

namespace relcomp {
namespace {

/// A larger, distinct instance per variant for work that must still be
/// running when a handoff flushes: both columns of S are bound to the
/// master, so the only counterexample is the missing far corner and the
/// search walks about 8,600 decision points to reach it (its rolling
/// persists dominate, at any thread count). At 60 × 60 (3,900 points)
/// both of shard 0's jobs were done before the flush in 1 of 160 runs.
std::string LargeSpec(int variant) {
  const int n = 90 + variant;
  std::string s = "relation S(a, b)\nmaster relation M(m)\n";
  for (int x = 0; x < n; ++x) {
    for (int y = 0; y < n; ++y) {
      if (x == n - 1 && y == n - 1) continue;
      s += StrCat("fact S(", x, ", ", y, ")\n");
    }
  }
  for (int m = 0; m < n; ++m) s += StrCat("master fact M(", m, ")\n");
  s += "constraint c0(x) :- S(x, y) |= M[0]\n";
  s += "constraint c1(y) :- S(x, y) |= M[0]\n";
  s += "query cq Q(x, y) :- S(x, y)\n";
  return s;
}

JobSpec MakeJob(const std::string& spec, size_t threads = 1,
                size_t slice = 0) {
  JobSpec job;
  job.kind = JobKind::kRcdp;
  job.spec_text = spec;
  job.num_threads = threads;
  job.slice_steps = slice;
  return job;
}

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

/// The one member (index) owning `shard` across the live fabric, or
/// npos — the no-double-serving audit for ownership itself.
size_t SoleOwnerOf(const Fabric& fabric, size_t shard) {
  size_t owner = std::string::npos;
  size_t owners = 0;
  for (size_t i = 0; i < fabric.members.size(); ++i) {
    if (!fabric.members[i]) continue;
    for (size_t owned : fabric.members[i]->owned_shards()) {
      if (owned == shard) {
        owner = i;
        ++owners;
      }
    }
  }
  EXPECT_LE(owners, 1u) << "shard " << shard << " is double-served";
  return owners == 1 ? owner : std::string::npos;
}

// --- Parameterized over (members, threads) ---------------------------

class FabricChaosSweepTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {
 protected:
  size_t members() const { return std::get<0>(GetParam()); }
  size_t threads() const { return std::get<1>(GetParam()); }
};

// The tentpole acceptance: a planned handoff under live traffic is
// invisible — every verdict bit-for-bit the no-handoff run's, each job
// served exactly once, and once the ring re-publish lands the client
// sees ZERO further kUnavailable (measured as failover advances).
TEST_P(FabricChaosSweepTest, CleanHandoffUnderLiveTrafficIsInvisible) {
  Fabric fabric = StartFabric("clean", members());
  const FabricRing placement = FabricRing::Make(fabric.endpoints);
  FabricClient client(fabric.endpoints);

  // Live traffic on every shard. The handed-off shard gets distinct,
  // larger instances, sliced, and is submitted to last, so the flush
  // has running work to checkpoint; the other shards get the small one.
  struct Audit {
    std::string key;
    std::string spec;
    std::string expected;
  };
  std::vector<Audit> audits;
  for (size_t shard = members(); shard-- > 0;) {
    for (int j = 0; j < 2; ++j) {
      const std::string spec = shard == 0 ? LargeSpec(j) : GridSpec(5, 6);
      audits.push_back(
          {KeyForShard(placement, shard, StrCat("clean", shard, "x", j).c_str()),
           spec, DirectRcdpEvidence(spec, threads())});
      ASSERT_TRUE(client
                      .Submit(audits.back().key,
                              MakeJob(spec, threads(), 40))
                      .ok());
    }
  }

  // The planned handoff, driven over the wire (kHandoff op → owner):
  // shard 0 moves from member 0 to member 1 while its jobs are live.
  ASSERT_TRUE(client.HandoffShard(0, fabric.endpoints[1]).ok());

  // Ownership switched exactly once, epoch moved forward.
  EXPECT_EQ(SoleOwnerOf(fabric, 0), 1u);
  EXPECT_EQ(fabric.members[0]->shard_service(0), nullptr);
  EXPECT_GE(fabric.members[1]->ring().epoch, placement.epoch + 2);
  // The flush really had work in flight: the successor recovered at
  // least one of shard 0's jobs from the store it adopted.
  EXPECT_FALSE(fabric.members[1]->shard_service(0)->RecoveredJobs().empty())
      << "every shard-0 job finished before the flush";

  // The switch window is closed: from here on, zero kUnavailable — no
  // failover advance, no extra ring refresh — for any keyed op.
  ASSERT_TRUE(client.RefreshRing().ok());
  const size_t failovers_before = client.stats().failovers;
  const size_t refreshes_before = client.stats().ring_refreshes;
  for (const Audit& audit : audits) {
    auto reply = client.SubmitAndAwait(
        audit.key, MakeJob(audit.spec, threads(), 40));
    ASSERT_TRUE(reply.ok()) << audit.key << ": " << reply.status().ToString();
    EXPECT_EQ(reply->evidence, audit.expected) << audit.key;
    EXPECT_EQ(TimesCompleted(fabric, audit.key), 1u)
        << audit.key << " served twice";
  }
  EXPECT_EQ(client.stats().failovers, failovers_before)
      << "kUnavailable outside the switch window";
  EXPECT_EQ(client.stats().ring_refreshes, refreshes_before)
      << "ring refresh outside the switch window";
  ExpectNoCorruption(fabric);
}

// The chaos sweep: the owner dies at EVERY handoff stage (the stage
// hook aborts the protocol there, then the member is killed), and the
// fabric must recover to identical verdicts — zero corrupt files, no
// job served twice, exactly one owner.
TEST_P(FabricChaosSweepTest, KillAtEveryHandoffStageRecovers) {
  const std::string expected = DirectRcdpEvidence(GridSpec(5, 6), threads());
  for (HandoffStage stage :
       {HandoffStage::kDrain, HandoffStage::kFlush, HandoffStage::kJournal,
        HandoffStage::kRelease, HandoffStage::kAdopt,
        HandoffStage::kConfirm}) {
    SCOPED_TRACE(StrCat("stage=", HandoffStageToString(stage)));
    const std::string tag = StrCat("kill", HandoffStageToString(stage));
    Fabric fabric = StartFabric(
        tag.c_str(), members(), [&](size_t index, FabricMemberOptions& o) {
          if (index == 0) {
            o.handoff_fault = [stage](HandoffStage at) {
              return at == stage
                         ? Status::Internal(StrCat(
                               "injected kill at handoff stage ",
                               HandoffStageToString(at)))
                         : Status::OK();
            };
          }
        });
    const std::string key =
        KeyForShard(FabricRing::Make(fabric.endpoints), 0, tag.c_str());
    FabricClient client(fabric.endpoints);
    ASSERT_TRUE(
        client.Submit(key, MakeJob(GridSpec(5, 6), threads(), 40)).ok());

    // The protocol aborts at the armed stage...
    Status handoff = fabric.members[0]->HandoffShard(0, fabric.endpoints[1]);
    if (stage == HandoffStage::kConfirm) {
      // ...except confirm, where the successor has already adopted —
      // the abort is bookkeeping-only and the move is complete.
      EXPECT_FALSE(handoff.ok());
      EXPECT_EQ(SoleOwnerOf(fabric, 0), 1u);
    } else {
      ASSERT_FALSE(handoff.ok());
    }

    // ...and then the member dies outright (kernel frees its flocks).
    fabric.members[0].reset();

    // Recovery is the ordinary adoption path — idempotent when the
    // successor already took the shard during the protocol.
    ASSERT_TRUE(fabric.members[1]->AdoptShard(0).ok());
    EXPECT_EQ(SoleOwnerOf(fabric, 0), 1u);

    auto reply = client.SubmitAndAwait(
        key, MakeJob(GridSpec(5, 6), threads(), 40));
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->evidence, expected);
    EXPECT_EQ(TimesCompleted(fabric, key), 1u) << "job served twice";
    ExpectNoCorruption(fabric);
  }
}

INSTANTIATE_TEST_SUITE_P(
    MembersByThreads, FabricChaosSweepTest,
    ::testing::Values(std::make_tuple(2, 1), std::make_tuple(2, 8),
                      std::make_tuple(3, 1), std::make_tuple(3, 8)),
    [](const ::testing::TestParamInfo<std::tuple<size_t, size_t>>& info) {
      return StrCat("members", std::get<0>(info.param), "threads",
                    std::get<1>(info.param));
    });

// --- Successor failure modes -----------------------------------------

TEST(FabricChaosTest, DeadSuccessorFailsHandoffAndThirdMemberAdopts) {
  const std::string expected = DirectRcdpEvidence(GridSpec(5, 6), 1);
  Fabric fabric = StartFabric("deadsucc", 3,
                              [](size_t index, FabricMemberOptions& o) {
                                if (index == 0) {
                                  o.handoff_adopt_deadline =
                                      std::chrono::milliseconds(500);
                                }
                              });
  const std::string key =
      KeyForShard(FabricRing::Make(fabric.endpoints), 0, "deadsucc");
  FabricClient client(fabric.endpoints);
  ASSERT_TRUE(client.Submit(key, MakeJob(GridSpec(5, 6), 1, 40)).ok());

  // The successor dies before the adopt RPC can reach it: the handoff
  // flushes, journals, and releases, then fails typed at the adopt
  // stage — the shard is flock-free with a record naming the corpse.
  fabric.members[1].reset();
  Status handoff = fabric.members[0]->HandoffShard(0, fabric.endpoints[1]);
  ASSERT_FALSE(handoff.ok());
  EXPECT_EQ(fabric.members[0]->shard_service(0), nullptr)
      << "departing member kept the shard after the journal stage";

  // A third member adopts and finishes the move.
  ASSERT_TRUE(fabric.members[2]->AdoptShard(0).ok());
  EXPECT_EQ(SoleOwnerOf(fabric, 0), 2u);
  auto reply = client.SubmitAndAwait(key, MakeJob(GridSpec(5, 6), 1, 40));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->evidence, expected);
  EXPECT_EQ(TimesCompleted(fabric, key), 1u);
  ExpectNoCorruption(fabric);
}

TEST(FabricChaosTest, StalledSuccessorFailsHandoffWithoutDoubleServing) {
  const std::string expected = DirectRcdpEvidence(GridSpec(5, 6), 1);
  Fabric fabric = StartFabric("stallsucc", 3,
                              [](size_t index, FabricMemberOptions& o) {
                                if (index == 0) {
                                  o.handoff_adopt_deadline =
                                      std::chrono::milliseconds(400);
                                }
                              });
  const std::string key =
      KeyForShard(FabricRing::Make(fabric.endpoints), 0, "stallsucc");
  FabricClient client(fabric.endpoints);
  ASSERT_TRUE(client.Submit(key, MakeJob(GridSpec(5, 6), 1, 40)).ok());

  // The successor stalls: it swallows every reply (the work may still
  // happen — the ambiguous-outcome case). The departing member's adopt
  // RPC times out and the handoff reports failure...
  SocketFaultPlan stall;
  stall.kind = SocketFaultPlan::Kind::kStall;
  stall.every = 1;
  fabric.members[1]->server()->InjectFault(stall);
  Status handoff = fabric.members[0]->HandoffShard(0, fabric.endpoints[1]);
  ASSERT_FALSE(handoff.ok());

  // ...but ambiguity never means double-serving: however the race
  // lands, at most one member holds the shard, and once the stall
  // clears the fabric converges on exactly one bit-for-bit completion.
  fabric.members[1]->server()->InjectFault(SocketFaultPlan());
  if (SoleOwnerOf(fabric, 0) == std::string::npos) {
    ASSERT_TRUE(fabric.members[2]->AdoptShard(0).ok());
  }
  EXPECT_NE(SoleOwnerOf(fabric, 0), std::string::npos);
  auto reply = client.SubmitAndAwait(key, MakeJob(GridSpec(5, 6), 1, 40));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->evidence, expected);
  EXPECT_EQ(TimesCompleted(fabric, key), 1u);
  ExpectNoCorruption(fabric);
}

// --- Edge cases and races --------------------------------------------

TEST(FabricChaosTest, HandoffValidationRejectsSelfUnknownAndUnowned) {
  Fabric fabric = StartFabric("valid", 2);
  // To self: kInvalidArgument, both directly and over the wire.
  EXPECT_EQ(fabric.members[0]
                ->HandoffShard(0, fabric.endpoints[0])
                .code(),
            StatusCode::kInvalidArgument);
  FabricClient client(fabric.endpoints);
  Status wire = client.HandoffShard(0, fabric.endpoints[0]);
  EXPECT_EQ(wire.code(), StatusCode::kInvalidArgument);
  // To an endpoint outside the fabric.
  EXPECT_EQ(fabric.members[0]
                ->HandoffShard(0, "unix:/nowhere/not-a-member.sock")
                .code(),
            StatusCode::kInvalidArgument);
  // Of a shard this member does not own.
  EXPECT_EQ(fabric.members[1]
                ->HandoffShard(0, fabric.endpoints[0])
                .code(),
            StatusCode::kFailedPrecondition);
  // Of a shard that does not exist.
  EXPECT_EQ(fabric.members[0]
                ->HandoffShard(99, fabric.endpoints[1])
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(FabricChaosTest, ConcurrentHandoffAndAdoptResolveHighestEpochWins) {
  const std::string expected = DirectRcdpEvidence(GridSpec(5, 6), 1);
  // Member 0 hands shard 0 to member 1; between the release and the
  // adopt RPC, member 2 races in and adopts the shard first. The
  // handoff must fail typed (member 1 cannot take the flock), and the
  // fabric must converge on member 2 — whose epoch outranks the
  // journaled handoff record.
  std::function<Status(HandoffStage)> hook;
  Fabric fabric = StartFabric("race", 3,
                              [&](size_t index, FabricMemberOptions& o) {
                                if (index == 0) {
                                  o.handoff_fault = [&hook](HandoffStage s) {
                                    return hook ? hook(s) : Status::OK();
                                  };
                                }
                              });
  const std::string key =
      KeyForShard(FabricRing::Make(fabric.endpoints), 0, "race");
  FabricClient client(fabric.endpoints);
  ASSERT_TRUE(client.Submit(key, MakeJob(GridSpec(5, 6), 1, 40)).ok());

  std::atomic<bool> raced{false};
  hook = [&](HandoffStage stage) {
    if (stage == HandoffStage::kAdopt) {
      // The flock is free (release already ran); the third member
      // wins the race before the successor is even asked.
      Status adopted = fabric.members[2]->AdoptShard(0);
      EXPECT_TRUE(adopted.ok()) << adopted.ToString();
      raced = true;
    }
    return Status::OK();
  };
  Status handoff = fabric.members[0]->HandoffShard(0, fabric.endpoints[1]);
  ASSERT_TRUE(raced.load());
  EXPECT_FALSE(handoff.ok()) << "handoff succeeded despite a lost race";
  EXPECT_EQ(SoleOwnerOf(fabric, 0), 2u);

  // Highest epoch wins: the racer's published ring outranks the
  // journaled handoff record, so clients converge on member 2.
  ASSERT_TRUE(client.RefreshRing().ok());
  EXPECT_EQ(client.ring().endpoints[0], fabric.endpoints[2]);
  auto reply = client.SubmitAndAwait(key, MakeJob(GridSpec(5, 6), 1, 40));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->evidence, expected);
  EXPECT_EQ(TimesCompleted(fabric, key), 1u);
  ExpectNoCorruption(fabric);
}

TEST(FabricChaosTest, TornFramesDuringHandoffTrafficStayExactlyOnce) {
  const std::string expected = DirectRcdpEvidence(GridSpec(5, 6), 1);
  Fabric fabric = StartFabric("torn", 2);
  const FabricRing placement = FabricRing::Make(fabric.endpoints);
  FabricClient client(fabric.endpoints);

  // Every third reply from member 0 is torn mid-frame while its shard
  // is being handed off under live traffic — the client's retries and
  // the submit idempotency keys must absorb all of it.
  SocketFaultPlan torn;
  torn.kind = SocketFaultPlan::Kind::kTornFrame;
  torn.every = 3;
  torn.at_byte = 9;
  fabric.members[0]->server()->InjectFault(torn);

  std::vector<std::string> keys;
  for (size_t shard = 0; shard < 2; ++shard) {
    keys.push_back(
        KeyForShard(placement, shard, StrCat("torn", shard).c_str()));
    (void)client.Submit(keys.back(), MakeJob(GridSpec(5, 6), 1, 40));
  }
  // The handoff itself is driven member-side (operators do not lose
  // control-plane access to a member with a flaky client-facing link).
  ASSERT_TRUE(fabric.members[0]->HandoffShard(0, fabric.endpoints[1]).ok());
  EXPECT_EQ(SoleOwnerOf(fabric, 0), 1u);

  for (const std::string& key : keys) {
    auto reply = client.SubmitAndAwait(key, MakeJob(GridSpec(5, 6), 1, 40));
    ASSERT_TRUE(reply.ok()) << key << ": " << reply.status().ToString();
    EXPECT_EQ(reply->evidence, expected) << key;
    EXPECT_EQ(TimesCompleted(fabric, key), 1u) << key;
  }
  ExpectNoCorruption(fabric);
}

// --- Rebalance planner -----------------------------------------------

TEST(FabricRebalanceTest, PlansAreMinimalDeterministicAndBalanced) {
  FabricRing ring = FabricRing::Make({"a", "b", "c"});
  // Balanced already: no moves.
  EXPECT_TRUE(PlanRebalance(ring, {"a", "b", "c"}).empty());

  // One orphan: exactly one move, to the least-loaded member.
  ring.endpoints = {"a", "", "c"};
  RebalancePlan orphan = PlanRebalance(ring, {"a", "b", "c"});
  ASSERT_EQ(orphan.moves.size(), 1u);
  EXPECT_EQ(orphan.moves[0].shard, 1u);
  EXPECT_EQ(orphan.moves[0].from, "");  // executed as an adopt
  EXPECT_EQ(orphan.moves[0].to, "b");

  // A member drained out of `live`: its shards re-home, nothing else
  // moves.
  ring.endpoints = {"a", "b", "c"};
  RebalancePlan departed = PlanRebalance(ring, {"a", "c"});
  ASSERT_EQ(departed.moves.size(), 1u);
  EXPECT_EQ(departed.moves[0].shard, 1u);
  EXPECT_EQ(departed.moves[0].to, "a");  // ceil(3/2)=2: a gets it first

  // A join: the overloaded member sheds its highest shards to the
  // newcomers, deterministically.
  ring.endpoints = {"a", "a", "a"};
  RebalancePlan join = PlanRebalance(ring, {"a", "b", "c"});
  ASSERT_EQ(join.moves.size(), 2u);
  EXPECT_EQ(join.moves[0].shard, 1u);
  EXPECT_EQ(join.moves[0].from, "a");
  EXPECT_EQ(join.moves[0].to, "b");
  EXPECT_EQ(join.moves[1].shard, 2u);
  EXPECT_EQ(join.moves[1].to, "c");

  // Determinism: the identical inputs plan the identical sequence.
  EXPECT_EQ(PlanRebalance(ring, {"a", "b", "c"}).Describe(),
            join.Describe());

  // Drain: every shard of the drained member, least-loaded target
  // first; nobody else is touched.
  ring.endpoints = {"a", "b", "a"};
  RebalancePlan drain = PlanDrain(ring, "a");
  ASSERT_EQ(drain.moves.size(), 2u);
  EXPECT_EQ(drain.moves[0].shard, 0u);
  EXPECT_EQ(drain.moves[0].from, "a");
  EXPECT_EQ(drain.moves[0].to, "b");
  EXPECT_EQ(drain.moves[1].shard, 2u);
  EXPECT_EQ(drain.moves[1].to, "b");
  // Draining the last member plans nothing rather than orphaning.
  ring.endpoints = {"a", "a", "a"};
  EXPECT_TRUE(PlanDrain(ring, "a").empty());
}

TEST(FabricRebalanceTest, ExecutedDrainEmptiesAMemberWithLiveJobs) {
  const std::string expected = DirectRcdpEvidence(GridSpec(5, 6), 1);
  Fabric fabric = StartFabric("drain", 3);
  const FabricRing placement = FabricRing::Make(fabric.endpoints);
  FabricClient client(fabric.endpoints);
  std::vector<std::string> keys;
  for (size_t shard = 0; shard < 3; ++shard) {
    keys.push_back(
        KeyForShard(placement, shard, StrCat("drain", shard).c_str()));
    ASSERT_TRUE(
        client.Submit(keys.back(), MakeJob(GridSpec(5, 6), 1, 40)).ok());
  }

  ASSERT_TRUE(client.RefreshRing().ok());
  RebalancePlan plan = PlanDrain(client.ring(), fabric.endpoints[0]);
  ASSERT_EQ(plan.moves.size(), 1u);  // member 0 owns exactly its home shard
  ASSERT_TRUE(ExecutePlan(&client, plan).ok());

  EXPECT_TRUE(fabric.members[0]->owned_shards().empty());
  for (const std::string& key : keys) {
    auto reply = client.SubmitAndAwait(key, MakeJob(GridSpec(5, 6), 1, 40));
    ASSERT_TRUE(reply.ok()) << key << ": " << reply.status().ToString();
    EXPECT_EQ(reply->evidence, expected) << key;
    EXPECT_EQ(TimesCompleted(fabric, key), 1u) << key;
  }
  ExpectNoCorruption(fabric);
}

// --- FabricClient jitter ---------------------------------------------

TEST(FabricClientJitterTest, RetryPauseIsJitteredDeterministicallyBySeed) {
  FabricClientOptions options;
  options.retry_pause = std::chrono::milliseconds(100);
  options.jitter_seed = 42;
  FabricClient a({"unix:/unused-a.sock"}, options);
  FabricClient b({"unix:/unused-b.sock"}, options);
  options.jitter_seed = 43;
  FabricClient c({"unix:/unused-c.sock"}, options);

  bool differs = false;
  for (int i = 0; i < 64; ++i) {
    const auto pa = a.NextRetryPause();
    EXPECT_GE(pa.count(), 50);
    EXPECT_LE(pa.count(), 100);
    // Same seed: the identical deterministic sequence.
    EXPECT_EQ(pa.count(), b.NextRetryPause().count()) << "draw " << i;
    if (pa.count() != c.NextRetryPause().count()) differs = true;
  }
  EXPECT_TRUE(differs) << "different seeds produced identical jitter";

  // A zero pause never sleeps and never underflows.
  options.retry_pause = std::chrono::milliseconds(0);
  FabricClient zero({"unix:/unused-z.sock"}, options);
  EXPECT_EQ(zero.NextRetryPause().count(), 0);
}

// --- Authenticated frames --------------------------------------------

/// Opens a raw stream to a unix:<path> endpoint (bypassing every
/// client-side protocol nicety — the hostile peer).
int RawConnect(const std::string& endpoint) {
  EXPECT_EQ(endpoint.rfind("unix:", 0), 0u);
  const std::string path = endpoint.substr(5);
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0)
      << "connect to " << path;
  return fd;
}

TEST(FabricAuthTest, AuthenticatedFabricServesKeyedPeersEndToEnd) {
  const std::string expected = DirectRcdpEvidence(GridSpec(5, 6), 1);
  const std::string secret = "chaos-shared-secret";
  Fabric fabric = StartFabric("auth", 2,
                              [&](size_t, FabricMemberOptions& o) {
                                o.server_options.auth_key = secret;
                              });
  FabricClientOptions options;
  options.endpoint_options.auth_key = secret;
  FabricClient client(fabric.endpoints, options);

  const std::string key =
      KeyForShard(FabricRing::Make(fabric.endpoints), 0, "auth");
  auto reply = client.SubmitAndAwait(key, MakeJob(GridSpec(5, 6), 1, 40));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->evidence, expected);

  // The planned handoff rides the same authenticated channel (the
  // member-to-member adopt RPC inherits the key).
  ASSERT_TRUE(client.HandoffShard(0, fabric.endpoints[1]).ok());
  EXPECT_EQ(SoleOwnerOf(fabric, 0), 1u);
  ExpectNoCorruption(fabric);
}

TEST(FabricAuthTest, UntaggedAndWrongKeyPeersGetTypedDenials) {
  const std::string secret = "chaos-shared-secret";
  Fabric fabric = StartFabric("deny", 2,
                              [&](size_t, FabricMemberOptions& o) {
                                o.server_options.auth_key = secret;
                              });
  // A keyless peer speaking perfectly valid relcomp-net/1.
  NetClient untagged(fabric.endpoints[0]);
  EXPECT_EQ(untagged.ServerStatus().status().code(),
            StatusCode::kPermissionDenied);
  // A peer with the wrong key: its frames fail tag verification.
  NetClientOptions wrong_options;
  wrong_options.auth_key = "not the secret";
  NetClient wrong(fabric.endpoints[0], wrong_options);
  EXPECT_EQ(wrong.ServerStatus().status().code(),
            StatusCode::kPermissionDenied);
  // The right key still works on the very same server.
  NetClientOptions right_options;
  right_options.auth_key = secret;
  NetClient right(fabric.endpoints[0], right_options);
  EXPECT_TRUE(right.ServerStatus().ok());

  // A keyless FabricClient fails FAST with the typed denial — an auth
  // rejection is a configuration error, not an outage, so the routing
  // loop must not burn its op deadline re-sweeping it.
  FabricClientOptions keyless_options;
  keyless_options.op_deadline = std::chrono::milliseconds(30000);
  FabricClient keyless(fabric.endpoints, keyless_options);
  const auto t0 = std::chrono::steady_clock::now();
  Status denied = keyless.Submit("deny-job", MakeJob(GridSpec(5, 6), 1));
  EXPECT_EQ(denied.code(), StatusCode::kPermissionDenied)
      << denied.ToString();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5))
      << "keyless client burned its op deadline instead of failing fast";
}

TEST(FabricAuthTest, KeyRotationWindowServesOldAndNewKeyedPeers) {
  const std::string old_key = "fabric-key-2025";
  const std::string new_key = "fabric-key-2026";
  // Mid-rotation: the servers already speak the NEW key (tagging every
  // reply with it) but still accept the OLD one as secondary.
  Fabric fabric = StartFabric("rotate", 2,
                              [&](size_t, FabricMemberOptions& o) {
                                o.server_options.auth_key = new_key;
                                o.server_options.auth_key2 = old_key;
                              });
  // A laggard client still on the OLD key: its requests verify via the
  // server's secondary, and the NEW-tagged replies verify via its own.
  NetClientOptions laggard_options;
  laggard_options.auth_key = old_key;
  laggard_options.auth_key2 = new_key;
  NetClient laggard(fabric.endpoints[0], laggard_options);
  EXPECT_TRUE(laggard.ServerStatus().ok());
  // An upgraded client on the NEW key alone works too, so the fleet
  // can roll members and clients in any order.
  NetClientOptions upgraded_options;
  upgraded_options.auth_key = new_key;
  NetClient upgraded(fabric.endpoints[0], upgraded_options);
  EXPECT_TRUE(upgraded.ServerStatus().ok());
  // A client that never learned the NEW key cannot verify the replies:
  // the rotation window lets it REQUEST, not skip the upgrade.
  NetClientOptions stale_options;
  stale_options.auth_key = old_key;
  NetClient stale(fabric.endpoints[0], stale_options);
  EXPECT_EQ(stale.ServerStatus().status().code(),
            StatusCode::kPermissionDenied);

  // Real keyed traffic across the window decides bit-for-bit.
  FabricClientOptions options;
  options.endpoint_options.auth_key = old_key;
  options.endpoint_options.auth_key2 = new_key;
  FabricClient client(fabric.endpoints, options);
  const std::string key =
      KeyForShard(FabricRing::Make(fabric.endpoints), 0, "rotate");
  auto reply = client.SubmitAndAwait(key, MakeJob(GridSpec(5, 6), 1, 40));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->evidence, DirectRcdpEvidence(GridSpec(5, 6), 1));
  ExpectNoCorruption(fabric);
}

TEST(FabricAuthTest, HostileBytesAtAnAuthenticatedServerNeverCrashIt) {
  const std::string secret = "chaos-shared-secret";
  Fabric fabric = StartFabric("hostile", 2,
                              [&](size_t, FabricMemberOptions& o) {
                                o.server_options.auth_key = secret;
                              });
  // Garbage, a torn v2 header, and a v2 frame lying about its lengths:
  // each connection gets closed (after a typed denial where the stream
  // is still parseable), and the server keeps serving keyed peers.
  const std::string hostile[] = {
      std::string(64, '\xff'),
      std::string("RNF2\x03", 5),
      StrCat(std::string("RNF2\x01", 5),
             std::string("\xff\xff\xff\xff\x04\x00\x00\x00zzzz----", 16)),
      std::string("RNF0 pretend-legacy-frame", 25),
  };
  for (const std::string& bytes : hostile) {
    int fd = RawConnect(fabric.endpoints[0]);
    ASSERT_GE(fd, 0);
    (void)!::write(fd, bytes.data(), bytes.size());
    ::shutdown(fd, SHUT_WR);  // EOF: the server need not wait out a deadline
    char buf[256];
    // Drain whatever the server sends until it closes on us.
    while (::read(fd, buf, sizeof(buf)) > 0) {
    }
    ::close(fd);
  }
  NetClientOptions options;
  options.auth_key = secret;
  NetClient keyed(fabric.endpoints[0], options);
  EXPECT_TRUE(keyed.ServerStatus().ok())
      << "server stopped serving after hostile bytes";
  EXPECT_GT(fabric.members[0]->server()->stats().protocol_errors, 0u);
}

}  // namespace
}  // namespace relcomp
