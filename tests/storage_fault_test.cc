// The kill-the-disk harness: deterministic storage faults injected at
// every layer that touches the store's filesystem environment.
//
//  * FsEnv / StorageFaultPlan — ordinal addressing, site filters, and
//    the lying-disk fault kinds (short write, lost append, lost
//    rename).
//  * CheckpointStore — the health machine: transient failures degrade,
//    fsync failures close the gate (read-only, refusals without I/O),
//    and ONLY a successful probe heals.
//  * DecisionService — degraded mode: a miss's durable admission shed
//    typed, verdict-cache hits still served, running jobs finishing in
//    memory bit-for-bit, and the background prober self-healing.
//  * The sweeps — a fault of every kind at every matching store-op
//    ordinal, followed by a clean restart: verdicts bit-for-bit vs the
//    unfaulted run, zero corrupt records ever loaded.
//  * FabricMember — the health RPC, client steering, self-eviction of
//    a sick shard to a healthy peer, give-up-tenure on a dead disk,
//    and a degraded member still answering verdict-cache hits.

#include <gtest/gtest.h>
#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fabric/fabric_client.h"
#include "fabric/member.h"
#include "fabric/ring.h"
#include "net/client.h"
#include "net/wire.h"
#include "service/checkpoint_store.h"
#include "service/decision_service.h"
#include "util/fs_env.h"
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

SearchCheckpoint MakeCkpt(size_t rank) {
  SearchCheckpoint ckpt;
  ckpt.decider = "rcdp";
  ckpt.disjunct = 1;
  ckpt.rank = rank;
  ckpt.fingerprint = 0xfeedfacecafebeefull;
  ckpt.payload = "payload";
  return ckpt;
}

StorageFaultPlan Plan(StorageFaultKind kind, uint64_t at,
                      const std::string& site = std::string()) {
  StorageFaultPlan plan;
  plan.kind = kind;
  plan.at = at;
  plan.site = site;
  return plan;
}

StorageFaultPlan EveryPlan(StorageFaultKind kind, uint64_t every,
                           const std::string& site = std::string()) {
  StorageFaultPlan plan;
  plan.kind = kind;
  plan.every = every;
  plan.site = site;
  return plan;
}

// ---------------------------------------------------------------------------
// The environment itself: ordinal addressing and the lying-disk kinds.

TEST(StorageFaultEnvTest, OrdinalCountsOnlyKindAndSiteMatchingOps) {
  FsEnv env;
  env.set_fault_plan(Plan(StorageFaultKind::kFsyncFail, /*at=*/2,
                          /*site=*/"dirsync"));
  const std::string path = FreshFile("env_ordinal");
  int fd = env.Open("dirsync", path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                    0644);
  ASSERT_GE(fd, 0);
  // An open is never an fsync match; a record-site fsync fails the
  // site filter; only dirsync fsyncs count toward `at`.
  EXPECT_EQ(env.Fsync("record.ckpt", fd), 0);  // site mismatch: no count
  EXPECT_EQ(env.Fsync("dirsync", fd), 0);      // match #1: below `at`
  errno = 0;
  EXPECT_EQ(env.Fsync("dirsync", fd), -1);     // match #2: fires
  EXPECT_EQ(errno, EIO);
  EXPECT_EQ(env.Fsync("dirsync", fd), 0);      // `at` is one-shot
  ::close(fd);
  env.Unlink("gc", path.c_str());
  EXPECT_EQ(env.faults_injected(), 1u);
  EXPECT_EQ(env.last_fault_site(), "dirsync");
}

TEST(StorageFaultEnvTest, ShortWriteLandsExactlyThePrefix) {
  FsEnv env;
  StorageFaultPlan plan = Plan(StorageFaultKind::kShortWrite, 1);
  plan.short_bytes = 3;
  env.set_fault_plan(plan);
  const std::string path = FreshFile("env_short");
  int fd = env.Open("x", path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  errno = 0;
  EXPECT_EQ(env.Write("x", fd, "abcdef", 6), 3);
  EXPECT_EQ(errno, ENOSPC);
  ::close(fd);
  // The prefix genuinely landed — the torn tail later layers must eat.
  EXPECT_EQ(ReadFile(path), "abc");
  ::unlink(path.c_str());
}

TEST(StorageFaultEnvTest, LostAppendAndLostRenameLieAboutSuccess) {
  FsEnv env;
  const std::string a = FreshFile("env_lie_a");
  const std::string b = FreshFile("env_lie_b");
  env.set_fault_plan(Plan(StorageFaultKind::kLostAppend, 1));
  int fd = env.Open("x", a.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(env.Write("x", fd, "gone", 4), 4);  // claims success
  ::close(fd);
  EXPECT_EQ(ReadFile(a), "");  // ...wrote nothing

  env.set_fault_plan(Plan(StorageFaultKind::kLostRename, 1));
  EXPECT_EQ(env.Rename("x", a.c_str(), b.c_str()), 0);  // claims success
  EXPECT_EQ(::access(a.c_str(), F_OK), 0);   // source still there
  EXPECT_NE(::access(b.c_str(), F_OK), 0);   // target never appeared
  ::unlink(a.c_str());
}

// ---------------------------------------------------------------------------
// The store's health machine.

TEST(StorageFaultStoreTest, WriteFailureDegradesAndOnlyAProbeHeals) {
  FsEnv env;
  CheckpointStoreOptions options;
  options.fs_env = &env;
  auto store = CheckpointStore::Open(FreshDir("degrade"), options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  env.set_fault_plan(Plan(StorageFaultKind::kEio, 1, "record"));
  EXPECT_FALSE((*store)->PersistJob("a", "payload").ok());
  EXPECT_EQ((*store)->health(), StoreHealth::kDegraded);
  EXPECT_GE((*store)->health_report().write_failures, 1u);

  // A lucky write does NOT heal: no degraded→healthy flap without an
  // actual probe success.
  ASSERT_TRUE((*store)->PersistJob("a", "payload").ok());
  EXPECT_EQ((*store)->health(), StoreHealth::kDegraded);

  ASSERT_TRUE((*store)->ProbeHealth().ok());
  EXPECT_EQ((*store)->health(), StoreHealth::kHealthy);
  const StoreHealthReport report = (*store)->health_report();
  EXPECT_GE(report.probes_attempted, 1u);
  EXPECT_GE(report.probes_succeeded, 1u);
}

TEST(StorageFaultStoreTest, FsyncFailureClosesGateAndRefusesWithoutIo) {
  FsEnv env;
  CheckpointStoreOptions options;
  options.fs_env = &env;
  auto store = CheckpointStore::Open(FreshDir("gate"), options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  env.set_fault_plan(Plan(StorageFaultKind::kFsyncFail, 1));
  EXPECT_FALSE((*store)->PersistJob("a", "payload").ok());
  EXPECT_EQ((*store)->health(), StoreHealth::kReadOnly);
  EXPECT_GE((*store)->health_report().fsync_failures, 1u);

  // Read-only means refusal BEFORE I/O: the kernel admitted it may
  // have lost acknowledged bytes, so hammering the disk helps nobody.
  const uint64_t ops_before = env.ops_issued();
  Status refused = (*store)->PersistJob("b", "payload");
  EXPECT_EQ(refused.code(), StatusCode::kUnavailable);
  EXPECT_EQ(env.ops_issued(), ops_before);

  // The probe is exactly the op allowed past the gate, and its success
  // is the single healing edge.
  ASSERT_TRUE((*store)->ProbeHealth().ok());
  EXPECT_EQ((*store)->health(), StoreHealth::kHealthy);
  ASSERT_TRUE((*store)->PersistJob("b", "payload").ok());
  auto loaded = (*store)->LoadJob("b");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, "payload");
}

TEST(StorageFaultStoreTest, ShortWriteTornTmpIsNeverLoaded) {
  const std::string dir = FreshDir("torn");
  FsEnv env;
  CheckpointStoreOptions options;
  options.fs_env = &env;
  {
    auto store = CheckpointStore::Open(dir, options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    env.set_fault_plan(Plan(StorageFaultKind::kShortWrite, 1, "record"));
    EXPECT_FALSE((*store)->PersistCheckpoint("a", MakeCkpt(1)).ok());
    EXPECT_EQ((*store)->health(), StoreHealth::kDegraded);
    EXPECT_EQ((*store)->LoadLatestCheckpoint("a").status().code(),
              StatusCode::kNotFound);
  }
  // A clean reopen sees no checkpoint and, critically, loads nothing
  // corrupt — the torn prefix never reached a record name.
  auto reopened = CheckpointStore::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->LoadLatestCheckpoint("a").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ((*reopened)->corrupt_files_skipped(), 0u);
}

TEST(StorageFaultStoreTest, LostRenameSurfacesAsMissingNotCorrupt) {
  const std::string dir = FreshDir("lostrename");
  FsEnv env;
  CheckpointStoreOptions options;
  options.fs_env = &env;
  {
    auto store = CheckpointStore::Open(dir, options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    env.set_fault_plan(Plan(StorageFaultKind::kLostRename, 1, "record"));
    // The lying disk: rename claims success, the record never appears.
    ASSERT_TRUE((*store)->PersistJob("a", "payload").ok());
    EXPECT_FALSE((*store)->LoadJob("a").ok());
  }
  // Recovery is honest about the loss: the store opens, the record is
  // simply absent, and nothing corrupt was ever surfaced.
  auto reopened = CheckpointStore::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_FALSE((*reopened)->LoadJob("a").ok());
  EXPECT_EQ((*reopened)->corrupt_files_skipped(), 0u);
}

TEST(StorageFaultStoreTest, RecordLostAppendIsRefusedAsCorrupt) {
  const std::string dir = FreshDir("lostappend");
  FsEnv env;
  CheckpointStoreOptions options;
  options.fs_env = &env;
  {
    auto store = CheckpointStore::Open(dir, options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    env.set_fault_plan(Plan(StorageFaultKind::kLostAppend, 1, "record.job"));
    // The lying disk acks the record's bytes and keeps none: the rename
    // puts an empty file under the record's name.
    ASSERT_TRUE((*store)->PersistJob("a", "payload").ok());
    EXPECT_EQ(env.faults_injected(), 1u);
  }
  // The name alone makes "a" pending, but its empty record fails
  // integrity: refused typed, counted, never loaded.
  auto reopened = CheckpointStore::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->PendingRequests(), std::vector<std::string>{"a"});
  auto loaded = (*reopened)->LoadJob("a");
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
      << loaded.status().ToString();
  EXPECT_EQ((*reopened)->corrupt_files_skipped(), 1u);
}

// ---------------------------------------------------------------------------
// Degraded-mode service.

DecisionServiceOptions ServiceOptions(FsEnv* env, bool cache = false) {
  DecisionServiceOptions options;
  options.num_workers = 1;
  options.store_options.fs_env = env;
  options.enable_verdict_cache = cache;
  return options;
}

TEST(StorageFaultServiceTest, DegradedShedsTypedAndServesCacheHits) {
  FsEnv env;
  auto service = DecisionService::Start(FreshDir("shed"),
                                        ServiceOptions(&env, /*cache=*/true));
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  const std::string spec = GridSpec(1, 2);

  // A clean run populates the verdict cache.
  ASSERT_TRUE((*service)->Submit("a", MakeJob(spec)).ok());
  auto first = (*service)->Wait("a");
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  // Kill the disk. The next durable admission fails its persist, flips
  // the service degraded, and is shed typed.
  env.set_fault_plan(EveryPlan(StorageFaultKind::kEio, 1, "record"));
  Status shed = (*service)->Submit("b", MakeJob(GridSpec(2, 2)));
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE((*service)->degraded());
  EXPECT_GE((*service)->submits_shed_degraded(), 1u);

  // A cache hit needs no durability: answered at admission, from
  // memory, bit-for-bit the cached verdict.
  ASSERT_TRUE((*service)->Submit("c", MakeJob(spec)).ok());
  auto cached = (*service)->Wait("c");
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();
  EXPECT_EQ(cached->evidence, first->evidence);
  EXPECT_EQ((*service)->ephemeral_admissions(), 1u);

  // Heal: disarm the disk, probe, and durable admission returns. A
  // working disk alone is NOT enough — until the probe, submits shed.
  Status still_shed = (*service)->Submit("d", MakeJob(GridSpec(2, 3)));
  EXPECT_EQ(still_shed.code(), StatusCode::kResourceExhausted);
  env.set_fault_plan(StorageFaultPlan());
  EXPECT_EQ((*service)->HealthState(), "degraded");
  ASSERT_TRUE((*service)->ProbeStoreNow().ok());
  EXPECT_FALSE((*service)->degraded());
  EXPECT_EQ((*service)->HealthState(), "healthy");
  ASSERT_TRUE((*service)->Submit("e", MakeJob(GridSpec(2, 4))).ok());
  EXPECT_TRUE((*service)->Wait("e").ok());
}

TEST(StorageFaultServiceTest, DegradedJobCompletesInMemoryBitForBit) {
  FsEnv env;
  DecisionServiceOptions options = ServiceOptions(&env);
  options.start_paused = true;
  auto service = DecisionService::Start(FreshDir("inmem"), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  const std::string spec = GridSpec(5, 6);
  ASSERT_TRUE(
      (*service)->Submit("job", MakeJob(spec, /*threads=*/1, /*slice=*/1))
          .ok());
  // The first checkpoint persist hits a dead disk; the search keeps
  // going in memory and the verdict is bit-for-bit the oracle's.
  env.set_fault_plan(Plan(StorageFaultKind::kEio, 1, "record.ckpt"));
  (*service)->Resume();
  auto result = (*service)->Wait("job");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->evidence, DirectRcdpEvidence(spec));
  EXPECT_TRUE((*service)->degraded());
  EXPECT_GE((*service)->persists_skipped_degraded(), 1u);
  EXPECT_EQ((*service)->HealthLine("0").substr(0, 6), "shard ");

  ASSERT_TRUE((*service)->ProbeStoreNow().ok());
  EXPECT_FALSE((*service)->degraded());
}

TEST(StorageFaultServiceTest, BackgroundProberHealsWithBackoff) {
  FsEnv env;
  DecisionServiceOptions options = ServiceOptions(&env);
  options.start_paused = true;
  options.store_probe_interval = std::chrono::milliseconds(10);
  options.store_probe_backoff_cap = std::chrono::milliseconds(50);
  auto service = DecisionService::Start(FreshDir("prober"), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  ASSERT_TRUE(
      (*service)->Submit("job", MakeJob(GridSpec(2, 3), 1, /*slice=*/1))
          .ok());
  // Every store write now fails — including probes, so the prober
  // backs off and keeps trying instead of flapping.
  env.set_fault_plan(EveryPlan(StorageFaultKind::kEio, 1));
  (*service)->Resume();
  auto result = (*service)->Wait("job");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE((*service)->degraded());

  // Let the prober fail at least once against the dead disk, then
  // bring the disk back and wait for self-healing — no manual probe.
  const auto failing_until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(100);
  while (std::chrono::steady_clock::now() < failing_until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE((*service)->degraded());
  env.set_fault_plan(StorageFaultPlan());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while ((*service)->degraded() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_FALSE((*service)->degraded());
  EXPECT_GE((*service)->store().health_report().probes_succeeded, 1u);
}

// The service-level kill-the-disk sweep: every fault kind at every
// matching store-op ordinal, from store open through job completion.
// Whatever the fault does — refuse the open, shed the submit, degrade
// the service mid-run — the verdict that IS produced matches the
// oracle bit-for-bit, and a clean restart recovers the directory with
// zero corrupt records loaded.
TEST(StorageFaultServiceTest, KillTheDiskSweepRecoversBitForBit) {
  const std::string spec = GridSpec(5, 6);
  const std::string expected = DirectRcdpEvidence(spec);
  const StorageFaultKind kinds[] = {
      StorageFaultKind::kEio,        StorageFaultKind::kEnospc,
      StorageFaultKind::kShortWrite, StorageFaultKind::kFsyncFail,
      StorageFaultKind::kLostRename,
  };
  size_t runs = 0;
  for (StorageFaultKind kind : kinds) {
    for (uint64_t ordinal = 1; ordinal < 4096; ++ordinal) {
      const std::string dir =
          FreshDir(StorageFaultKindToString(kind));
      FsEnv env;
      env.set_fault_plan(Plan(kind, ordinal));
      {
        auto service =
            DecisionService::Start(dir, ServiceOptions(&env));
        if (service.ok()) {
          Status submitted =
              (*service)->Submit("job", MakeJob(spec, 1, /*slice=*/1));
          if (submitted.ok()) {
            auto result = (*service)->Wait("job");
            ASSERT_TRUE(result.ok())
                << StorageFaultKindToString(kind) << " at " << ordinal
                << ": " << result.status().ToString();
            EXPECT_EQ(result->evidence, expected)
                << StorageFaultKindToString(kind) << " at " << ordinal;
          } else {
            // A submit-time fault sheds typed — never hangs, never
            // crashes the process.
            EXPECT_EQ(submitted.code(), StatusCode::kResourceExhausted)
                << submitted.ToString();
          }
        }
      }
      const bool fired = env.faults_injected() > 0;
      // Clean restart: the directory must recover whatever the fault
      // left, load nothing corrupt, and serve the job to the same
      // verdict.
      env.set_fault_plan(StorageFaultPlan());
      auto recovered = DecisionService::Start(dir, ServiceOptions(&env));
      ASSERT_TRUE(recovered.ok())
          << StorageFaultKindToString(kind) << " at " << ordinal << ": "
          << recovered.status().ToString();
      for (const std::string& id : (*recovered)->RecoveredJobs()) {
        auto resumed = (*recovered)->Wait(id);
        ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
        EXPECT_EQ(resumed->evidence, expected)
            << StorageFaultKindToString(kind) << " at " << ordinal;
      }
      ASSERT_TRUE(
          (*recovered)->Submit("again", MakeJob(spec, 1, /*slice=*/1)).ok());
      auto rerun = (*recovered)->Wait("again");
      ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
      EXPECT_EQ(rerun->evidence, expected)
          << StorageFaultKindToString(kind) << " at " << ordinal;
      EXPECT_EQ((*recovered)->store().corrupt_files_skipped(), 0u)
          << StorageFaultKindToString(kind) << " at " << ordinal;
      ++runs;
      // Past the last matching op for this kind: the plan never fired.
      if (!fired) break;
    }
  }
  // The sweep must actually have swept (one no-fire run per kind is
  // the sentinel tail).
  EXPECT_GE(runs, 5u * 2u);
}

// Named for the tsan preset's filter: concurrent submits, probes, and
// health reads against an intermittently failing disk.
TEST(StorageFaultConcurrencyTest, ConcurrentSubmitsProbesAndHealthReads) {
  FsEnv env;
  DecisionServiceOptions options = ServiceOptions(&env, /*cache=*/true);
  options.num_workers = 4;
  options.max_queue_depth = 256;
  auto service = DecisionService::Start(FreshDir("conc"), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  const std::string spec = GridSpec(1, 2);
  ASSERT_TRUE((*service)->Submit("seed", MakeJob(spec)).ok());
  ASSERT_TRUE((*service)->Wait("seed").ok());

  env.set_fault_plan(EveryPlan(StorageFaultKind::kEio, 7));
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        // Same-content submissions: cache hits while degraded, durable
        // admissions while healthy — both races the sweep cares about.
        (void)(*service)->Submit(StrCat("t", t, "-", i), MakeJob(spec));
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)(*service)->ProbeStoreNow();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)(*service)->HealthState();
      (void)(*service)->HealthLine("x");
      (void)(*service)->store().health_report();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true);
  for (std::thread& t : threads) t.join();

  // Disarm and heal: the service must still be fully functional.
  env.set_fault_plan(StorageFaultPlan());
  ASSERT_TRUE((*service)->ProbeStoreNow().ok());
  EXPECT_FALSE((*service)->degraded());
  ASSERT_TRUE((*service)->Submit("final", MakeJob(spec)).ok());
  auto result = (*service)->Wait("final");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->evidence, DirectRcdpEvidence(spec));
}

// ---------------------------------------------------------------------------
// The fabric: health RPC, steering, self-eviction, give-up-tenure.

struct Fabric {
  std::string root;
  std::vector<std::string> endpoints;
  std::vector<std::unique_ptr<FsEnv>> disks;  // one "disk" per member
  std::vector<std::unique_ptr<FabricMember>> members;
};

Fabric StartFabric(const char* tag, size_t n, bool cache = false) {
  Fabric fabric;
  fabric.root = FreshDir(tag);
  for (size_t i = 0; i < n; ++i) {
    fabric.endpoints.push_back(FreshSocket(tag));
    fabric.disks.push_back(std::make_unique<FsEnv>());
  }
  for (size_t i = 0; i < n; ++i) {
    FabricMemberOptions options;
    options.fabric_root = fabric.root;
    options.member_index = i;
    options.endpoints = fabric.endpoints;
    options.service_options.store_options.fs_env = fabric.disks[i].get();
    options.service_options.enable_verdict_cache = cache;
    auto member = FabricMember::Start(options);
    EXPECT_TRUE(member.ok()) << member.status().ToString();
    fabric.members.push_back(member.ok() ? std::move(*member) : nullptr);
  }
  return fabric;
}

std::string KeyForShard(const FabricRing& ring, size_t shard,
                        const char* tag) {
  for (int i = 0;; ++i) {
    std::string key = StrCat("job-", tag, "-", i);
    if (ring.ShardForKey(key) == shard) return key;
  }
}

/// Members currently owning `shard` — convergence demands exactly one.
size_t OwnersOf(const Fabric& fabric, size_t shard) {
  size_t owners = 0;
  for (const auto& member : fabric.members) {
    if (!member) continue;
    for (size_t owned : member->owned_shards()) {
      if (owned == shard) ++owners;
    }
  }
  return owners;
}

void ExpectNoCorruption(Fabric& fabric) {
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

/// Degrades member `index`'s store directly (a control write against a
/// one-shot fault), then leaves its probes failing so the sickness is
/// not transient. The member's next sweep must evict.
void KillDisk(Fabric& fabric, size_t index, size_t shard) {
  FsEnv* disk = fabric.disks[index].get();
  DecisionService* service = fabric.members[index]->shard_service(shard);
  ASSERT_NE(service, nullptr);
  disk->set_fault_plan(Plan(StorageFaultKind::kEio, 1, "record.ctl"));
  EXPECT_FALSE(
      service->mutable_store()->PersistControl("sick", "payload").ok());
  EXPECT_EQ(service->store().health(), StoreHealth::kDegraded);
  disk->set_fault_plan(EveryPlan(StorageFaultKind::kEio, 1, "probe"));
}

TEST(StorageFaultFabricTest, HealthOpAnsweredAndAggregated) {
  Fabric fabric = StartFabric("health", 2);
  NetClient direct(fabric.endpoints[0]);
  auto health = direct.Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(HealthReportState(*health), "healthy");
  EXPECT_NE(health->find("shard 0 state=healthy"), std::string::npos)
      << *health;

  FabricClient client(fabric.endpoints);
  auto fleet = client.FleetHealth();
  ASSERT_EQ(fleet.size(), 2u);
  for (const auto& [endpoint, report] : fleet) {
    EXPECT_EQ(HealthReportState(report), "healthy") << endpoint;
  }

  // A sick member reports itself sick — the health op answers even
  // when the shard behind it cannot persist a byte.
  KillDisk(fabric, 0, 0);
  auto sick = direct.Health();
  ASSERT_TRUE(sick.ok()) << sick.status().ToString();
  EXPECT_EQ(HealthReportState(*sick), "degraded");
}

TEST(StorageFaultFabricTest, SickMemberSelfEvictsToHealthyPeer) {
  Fabric fabric = StartFabric("evict", 2);
  const std::string spec = GridSpec(2, 3);
  KillDisk(fabric, 0, 0);

  // One sweep: shard 0's store is sick and fails its live re-probe, so
  // the member steers the shard to the peer its health RPC says is
  // healthy.
  fabric.members[0]->ProbeAndEvictNow();
  EXPECT_EQ(fabric.members[0]->self_eviction_attempts(), 1u);
  EXPECT_EQ(fabric.members[0]->self_evictions(), 1u);
  EXPECT_TRUE(fabric.members[0]->owned_shards().empty());
  EXPECT_EQ(OwnersOf(fabric, 0), 1u);
  EXPECT_EQ(fabric.members[1]->owned_shards().size(), 2u);

  // The fabric serves shard-0 keys from the adopter, bit-for-bit.
  FabricClient client(fabric.endpoints);
  ASSERT_TRUE(client.RefreshRing().ok());
  const std::string key = KeyForShard(client.ring(), 0, "evict");
  auto result = client.SubmitAndAwait(key, MakeJob(spec));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->evidence, DirectRcdpEvidence(spec));
  ExpectNoCorruption(fabric);

  // Idempotent: a second sweep finds nothing left to evict.
  fabric.members[0]->ProbeAndEvictNow();
  EXPECT_EQ(fabric.members[0]->self_eviction_attempts(), 1u);
}

TEST(StorageFaultFabricTest, DeadDiskGivesUpTenureForAdoption) {
  Fabric fabric = StartFabric("tenure", 2);
  KillDisk(fabric, 0, 0);
  // Now the WHOLE disk dies: even the handoff's journal write fails,
  // so the eviction cannot complete — the member gives up tenure with
  // a truthful no-owner record instead of squatting on a dead shard.
  fabric.disks[0]->set_fault_plan(EveryPlan(StorageFaultKind::kEio, 1));
  fabric.members[0]->ProbeAndEvictNow();
  EXPECT_EQ(fabric.members[0]->self_eviction_attempts(), 1u);
  EXPECT_EQ(fabric.members[0]->self_evictions(), 0u);
  EXPECT_TRUE(fabric.members[0]->owned_shards().empty());
  EXPECT_EQ(OwnersOf(fabric, 0), 0u);

  // The fabric's ordinary orphan-adoption path finishes the move: the
  // flock is free, so the peer adopts and serves.
  FabricClient client(fabric.endpoints);
  Status adopted = client.AdoptShard(0, fabric.endpoints[1]);
  ASSERT_TRUE(adopted.ok()) << adopted.ToString();
  EXPECT_EQ(OwnersOf(fabric, 0), 1u);
  const std::string spec = GridSpec(2, 3);
  const std::string key = KeyForShard(client.ring(), 0, "tenure");
  auto result = client.SubmitAndAwait(key, MakeJob(spec));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->evidence, DirectRcdpEvidence(spec));
  ExpectNoCorruption(fabric);
}

TEST(StorageFaultFabricTest, FullyDegradedMemberStillServesCacheHits) {
  Fabric fabric = StartFabric("cachehit", 2, /*cache=*/true);
  const std::string spec = GridSpec(2, 3);
  FabricClient client(fabric.endpoints);
  ASSERT_TRUE(client.RefreshRing().ok());
  const std::string key = KeyForShard(client.ring(), 0, "warm");
  auto warm = client.SubmitAndAwait(key, MakeJob(spec));
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();

  // Kill member 0's disk completely. The first miss fails its persist
  // and is shed typed, which degrades the member; a cache hit needs no
  // disk and is served from memory all the same.
  fabric.disks[0]->set_fault_plan(EveryPlan(StorageFaultKind::kEio, 1));
  NetClient direct(fabric.endpoints[0]);
  const std::string shed_key = KeyForShard(client.ring(), 0, "shed");
  Status shed = direct.Submit(shed_key, MakeJob(GridSpec(2, 4)));
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted) << shed.ToString();

  const std::string hit_key = KeyForShard(client.ring(), 0, "hit");
  ASSERT_TRUE(direct.Submit(hit_key, MakeJob(spec)).ok());
  auto served = direct.AwaitTerminal(hit_key);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served->evidence, warm->evidence);
  DecisionService* service = fabric.members[0]->shard_service(0);
  ASSERT_NE(service, nullptr);
  EXPECT_GE(service->ephemeral_admissions(), 1u);
  EXPECT_EQ(service->HealthState(), "degraded");

  // And the client's steering table now sorts the sick member last.
  auto fleet = client.FleetHealth();
  ASSERT_EQ(fleet.size(), 2u);
  EXPECT_EQ(HealthReportState(fleet[0].second), "degraded");
  EXPECT_EQ(HealthReportState(fleet[1].second), "healthy");
}

/// One chaos run: a fabric whose victim member's disk fails at the
/// `ordinal`-th matching op, a job keyed to the victim's home shard,
/// then convergence: the verdict (after at most one probe-and-evict
/// sweep and one resubmission) is bit-for-bit the oracle's, exactly
/// one member owns the shard, and nothing corrupt was loaded.
void ChaosRun(const char* tag, size_t members, size_t threads,
              StorageFaultKind kind, uint64_t ordinal,
              const std::string& spec, const std::string& expected,
              bool* fired) {
  Fabric fabric = StartFabric(tag, members);
  FabricClient client(fabric.endpoints);
  ASSERT_TRUE(client.RefreshRing().ok());
  const std::string key = KeyForShard(client.ring(), 0, tag);
  // Arm after start: the sweep addresses the serving workload (the
  // startup ordinals are the service sweep's territory).
  fabric.disks[0]->set_fault_plan(Plan(kind, ordinal));

  auto result =
      client.SubmitAndAwait(key, MakeJob(spec, threads, /*slice=*/1));
  if (!result.ok()) {
    // The fault landed on the submit persist: the shed is typed, and
    // one probe-and-evict sweep must restore service — by healing in
    // place (a spent one-shot fault probes clean) or by handing the
    // shard to a peer.
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
        << StorageFaultKindToString(kind) << " at " << ordinal << ": "
        << result.status().ToString();
    fabric.members[0]->ProbeAndEvictNow();
    result = client.SubmitAndAwait(key, MakeJob(spec, threads, /*slice=*/1));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  EXPECT_EQ(result->evidence, expected)
      << StorageFaultKindToString(kind) << " at " << ordinal;

  // Convergence: one sweep on the victim, then exactly one owner per
  // shard and a clean bill of health everywhere that still serves.
  fabric.members[0]->ProbeAndEvictNow();
  for (size_t shard = 0; shard < members; ++shard) {
    EXPECT_EQ(OwnersOf(fabric, shard), 1u)
        << "shard " << shard << " after " << StorageFaultKindToString(kind)
        << " at " << ordinal;
  }
  ExpectNoCorruption(fabric);
  *fired = fabric.disks[0]->faults_injected() > 0;
}

TEST(StorageFaultFabricTest, KillTheDiskChaosSweepTwoMembers) {
  const std::string spec = GridSpec(5, 6);
  const std::string expected = DirectRcdpEvidence(spec);
  const StorageFaultKind kinds[] = {
      StorageFaultKind::kEio,        StorageFaultKind::kEnospc,
      StorageFaultKind::kShortWrite, StorageFaultKind::kFsyncFail,
      StorageFaultKind::kLostRename,
  };
  for (StorageFaultKind kind : kinds) {
    for (uint64_t ordinal = 1; ordinal < 4096; ++ordinal) {
      bool fired = false;
      ChaosRun("chaos2", /*members=*/2, /*threads=*/1, kind, ordinal, spec,
               expected, &fired);
      if (HasFatalFailure()) return;
      if (!fired) break;  // past the last matching op for this kind
    }
  }
}

TEST(StorageFaultFabricTest, KillTheDiskChaosSweepWideAndThreaded) {
  const std::string spec = GridSpec(5, 6);
  const std::string expected = DirectRcdpEvidence(spec, /*threads=*/8);
  const StorageFaultKind kinds[] = {
      StorageFaultKind::kEio,        StorageFaultKind::kEnospc,
      StorageFaultKind::kShortWrite, StorageFaultKind::kFsyncFail,
      StorageFaultKind::kLostRename,
  };
  // Three members, eight worker threads per search; ordinals strided —
  // the two-member sweep already visits every ordinal densely.
  for (StorageFaultKind kind : kinds) {
    for (uint64_t ordinal = 1; ordinal < 4096; ordinal += 5) {
      bool fired = false;
      ChaosRun("chaos3", /*members=*/3, /*threads=*/8, kind, ordinal, spec,
               expected, &fired);
      if (HasFatalFailure()) return;
      if (!fired) break;
    }
  }
}

}  // namespace
}  // namespace relcomp
