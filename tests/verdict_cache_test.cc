// The fingerprint-keyed verdict cache: hit/miss/insert semantics over
// an optional CheckpointStore, rejection of mis-keyed or corrupted
// store records, invalidation after a delta, durability across store
// reopen, the DecisionService's zero-search serve path (identical to a
// recompute at 1/2/8 threads), and a concurrency hammer that runs
// under tsan (suite name VerdictCacheConcurrency is in the preset
// filter).

#include "service/verdict_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "completeness/incremental.h"
#include "completeness/rcdp.h"
#include "relational/delta_batch.h"
#include "service/checkpoint_store.h"
#include "service/decision_service.h"
#include "spec/spec_parser.h"
#include "util/str.h"
#include "test_support.h"

namespace relcomp {
namespace {

std::unique_ptr<CheckpointStore> MustOpen(const std::string& dir) {
  auto store = CheckpointStore::Open(dir);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return std::move(*store);
}

constexpr char kIncompleteSpec[] = R"spec(
relation S(a, b)
master relation M(m)
fact S(0, 0)
master fact M(0)
master fact M(1)
constraint c0(x) :- S(x, y) |= M[0]
query cq Q(x) :- S(x, y)
)spec";

TEST(VerdictCacheTest, MemoryOnlyHitMissInsert) {
  VerdictCache cache(nullptr);
  EXPECT_FALSE(cache.Lookup(0x1234).has_value());
  ASSERT_TRUE(cache.Insert(0x1234, Verdict::kIncomplete, "evidence").ok());
  auto hit = cache.Lookup(0x1234);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->verdict, Verdict::kIncomplete);
  EXPECT_EQ(hit->evidence, "evidence");
  EXPECT_FALSE(cache.Lookup(0x9999).has_value());

  auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.insertions, 1u);
}

TEST(VerdictCacheTest, UnknownVerdictIsRefused) {
  // kUnknown depends on the budget that produced it, not the instance
  // content — caching it would serve stale exhaustion.
  VerdictCache cache(nullptr);
  EXPECT_EQ(cache.Insert(0x1, Verdict::kUnknown, "x").code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(cache.Lookup(0x1).has_value());
}

TEST(VerdictCacheTest, FingerprintMismatchIsRejectedNotServed) {
  const std::string dir = FreshDir("mismatch");
  auto store = MustOpen(dir);

  // A record whose embedded fingerprint is A, filed under B's key —
  // a mis-keyed (or tampered) store entry.
  const uint64_t fp_a = 0x1111111111111111ull;
  const uint64_t fp_b = 0x2222222222222222ull;
  {
    VerdictCache writer(store.get());
    ASSERT_TRUE(writer.Insert(fp_a, Verdict::kComplete, "ok").ok());
  }
  auto payload = store->LoadVerdict(VerdictCache::KeyFor(fp_a));
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  ASSERT_TRUE(store->PersistVerdict(VerdictCache::KeyFor(fp_b), *payload)
                  .ok());

  VerdictCache cache(store.get());
  EXPECT_FALSE(cache.Lookup(fp_b).has_value());
  EXPECT_EQ(cache.stats().rejections, 1u);
  // The honestly keyed record still serves.
  auto hit = cache.Lookup(fp_a);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->evidence, "ok");
}

TEST(VerdictCacheTest, CorruptedRecordIsRejectedNotServed) {
  const std::string dir = FreshDir("corrupt");
  auto store = MustOpen(dir);
  const uint64_t fp = 0xabcdef0123456789ull;
  const std::string key = VerdictCache::KeyFor(fp);
  for (const char* garbage :
       {"", "not-a-verdict", "relcomp-verdict/1 zz C 1:x",
        "relcomp-verdict/1 abcdef0123456789 Q 1:x",
        "relcomp-verdict/1 abcdef0123456789 C 99:short"}) {
    ASSERT_TRUE(store->PersistVerdict(key, garbage).ok());
    VerdictCache cache(store.get());
    EXPECT_FALSE(cache.Lookup(fp).has_value()) << garbage;
    EXPECT_EQ(cache.stats().rejections, 1u) << garbage;
  }
}

TEST(VerdictCacheTest, SurvivesStoreReopen) {
  const std::string dir = FreshDir("reopen");
  const uint64_t fp = 0x5555;
  {
    auto store = MustOpen(dir);
    VerdictCache cache(store.get());
    ASSERT_TRUE(cache.Insert(fp, Verdict::kComplete, "durable").ok());
  }
  auto store = MustOpen(dir);
  VerdictCache cache(store.get());
  auto hit = cache.Lookup(fp);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->verdict, Verdict::kComplete);
  EXPECT_EQ(hit->evidence, "durable");
}

TEST(VerdictCacheTest, StaleEntryInvalidatedAfterDelta) {
  // Keys are content fingerprints, so a delta leaves the pre-update
  // entry unused rather than wrong: the post-update content misses and
  // gets its own entry, and the pre-update entry still serves exactly
  // the pre-update content.
  auto spec = ParseCompletenessSpec(kIncompleteSpec);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const uint64_t pre_fp = FingerprintRcdpInstance(
      spec->queries[0], spec->db, spec->master, spec->constraints);

  const std::string dir = FreshDir("stale");
  auto store = MustOpen(dir);
  VerdictCache cache(store.get());
  ASSERT_TRUE(cache.Insert(pre_fp, Verdict::kIncomplete, "pre").ok());

  DeltaBatch batch;
  batch.db_ops.push_back(
      DeltaOp{true, "S", Tuple({Value::Int(1), Value::Int(0)})});
  auto report = ApplyDeltaBatch(batch, &spec->db, &spec->master);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  const uint64_t post_fp = FingerprintRcdpInstance(
      spec->queries[0], spec->db, spec->master, spec->constraints);
  ASSERT_NE(pre_fp, post_fp);
  EXPECT_FALSE(cache.Lookup(post_fp).has_value());
  ASSERT_TRUE(cache.Insert(post_fp, Verdict::kComplete, "post").ok());
  auto post = cache.Lookup(post_fp);
  ASSERT_TRUE(post.has_value());
  EXPECT_EQ(post->verdict, Verdict::kComplete);
  EXPECT_EQ(post->evidence, "post");
  auto pre = cache.Lookup(pre_fp);
  ASSERT_TRUE(pre.has_value());
  EXPECT_EQ(pre->verdict, Verdict::kIncomplete);
  EXPECT_EQ(pre->evidence, "pre");

  // A fresh cache over the same store serves both from their records.
  VerdictCache fresh(store.get());
  auto reloaded_pre = fresh.Lookup(pre_fp);
  ASSERT_TRUE(reloaded_pre.has_value());
  EXPECT_EQ(reloaded_pre->evidence, "pre");
  auto reloaded_post = fresh.Lookup(post_fp);
  ASSERT_TRUE(reloaded_post.has_value());
  EXPECT_EQ(reloaded_post->evidence, "post");
  EXPECT_EQ(fresh.stats().rejections, 0u);
}

TEST(VerdictCacheTest, ServiceCacheHitEqualsRecomputeAcrossThreadCounts) {
  // A second submission of identical instance content is served from
  // the cache without search, and the served verdict + evidence are
  // bit-for-bit what a fresh decider run produces — at every thread
  // count, since the fingerprint excludes num_threads.
  for (size_t threads : {1u, 2u, 8u}) {
    const std::string dir = FreshDir("svc");
    DecisionServiceOptions options;
    options.enable_verdict_cache = true;
    auto service = DecisionService::Start(dir, options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();

    JobSpec job;
    job.kind = JobKind::kRcdp;
    job.spec_text = kIncompleteSpec;
    job.num_threads = threads;
    ASSERT_TRUE((*service)->Submit("first", job).ok());
    auto first = (*service)->Wait("first");
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    EXPECT_EQ((*service)->verdicts_served_from_cache(), 0u);

    ASSERT_TRUE((*service)->Submit("second", job).ok());
    auto second = (*service)->Wait("second");
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    EXPECT_EQ((*service)->verdicts_served_from_cache(), 1u)
        << threads << " threads";

    const std::string oracle = DirectRcdpEvidence(kIncompleteSpec, threads);
    EXPECT_EQ(first->verdict, second->verdict) << threads << " threads";
    EXPECT_EQ(first->evidence, oracle) << threads << " threads";
    EXPECT_EQ(second->evidence, oracle) << threads << " threads";
  }
}

TEST(VerdictCacheTest, ServiceCacheSurvivesRestart) {
  // The durable verdict record outlives both the job (Forget leaves
  // it) and the process: a restarted service serves it without search.
  const std::string dir = FreshDir("svc_restart");
  DecisionServiceOptions options;
  options.enable_verdict_cache = true;
  std::string evidence;
  {
    auto service = DecisionService::Start(dir, options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    JobSpec job;
    job.kind = JobKind::kRcdp;
    job.spec_text = kIncompleteSpec;
    ASSERT_TRUE((*service)->Submit("warm", job).ok());
    auto r = (*service)->Wait("warm");
    ASSERT_TRUE(r.ok());
    evidence = r->evidence;
  }
  auto service = DecisionService::Start(dir, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  JobSpec job;
  job.kind = JobKind::kRcdp;
  job.spec_text = kIncompleteSpec;
  ASSERT_TRUE((*service)->Submit("served", job).ok());
  auto r = (*service)->Wait("served");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*service)->verdicts_served_from_cache(), 1u);
  EXPECT_EQ(r->evidence, evidence);
}

TEST(VerdictCacheConcurrency, ParallelLookupAndInsert) {
  // Hammer one cache from many threads mixing lookups and inserts on
  // a small fingerprint space; runs under tsan via the preset filter.
  // Invariant checked beyond "no race": a Lookup never returns torn
  // data — the evidence always matches the fingerprint it was inserted
  // under.
  const std::string dir = FreshDir("hammer");
  auto store = MustOpen(dir);
  VerdictCache cache(store.get());
  constexpr size_t kThreads = 8;
  constexpr size_t kIters = 400;
  constexpr uint64_t kSpace = 16;

  std::atomic<size_t> lookups{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, &lookups, t] {
      for (size_t i = 0; i < kIters; ++i) {
        const uint64_t fp = (t * 31 + i) % kSpace;
        if ((t + i) % 2 == 0) {
          auto hit = cache.Lookup(fp);
          ++lookups;
          if (hit.has_value()) {
            EXPECT_EQ(hit->evidence, StrCat("ev-", fp));
          }
        } else {
          EXPECT_TRUE(cache
                          .Insert(fp,
                                  fp % 2 == 0 ? Verdict::kComplete
                                              : Verdict::kIncomplete,
                                  StrCat("ev-", fp))
                          .ok());
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();

  // Every Lookup resolved to exactly one of hit/miss (no rejection:
  // all records are well-formed), torn outcomes would have failed the
  // evidence check above.
  auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, lookups.load());
  EXPECT_EQ(stats.rejections, 0u);
}

}  // namespace
}  // namespace relcomp
