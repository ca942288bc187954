// The fingerprint-keyed verdict cache: hit/miss/insert semantics over
// an optional CheckpointStore, rejection of mis-keyed or corrupted
// store records, invalidation after a delta, durability across store
// reopen, the DecisionService's zero-search serve path (identical to a
// recompute at 1/2/8 threads), a pair of instances whose per-tuple
// hashes XOR to the same fold, and concurrency hammers that run under
// tsan (suite name VerdictCacheConcurrency is in the preset filter).

#include "service/verdict_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
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

// Filler tuples R("w<j>", "u") and target tuples R("t<k>", "t"): the
// master relation M holds all of them, and Q asks for the targets.
constexpr size_t kFillers = 160;
constexpr size_t kTargets = 4;

Tuple FillerTuple(size_t j) {
  return Tuple({Value::Str(StrCat("w", j)), Value::Str("u")});
}

Tuple TargetTuple(size_t k) {
  return Tuple({Value::Str(StrCat("t", k)), Value::Str("t")});
}

std::string CollisionSpec(const std::vector<Tuple>& facts) {
  std::string s = "relation R(a, b)\nmaster relation M(a, b)\n";
  for (size_t k = 0; k < kTargets; ++k) {
    s += StrCat("master fact M(\"t", k, "\", \"t\")\n");
  }
  for (size_t j = 0; j < kFillers; ++j) {
    s += StrCat("master fact M(\"w", j, "\", \"u\")\n");
  }
  for (const Tuple& t : facts) {
    s += StrCat("fact R(\"", t[0].AsString(), "\", \"", t[1].AsString(),
                "\")\n");
  }
  s += "constraint c0(x, y) :- R(x, y) |= M[0, 1]\n";
  s += "query cq Q(x) :- R(x, y), y = \"t\"\n";
  return s;
}

TEST(VerdictCacheTest, InstancesWithEqualXorFoldsAreServedTheirOwnVerdicts) {
  // An XOR fold of per-tuple hashes is linear over GF(2), so anyone can
  // solve for two databases that fold alike. Take fillers S whose
  // hashes XOR to the fourth target's, |S| odd and at most 31, and
  // split S into S_A and S_B with |S_B| = |S_A| + 1. Then
  //   A = {t0..t3} + S_A + C   and   B = {t0..t2} + S_B + C,
  // with C padding both to 19 tuples, fold alike. A holds every target
  // the master allows and is complete; B lacks t3 and is not. A cache
  // keyed by the fold would serve B the verdict decided for A.
  std::vector<uint64_t> fillers;
  for (size_t j = 0; j < kFillers; ++j) {
    fillers.push_back(FingerprintTuple("R", FillerTuple(j)));
  }
  const uint64_t missing = FingerprintTuple("R", TargetTuple(kTargets - 1));
  std::vector<size_t> order(kFillers);
  std::iota(order.begin(), order.end(), 0);
  std::mt19937 rng(7);
  std::optional<std::vector<bool>> solution;
  for (int attempt = 0; attempt < 10000 && !solution.has_value(); ++attempt) {
    std::shuffle(order.begin(), order.end(), rng);
    solution = XorSubset(fillers, order, missing);
    if (!solution.has_value()) continue;
    const auto count = std::count(solution->begin(), solution->end(), true);
    if (count % 2 == 0 || count > 31) solution.reset();
  }
  ASSERT_TRUE(solution.has_value());

  std::vector<size_t> in_s;
  std::vector<size_t> out_s;
  for (size_t j = 0; j < kFillers; ++j) {
    ((*solution)[j] ? in_s : out_s).push_back(j);
  }
  const size_t half = in_s.size() / 2;  // |S_A|
  std::vector<Tuple> a;
  std::vector<Tuple> b;
  for (size_t k = 0; k < kTargets; ++k) {
    a.push_back(TargetTuple(k));
    if (k + 1 < kTargets) b.push_back(TargetTuple(k));
  }
  for (size_t i = 0; i < in_s.size(); ++i) {
    (i < half ? a : b).push_back(FillerTuple(in_s[i]));
  }
  for (size_t i = 0; i + half < 15; ++i) {
    a.push_back(FillerTuple(out_s[i]));
    b.push_back(FillerTuple(out_s[i]));
  }
  const std::string a_text = CollisionSpec(a);
  const std::string b_text = CollisionSpec(b);
  auto a_spec = ParseCompletenessSpec(a_text);
  auto b_spec = ParseCompletenessSpec(b_text);
  ASSERT_TRUE(a_spec.ok()) << a_spec.status().ToString();
  ASSERT_TRUE(b_spec.ok()) << b_spec.status().ToString();
  auto fold = [](const CompletenessSpec& spec) {
    uint64_t acc = 0;
    for (const Tuple& t : spec.db.Get("R")) acc ^= FingerprintTuple("R", t);
    return acc;
  };
  ASSERT_EQ(fold(*a_spec), fold(*b_spec));
  ASSERT_EQ(a_spec->db.TotalTuples(), 19u);
  ASSERT_EQ(b_spec->db.TotalTuples(), 19u);

  EXPECT_NE(FingerprintDatabase(a_spec->db), FingerprintDatabase(b_spec->db));
  EXPECT_NE(FingerprintRcdpInstance(a_spec->queries[0], a_spec->db,
                                    a_spec->master, a_spec->constraints),
            FingerprintRcdpInstance(b_spec->queries[0], b_spec->db,
                                    b_spec->master, b_spec->constraints));

  const std::string a_direct = DirectRcdpEvidence(a_text);
  const std::string b_direct = DirectRcdpEvidence(b_text);
  ASSERT_EQ(a_direct.rfind("COMPLETE|", 0), 0u) << a_direct;
  ASSERT_EQ(b_direct.rfind("INCOMPLETE|", 0), 0u) << b_direct;
  DecisionServiceOptions options;
  options.enable_verdict_cache = true;
  auto service = DecisionService::Start(FreshDir("xor_fold"), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  JobSpec job;
  job.kind = JobKind::kRcdp;
  job.spec_text = a_text;
  ASSERT_TRUE((*service)->Submit("complete", job).ok());
  auto complete = (*service)->Wait("complete");
  ASSERT_TRUE(complete.ok()) << complete.status().ToString();
  EXPECT_EQ(complete->evidence, a_direct);
  job.spec_text = b_text;
  ASSERT_TRUE((*service)->Submit("incomplete", job).ok());
  auto incomplete = (*service)->Wait("incomplete");
  ASSERT_TRUE(incomplete.ok()) << incomplete.status().ToString();
  EXPECT_EQ(incomplete->evidence, b_direct);
  EXPECT_EQ(incomplete->attempts, 1u);
  EXPECT_EQ((*service)->verdicts_served_from_cache(), 0u);
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

TEST(VerdictCacheConcurrency, RequestMemoAndParsedHitsServeOneVerdict) {
  // Threads submit one spec and a byte variant of it (its master facts
  // swapped: other bytes, the same content), alternating. A thread's
  // first submit of each may parse; each later one is a byte-identical
  // repeat of a record whose hit has already returned, so the memo
  // answers it. Every submit is a hit, by the memo or by a parse, and
  // every verdict is the direct one.
  DecisionServiceOptions options;
  options.enable_verdict_cache = true;
  options.num_workers = 2;
  options.max_queue_depth = 1024;
  auto service = DecisionService::Start(FreshDir("memo_race"), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  DecisionService& svc = **service;
  const std::string spec = kIncompleteSpec;
  std::string variant = spec;
  const std::string m0 = "master fact M(0)\n";
  const std::string m1 = "master fact M(1)\n";
  variant.replace(variant.find(m0 + m1), m0.size() + m1.size(), m1 + m0);
  ASSERT_NE(variant, spec);
  const std::string oracle = DirectRcdpEvidence(spec);
  ASSERT_EQ(DirectRcdpEvidence(variant), oracle);
  JobSpec job;
  job.kind = JobKind::kRcdp;
  job.spec_text = spec;
  ASSERT_TRUE(svc.Submit("warm", job).ok());
  ASSERT_TRUE(svc.Wait("warm").ok());
  const VerdictCacheStats before = svc.verdict_cache()->stats();

  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 24;
  std::vector<std::thread> submitters;
  for (size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        JobSpec mine;
        mine.kind = JobKind::kRcdp;
        mine.spec_text = i % 2 == 0 ? spec : variant;
        const std::string id = StrCat("t", t, "-", i);
        const Status submitted = svc.Submit(id, mine);
        EXPECT_TRUE(submitted.ok()) << id << ": " << submitted.ToString();
        auto result = svc.Wait(id);
        ASSERT_TRUE(result.ok()) << id << ": " << result.status().ToString();
        EXPECT_EQ(result->evidence, oracle) << id;
        EXPECT_EQ(result->attempts, 0u) << id;
      }
    });
  }
  for (std::thread& s : submitters) s.join();

  const VerdictCacheStats after = svc.verdict_cache()->stats();
  constexpr size_t kSubmits = kThreads * kPerThread;
  const size_t memo_hits = after.request_hits - before.request_hits;
  const size_t parsed_hits = after.hits - before.hits - memo_hits;
  EXPECT_EQ(memo_hits + parsed_hits, kSubmits);
  EXPECT_GE(memo_hits, kSubmits - 2 * kThreads);
  EXPECT_GE(parsed_hits, 2u);  // each byte form's first submit parses
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(svc.verdicts_served_from_cache(), kSubmits);
}

}  // namespace
}  // namespace relcomp
