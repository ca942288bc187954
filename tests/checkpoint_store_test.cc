#include "service/checkpoint_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "completeness/rcdp.h"
#include "service/decision_service.h"
#include "spec/spec_parser.h"
#include "util/codec.h"
#include "util/execution_control.h"
#include "util/fs_env.h"
#include "util/str.h"
#include "test_support.h"

namespace relcomp {
namespace {

SearchCheckpoint MakeCkpt(size_t rank, std::string payload = "payload") {
  SearchCheckpoint ckpt;
  ckpt.decider = "rcdp";
  ckpt.disjunct = 1;
  ckpt.rank = rank;
  ckpt.fingerprint = 0xfeedfacecafebeefull;
  ckpt.payload = std::move(payload);
  return ckpt;
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  ASSERT_TRUE(out.good()) << path;
}

// ---------------------------------------------------------------------------
// Round trips and generations.

TEST(CheckpointStoreTest, PersistLoadRoundTripsAndGenerationsIncrement) {
  const std::string dir = FreshDir("roundtrip");
  auto store = CheckpointStore::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  auto g1 = (*store)->PersistCheckpoint("req", MakeCkpt(10));
  ASSERT_TRUE(g1.ok()) << g1.status().ToString();
  EXPECT_EQ(*g1, 1u);
  auto g2 = (*store)->PersistCheckpoint("req", MakeCkpt(20, "later state"));
  ASSERT_TRUE(g2.ok());
  EXPECT_EQ(*g2, 2u);

  auto loaded = (*store)->LoadLatestCheckpoint("req");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->generation, 2u);
  EXPECT_TRUE(loaded->checkpoint == MakeCkpt(20, "later state"));
  EXPECT_EQ((*store)->corrupt_files_skipped(), 0u);
}

TEST(CheckpointStoreTest, JobRecordsRoundTripAndDriveThePendingSet) {
  const std::string dir = FreshDir("jobs");
  auto store = CheckpointStore::Open(dir);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->PersistJob("a", "job payload A").ok());
  ASSERT_TRUE((*store)->PersistJob("b", "job payload B").ok());

  auto pending = (*store)->PendingRequests();
  ASSERT_EQ(pending.size(), 2u);
  EXPECT_EQ(pending[0], "a");
  EXPECT_EQ(pending[1], "b");
  auto payload = (*store)->LoadJob("a");
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(*payload, "job payload A");

  ASSERT_TRUE((*store)->Forget("a").ok());
  EXPECT_EQ((*store)->PendingRequests().size(), 1u);
  EXPECT_EQ((*store)->LoadJob("a").status().code(), StatusCode::kNotFound);
  // Idempotent.
  ASSERT_TRUE((*store)->Forget("a").ok());
}

TEST(CheckpointStoreTest, StateSurvivesReopen) {
  const std::string dir = FreshDir("reopen");
  {
    auto store = CheckpointStore::Open(dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->PersistJob("req", "the job").ok());
    ASSERT_TRUE((*store)->PersistCheckpoint("req", MakeCkpt(7)).ok());
  }
  auto store = CheckpointStore::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto pending = (*store)->PendingRequests();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0], "req");
  auto loaded = (*store)->LoadLatestCheckpoint("req");
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->checkpoint == MakeCkpt(7));
}

// ---------------------------------------------------------------------------
// Durability cost: what each operation asks of the disk.

/// Counts fsyncs by site tag.
class FsyncCounter : public FsEnv {
 public:
  int Fsync(std::string_view site, int fd) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++fsyncs_[std::string(site)];
    }
    return FsEnv::Fsync(site, fd);
  }

  /// The fsyncs issued since the last call, by site.
  std::map<std::string, size_t> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(fsyncs_, {});
  }

 private:
  std::mutex mu_;
  std::map<std::string, size_t> fsyncs_;
};

TEST(CheckpointStoreTest, EachPersistFsyncsItsRecordAndTheDirectoryOnce) {
  using Fsyncs = std::map<std::string, size_t>;
  FsyncCounter env;
  CheckpointStoreOptions options;
  options.fs_env = &env;
  auto store = CheckpointStore::Open(FreshDir("fsyncs"), options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(env.Take(), Fsyncs{});

  ASSERT_TRUE((*store)->PersistJob("req", "the job").ok());
  EXPECT_EQ(env.Take(), (Fsyncs{{"dirsync", 1}, {"record.job", 1}}));
  // The third generation also garbage-collects the first.
  for (size_t rank : {1, 2, 3}) {
    ASSERT_TRUE((*store)->PersistCheckpoint("req", MakeCkpt(rank)).ok());
    EXPECT_EQ(env.Take(), (Fsyncs{{"dirsync", 1}, {"record.ckpt", 1}}))
        << "rank " << rank;
  }
  ASSERT_TRUE((*store)->PersistVerdict("vkey", "the verdict").ok());
  EXPECT_EQ(env.Take(), (Fsyncs{{"dirsync", 1}, {"record.vrd", 1}}));
  ASSERT_TRUE((*store)->PersistControl("ckey", "the ring").ok());
  EXPECT_EQ(env.Take(), (Fsyncs{{"dirsync", 1}, {"record.ctl", 1}}));
  // Forget only unlinks: a lost unlink re-runs a deterministic job.
  ASSERT_TRUE((*store)->Forget("req").ok());
  EXPECT_EQ(env.Take(), Fsyncs{});
  EXPECT_TRUE((*store)->PendingRequests().empty());
}

// ---------------------------------------------------------------------------
// A directory written by the earlier journaled store opens to what its
// record files say.

/// One line of the retired J1 journal: "J1 <op> <id> <gen> <crc>", the
/// CRC-32 covering "<op> <id> <gen>".
std::string J1Line(std::string_view op, std::string_view id,
                   uint64_t generation) {
  const std::string fields = StrCat(op, " ", id, " ", generation);
  return StrCat("J1 ", fields, " ", Hex(Crc32(fields), 8), "\n");
}

TEST(CheckpointStoreTest, JournaledDirectoryOpensToItsRecordFiles) {
  const std::string spec_text = GridSpec(2, 3);
  auto spec = ParseCompletenessSpec(spec_text);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  auto direct = DecideRcdp(spec->queries[0], spec->db, spec->master,
                           spec->constraints, RcdpOptions());
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  ASSERT_EQ(direct->verdict, Verdict::kIncomplete);
  // The service's evidence string of the direct decision.
  const std::string expected =
      StrCat(VerdictToString(direct->verdict), "|",
             direct->counterexample_delta->ToString(), "|",
             direct->new_answer->ToString());
  // A real mid-search checkpoint of the instance, for the survivor.
  ExecutionBudget budget;
  budget.set_max_steps(8);
  RcdpOptions capped;
  capped.budget = &budget;
  auto stopped = DecideRcdp(spec->queries[0], spec->db, spec->master,
                            spec->constraints, capped);
  ASSERT_TRUE(stopped.ok()) << stopped.status().ToString();
  ASSERT_TRUE(stopped->checkpoint.has_value());
  JobSpec job;
  job.kind = JobKind::kRcdp;
  job.spec_text = spec_text;

  const std::string dir = FreshDir("journaled");
  {
    auto store = CheckpointStore::Open(dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->PersistJob("survivor", job.Serialize()).ok());
    ASSERT_TRUE(
        (*store)->PersistCheckpoint("survivor", *stopped->checkpoint).ok());
    ASSERT_TRUE((*store)->PersistJob("finished", job.Serialize()).ok());
    ASSERT_TRUE((*store)->PersistVerdict("vkey", "the verdict").ok());
    ASSERT_TRUE((*store)->PersistControl("ckey", "the ring").ok());
  }
  // The journal beside them is stale in four ways: "phantom"'s job
  // line names a file that is gone, "finished"'s done line did not
  // take its job file with it, "survivor"'s ckpt lines run past its
  // newest file, and a compaction left its temp file behind.
  const std::string journal =
      StrCat(J1Line("job", "survivor", 0), J1Line("ckpt", "survivor", 1),
             J1Line("ckpt", "survivor", 2), J1Line("ckpt", "survivor", 5),
             J1Line("job", "phantom", 0), J1Line("ckpt", "phantom", 1),
             J1Line("job", "finished", 0), J1Line("done", "finished", 0),
             J1Line("vrd", "vkey", 0), J1Line("ctl", "ckey", 0));
  WriteFile(StrCat(dir, "/journal"), journal);
  WriteFile(StrCat(dir, "/journal.tmp.4242"),
            journal.substr(0, journal.size() / 2));

  {
    auto store = CheckpointStore::Open(dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_EQ((*store)->PendingRequests(),
              (std::vector<std::string>{"finished", "survivor"}));
    auto loaded = (*store)->LoadLatestCheckpoint("survivor");
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->generation, 1u);
    EXPECT_TRUE(loaded->checkpoint == *stopped->checkpoint);
    EXPECT_EQ((*store)->LoadLatestCheckpoint("phantom").status().code(),
              StatusCode::kNotFound);
    EXPECT_EQ((*store)->LoadJob("phantom").status().code(),
              StatusCode::kNotFound);
    auto verdict = (*store)->LoadVerdict("vkey");
    ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
    EXPECT_EQ(*verdict, "the verdict");
    auto control = (*store)->LoadControl("ckey");
    ASSERT_TRUE(control.ok()) << control.status().ToString();
    EXPECT_EQ(*control, "the ring");
    EXPECT_EQ((*store)->corrupt_files_skipped(), 0u);
  }

  // A service started on the directory finishes both jobs with the
  // direct evidence.
  auto service = DecisionService::Start(dir);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  std::vector<std::string> recovered = (*service)->RecoveredJobs();
  std::sort(recovered.begin(), recovered.end());
  EXPECT_EQ(recovered, (std::vector<std::string>{"finished", "survivor"}));
  for (const char* id : {"finished", "survivor"}) {
    auto result = (*service)->Wait(id);
    ASSERT_TRUE(result.ok()) << id << ": " << result.status().ToString();
    EXPECT_EQ(result->evidence, expected) << id;
  }
  EXPECT_EQ((*service)->store().corrupt_files_skipped(), 0u);
}

// ---------------------------------------------------------------------------
// Corruption: no corrupted file is ever surfaced.

TEST(CheckpointStoreTest, TruncationAtEveryByteFallsBackOrRejects) {
  const std::string dir = FreshDir("trunc");
  auto store = CheckpointStore::Open(dir);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->PersistCheckpoint("req", MakeCkpt(1, "older")).ok());
  ASSERT_TRUE((*store)->PersistCheckpoint("req", MakeCkpt(2, "newer")).ok());
  const std::string g2_path = StrCat(dir, "/req.g2.ckpt");
  const std::string intact = ReadFile(g2_path);

  for (size_t len = 0; len < intact.size(); ++len) {
    WriteFile(g2_path, intact.substr(0, len));
    auto loaded = (*store)->LoadLatestCheckpoint("req");
    ASSERT_TRUE(loaded.ok()) << "len=" << len;
    // The torn newest generation must never surface; the previous one
    // must.
    EXPECT_EQ(loaded->generation, 1u) << "len=" << len;
    EXPECT_TRUE(loaded->checkpoint == MakeCkpt(1, "older")) << "len=" << len;
  }
  EXPECT_EQ((*store)->corrupt_files_skipped(), intact.size());
  // Restore: the intact file wins again.
  WriteFile(g2_path, intact);
  auto loaded = (*store)->LoadLatestCheckpoint("req");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->generation, 2u);
}

TEST(CheckpointStoreTest, EveryBitFlipIsCaught) {
  const std::string dir = FreshDir("bitflip");
  auto store = CheckpointStore::Open(dir);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->PersistCheckpoint("req", MakeCkpt(1, "older")).ok());
  ASSERT_TRUE((*store)->PersistCheckpoint("req", MakeCkpt(2, "newer")).ok());
  const std::string g2_path = StrCat(dir, "/req.g2.ckpt");
  const std::string intact = ReadFile(g2_path);

  for (size_t byte = 0; byte < intact.size(); ++byte) {
    for (int bit : {0, 3, 7}) {
      std::string flipped = intact;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      WriteFile(g2_path, flipped);
      auto loaded = (*store)->LoadLatestCheckpoint("req");
      ASSERT_TRUE(loaded.ok()) << "byte=" << byte << " bit=" << bit;
      EXPECT_EQ(loaded->generation, 1u) << "byte=" << byte << " bit=" << bit;
    }
  }
}

TEST(CheckpointStoreTest, AllGenerationsCorruptIsNotFoundNeverGarbage) {
  const std::string dir = FreshDir("allcorrupt");
  auto store = CheckpointStore::Open(dir);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->PersistCheckpoint("req", MakeCkpt(1)).ok());
  WriteFile(StrCat(dir, "/req.g1.ckpt"), "total garbage, no structure");
  auto loaded = (*store)->LoadLatestCheckpoint("req");
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound)
      << loaded.status().ToString();
  EXPECT_GE((*store)->corrupt_files_skipped(), 1u);
}

/// Counts read-side opens.
class ReadOpenCounter : public FsEnv {
 public:
  int Open(std::string_view site, const char* path, int flags,
           mode_t mode) override {
    if (site == "read") ++read_opens;
    return FsEnv::Open(site, path, flags, mode);
  }
  size_t read_opens = 0;
};

TEST(CheckpointStoreTest, LoadReadsOnlyTheTwoRetainedGenerations) {
  // A long-lived request with both retained generations damaged: the
  // load opens those two files, not one per generation ever written.
  const std::string dir = FreshDir("retained");
  ReadOpenCounter env;
  CheckpointStoreOptions options;
  options.fs_env = &env;
  auto store = CheckpointStore::Open(dir, options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  for (size_t rank = 1; rank <= 50; ++rank) {
    ASSERT_TRUE((*store)->PersistCheckpoint("req", MakeCkpt(rank)).ok());
  }
  WriteFile(StrCat(dir, "/req.g49.ckpt"), "damaged");
  WriteFile(StrCat(dir, "/req.g50.ckpt"), "damaged");
  env.read_opens = 0;
  auto loaded = (*store)->LoadLatestCheckpoint("req");
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound)
      << loaded.status().ToString();
  EXPECT_EQ(env.read_opens, 2u);
  EXPECT_EQ((*store)->corrupt_files_skipped(), 2u);
}

TEST(CheckpointStoreTest, RecordRenamedToAnotherIdentityIsRejected) {
  const std::string dir = FreshDir("identity");
  {
    auto store = CheckpointStore::Open(dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->PersistCheckpoint("alpha", MakeCkpt(5)).ok());
    // An operator (or an attacker) copies alpha's record over beta's
    // name: the embedded identity must not match.
    ASSERT_EQ(::rename(StrCat(dir, "/alpha.g1.ckpt").c_str(),
                       StrCat(dir, "/beta.g1.ckpt").c_str()),
              0);
  }
  auto store = CheckpointStore::Open(dir);
  ASSERT_TRUE(store.ok());
  auto loaded = (*store)->LoadLatestCheckpoint("beta");
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
  EXPECT_GE((*store)->corrupt_files_skipped(), 1u);
}

TEST(CheckpointStoreTest, CorruptJobRecordIsTypedInvalidArgument) {
  const std::string dir = FreshDir("jobcorrupt");
  auto store = CheckpointStore::Open(dir);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->PersistJob("req", "payload").ok());
  const std::string path = StrCat(dir, "/req.job");
  std::string content = ReadFile(path);
  content[content.size() / 2] ^= 0x20;
  WriteFile(path, content);
  auto loaded = (*store)->LoadJob("req");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find(path), std::string::npos)
      << loaded.status().ToString();
}

// ---------------------------------------------------------------------------
// Exclusion.

TEST(CheckpointStoreTest, SecondOpenOnALiveDirectoryIsFailedPrecondition) {
  const std::string dir = FreshDir("lock");
  auto first = CheckpointStore::Open(dir);
  ASSERT_TRUE(first.ok());
  auto second = CheckpointStore::Open(dir);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition)
      << second.status().ToString();
  // Releasing the first owner frees the directory.
  first->reset();
  auto third = CheckpointStore::Open(dir);
  EXPECT_TRUE(third.ok()) << third.status().ToString();
}

TEST(CheckpointStoreTest, SimulatedCrashReleasesTheLockAndFreezesTheStore) {
  const std::string dir = FreshDir("crashlock");
  auto store = CheckpointStore::Open(dir);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->PersistJob("req", "the job").ok());
  (*store)->SimulateCrash();
  // Dead store refuses everything...
  EXPECT_EQ((*store)->PersistJob("x", "y").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ((*store)->LoadJob("req").status().code(),
            StatusCode::kFailedPrecondition);
  // ...but a successor takes over, exactly as after a real kill.
  auto next = CheckpointStore::Open(dir);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ((*next)->PendingRequests().size(), 1u);
}

// ---------------------------------------------------------------------------
// Hostile request ids.

TEST(CheckpointStoreTest, HostileRequestIdsAreRejected) {
  const std::string dir = FreshDir("ids");
  auto store = CheckpointStore::Open(dir);
  ASSERT_TRUE(store.ok());
  const char* hostile[] = {"", "../evil", "a/b", "a b", ".hidden",
                           "per%cent", "ûnicode"};
  for (const char* id : hostile) {
    EXPECT_EQ((*store)->PersistJob(id, "x").code(),
              StatusCode::kInvalidArgument)
        << id;
    EXPECT_EQ((*store)->LoadLatestCheckpoint(id).status().code(),
              StatusCode::kInvalidArgument)
        << id;
  }
  // The full allowed alphabet works.
  EXPECT_TRUE(
      (*store)->PersistJob("Az09._-", "x").ok());
}

// ---------------------------------------------------------------------------
// SearchCheckpoint::Deserialize hardening (the hostile-input corpus).

TEST(CheckpointDeserializeHardeningTest, EveryPrefixOfAValidCheckpointFails) {
  const std::string valid = MakeCkpt(123456789, "some nested payload").
      Serialize();
  for (size_t len = 0; len < valid.size(); ++len) {
    auto parsed = SearchCheckpoint::Deserialize(valid.substr(0, len));
    ASSERT_FALSE(parsed.ok()) << "accepted prefix of length " << len;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  }
  ASSERT_TRUE(SearchCheckpoint::Deserialize(valid).ok());
}

TEST(CheckpointDeserializeHardeningTest, OversizedNumericFieldsFail) {
  const char* corpus[] = {
      // rank larger than any size_t
      "relcomp-ckpt/1 rcdp 0 99999999999999999999999999999999 "
      "0000000000000000 0:",
      // disjunct overflow
      "relcomp-ckpt/1 rcdp 18446744073709551616 0 0000000000000000 0:",
      // payload length overflow
      "relcomp-ckpt/1 rcdp 0 0 0000000000000000 "
      "99999999999999999999999999999999:x",
      // payload length far beyond the actual payload
      "relcomp-ckpt/1 rcdp 0 0 0000000000000000 4096:tiny",
      // fingerprint too long / too short / non-hex
      "relcomp-ckpt/1 rcdp 0 0 00000000000000000 0:",
      "relcomp-ckpt/1 rcdp 0 0 00000000 0:",
      "relcomp-ckpt/1 rcdp 0 0 zzzzzzzzzzzzzzzz 0:",
  };
  for (const char* text : corpus) {
    auto parsed = SearchCheckpoint::Deserialize(text);
    ASSERT_FALSE(parsed.ok()) << "accepted: " << text;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << text;
  }
}

TEST(CheckpointDeserializeHardeningTest, VersionSkewIsRejectedUpFront) {
  // A future format bump must not be half-parsed by this build.
  auto parsed = SearchCheckpoint::Deserialize(
      "relcomp-ckpt/2 rcdp 0 0 0000000000000000 0:");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("magic"), std::string::npos)
      << parsed.status().ToString();
}

TEST(CheckpointDeserializeHardeningTest, ErrorsCarryBytePositionInfo) {
  auto parsed = SearchCheckpoint::Deserialize(
      "relcomp-ckpt/1 rcdp notanumber 0 0000000000000000 0:");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("at byte"), std::string::npos)
      << parsed.status().ToString();
}

TEST(CheckpointDeserializeHardeningTest, BitFlipsNeverCrashTheParser) {
  const std::string valid = MakeCkpt(42, "payload with spaces").Serialize();
  for (size_t byte = 0; byte < valid.size(); ++byte) {
    for (int bit : {0, 5}) {
      std::string flipped = valid;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      // Either rejected, or accepted as a (different) well-formed
      // checkpoint — a flip inside the payload body is not detectable
      // at this layer (the store's CRC catches it); the parser just
      // must never crash or accept an inconsistent frame.
      auto parsed = SearchCheckpoint::Deserialize(flipped);
      if (parsed.ok()) {
        EXPECT_EQ(parsed->Serialize().size(), flipped.size());
      } else {
        EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
      }
    }
  }
}

}  // namespace
}  // namespace relcomp
