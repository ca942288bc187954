#include "service/checkpoint_store.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>

#include "util/execution_control.h"
#include "util/str.h"

namespace relcomp {
namespace {

/// A fresh store directory per test, unique across the process.
std::string FreshDir(const char* tag) {
  static int counter = 0;
  return StrCat(::testing::TempDir(), "/relcomp_store_", ::getpid(), "_",
                tag, "_", counter++);
}

SearchCheckpoint MakeCkpt(size_t rank, std::string payload = "payload") {
  SearchCheckpoint ckpt;
  ckpt.decider = "rcdp";
  ckpt.disjunct = 1;
  ckpt.rank = rank;
  ckpt.fingerprint = 0xfeedfacecafebeefull;
  ckpt.payload = std::move(payload);
  return ckpt;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
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

TEST(CheckpointStoreTest, MissingJournalIsRecoveredByDirectoryScan) {
  const std::string dir = FreshDir("noscan");
  {
    auto store = CheckpointStore::Open(dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->PersistJob("req", "the job").ok());
    ASSERT_TRUE((*store)->PersistCheckpoint("req", MakeCkpt(3)).ok());
  }
  // Simulate a crash between rename and journal append: the journal
  // vanishes entirely; the files must still be found.
  ASSERT_EQ(::unlink(StrCat(dir, "/journal").c_str()), 0);
  auto store = CheckpointStore::Open(dir);
  ASSERT_TRUE(store.ok());
  ASSERT_EQ((*store)->PendingRequests().size(), 1u);
  auto loaded = (*store)->LoadLatestCheckpoint("req");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->generation, 1u);
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

TEST(CheckpointStoreTest, TornJournalTailIsSkippedOnReplay) {
  const std::string dir = FreshDir("tornjournal");
  {
    auto store = CheckpointStore::Open(dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->PersistJob("req", "the job").ok());
    ASSERT_TRUE((*store)->PersistCheckpoint("req", MakeCkpt(4)).ok());
  }
  // A crash mid-append tears the final line.
  {
    std::ofstream out(StrCat(dir, "/journal"),
                      std::ios::binary | std::ios::app);
    out << "J1 ckpt req 9 deadbe";  // no newline, bad crc
  }
  auto store = CheckpointStore::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->journal_lines_skipped(), 1u);
  auto loaded = (*store)->LoadLatestCheckpoint("req");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->generation, 1u);
}

TEST(CheckpointStoreTest, JournalTruncationAtEveryByteRecoversEverything) {
  const std::string dir = FreshDir("journaltrunc");
  {
    auto store = CheckpointStore::Open(dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->PersistJob("req", "the job").ok());
    ASSERT_TRUE((*store)->PersistCheckpoint("req", MakeCkpt(4)).ok());
    ASSERT_TRUE((*store)->PersistCheckpoint("req", MakeCkpt(5)).ok());
    ASSERT_TRUE((*store)->PersistVerdict("vkey", "the verdict").ok());
  }
  const std::string journal_path = StrCat(dir, "/journal");
  const std::string intact = ReadFile(journal_path);
  ASSERT_GT(intact.size(), 0u);
  // A crash can stop the journal at ANY byte. Whatever the cut leaves,
  // the store must open, load every durable record (the directory scan
  // backstops lines the cut removed entirely), surface nothing corrupt,
  // and charge at most the one torn line.
  for (size_t len = 0; len < intact.size(); ++len) {
    WriteFile(journal_path, intact.substr(0, len));
    auto store = CheckpointStore::Open(dir);
    ASSERT_TRUE(store.ok()) << "cut at byte " << len << ": "
                            << store.status().ToString();
    EXPECT_LE((*store)->journal_lines_skipped(), 1u) << "cut at " << len;
    auto job = (*store)->LoadJob("req");
    ASSERT_TRUE(job.ok()) << "cut at byte " << len << ": "
                          << job.status().ToString();
    EXPECT_EQ(*job, "the job");
    auto ckpt = (*store)->LoadLatestCheckpoint("req");
    ASSERT_TRUE(ckpt.ok()) << "cut at byte " << len << ": "
                           << ckpt.status().ToString();
    EXPECT_EQ(ckpt->checkpoint.rank, 5u) << "cut at " << len;
    auto verdict = (*store)->LoadVerdict("vkey");
    ASSERT_TRUE(verdict.ok()) << "cut at byte " << len << ": "
                              << verdict.status().ToString();
    EXPECT_EQ(*verdict, "the verdict");
    EXPECT_EQ((*store)->corrupt_files_skipped(), 0u) << "cut at " << len;
  }
}

TEST(CheckpointStoreTest, ReopenedStoreTerminatesTornTailBeforeAppending) {
  const std::string dir = FreshDir("reopentaint");
  {
    auto store = CheckpointStore::Open(dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->PersistJob("a", "job a").ok());
  }
  // Tear the journal mid-line — the crash-mid-append shape, but the
  // process that knew about the torn tail is gone.
  const std::string journal_path = StrCat(dir, "/journal");
  const std::string intact = ReadFile(journal_path);
  ASSERT_GT(intact.size(), 4u);
  ASSERT_EQ(intact.back(), '\n');
  WriteFile(journal_path, intact.substr(0, intact.size() - 4));
  {
    // The REOPENED store must re-arm the taint: its first append starts
    // with a newline, so the torn fragment becomes its own (CRC-failing,
    // skipped) line instead of merging with — and eating — the new entry.
    auto store = CheckpointStore::Open(dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->PersistJob("b", "job b").ok());
  }
  EXPECT_NE(ReadFile(journal_path).find("\nJ1 job b"), std::string::npos)
      << ReadFile(journal_path);
  auto store = CheckpointStore::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->journal_lines_skipped(), 1u);
  auto a = (*store)->LoadJob("a");
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_EQ(*a, "job a");
  auto b = (*store)->LoadJob("b");
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(*b, "job b");
  EXPECT_EQ((*store)->corrupt_files_skipped(), 0u);
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

// ---------------------------------------------------------------------------
// Journal compaction.

TEST(JournalCompactionTest, CompactsPastThresholdAndShrinksTheJournal) {
  const std::string dir = FreshDir("compact");
  CheckpointStoreOptions options;
  options.journal_compaction_threshold = 10;
  auto store = CheckpointStore::Open(dir, options);
  ASSERT_TRUE(store.ok());
  // 30 persists for one request would append 30 "ckpt" lines; the
  // compacted journal describes the same state in one.
  for (size_t i = 0; i < 30; ++i) {
    ASSERT_TRUE((*store)->PersistCheckpoint("req", MakeCkpt(i)).ok());
  }
  EXPECT_GT((*store)->journal_compactions(), 0u);
  EXPECT_LE((*store)->journal_entries(), 11u);

  auto loaded = (*store)->LoadLatestCheckpoint("req");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->generation, 30u);
}

TEST(JournalCompactionTest, CompactedStateMatchesUncompactedOnReopen) {
  // Two directories, identical operation sequence, only the threshold
  // differs. After reopening, every observable (pending set, latest
  // generations, loaded checkpoints) must be identical.
  const std::string dir_a = FreshDir("compact_a");
  const std::string dir_b = FreshDir("compact_b");
  CheckpointStoreOptions compacting;
  compacting.journal_compaction_threshold = 5;
  CheckpointStoreOptions never;
  never.journal_compaction_threshold = 0;
  {
    auto a = CheckpointStore::Open(dir_a, compacting);
    auto b = CheckpointStore::Open(dir_b, never);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    for (auto* store : {a->get(), b->get()}) {
      ASSERT_TRUE(store->PersistJob("alpha", "job A").ok());
      ASSERT_TRUE(store->PersistJob("beta", "job B").ok());
      for (size_t i = 0; i < 12; ++i) {
        ASSERT_TRUE(store->PersistCheckpoint("alpha", MakeCkpt(i)).ok());
      }
      ASSERT_TRUE(store->PersistCheckpoint("beta", MakeCkpt(99)).ok());
      ASSERT_TRUE(store->PersistJob("gone", "job C").ok());
      ASSERT_TRUE(store->Forget("gone").ok());
    }
    EXPECT_GT((*a)->journal_compactions(), 0u);
    EXPECT_EQ((*b)->journal_compactions(), 0u);
  }
  auto a = CheckpointStore::Open(dir_a);
  auto b = CheckpointStore::Open(dir_b);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ((*a)->PendingRequests(), (*b)->PendingRequests());
  for (const char* id : {"alpha", "beta"}) {
    auto la = (*a)->LoadLatestCheckpoint(id);
    auto lb = (*b)->LoadLatestCheckpoint(id);
    ASSERT_TRUE(la.ok());
    ASSERT_TRUE(lb.ok());
    EXPECT_EQ(la->generation, lb->generation);
    EXPECT_TRUE(la->checkpoint == lb->checkpoint);
  }
  EXPECT_EQ((*a)->LoadJob("gone").status().code(), StatusCode::kNotFound);
  EXPECT_EQ((*b)->LoadJob("gone").status().code(), StatusCode::kNotFound);
}

TEST(JournalCompactionTest, KillAtEveryCompactionStageRecoversTheSameState) {
  // Compaction is temp + fsync + rename; a kill can land (a) mid-write
  // of the temp file, (b) after the temp is complete but before the
  // rename, (c) after the rename. Construct each mid-state by hand and
  // assert all three replay to the same state as the uninterrupted
  // journal.
  const std::string dir = FreshDir("compact_kill");
  {
    auto store = CheckpointStore::Open(dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->PersistJob("req", "the job").ok());
    for (size_t i = 0; i < 6; ++i) {
      ASSERT_TRUE((*store)->PersistCheckpoint("req", MakeCkpt(i)).ok());
    }
  }
  const std::string journal = StrCat(dir, "/journal");
  const std::string old_journal = ReadFile(journal);
  // What a compaction would write: run one for real in a scratch copy
  // of the state by opening with a tiny threshold and appending once.
  std::string compacted;
  {
    const std::string scratch = FreshDir("compact_kill_scratch");
    CheckpointStoreOptions options;
    options.journal_compaction_threshold = 1;
    auto store = CheckpointStore::Open(scratch, options);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->PersistJob("req", "the job").ok());
    for (size_t i = 0; i < 6; ++i) {
      ASSERT_TRUE((*store)->PersistCheckpoint("req", MakeCkpt(i)).ok());
    }
    ASSERT_GT((*store)->journal_compactions(), 0u);
    compacted = ReadFile(StrCat(scratch, "/journal"));
  }

  auto expect_recovered = [&](const char* stage) {
    auto store = CheckpointStore::Open(dir);
    ASSERT_TRUE(store.ok()) << stage << ": " << store.status().ToString();
    auto pending = (*store)->PendingRequests();
    ASSERT_EQ(pending.size(), 1u) << stage;
    EXPECT_EQ(pending[0], "req") << stage;
    auto loaded = (*store)->LoadLatestCheckpoint("req");
    ASSERT_TRUE(loaded.ok()) << stage << ": " << loaded.status().ToString();
    EXPECT_EQ(loaded->generation, 6u) << stage;
    EXPECT_TRUE(loaded->checkpoint == MakeCkpt(5)) << stage;
    EXPECT_EQ((*store)->corrupt_files_skipped(), 0u) << stage;
  };

  // (a) Kill mid-write: a torn temp file next to the intact journal.
  WriteFile(StrCat(journal, ".tmp.12345"),
            compacted.substr(0, compacted.size() / 2));
  expect_recovered("torn temp");
  // (b) Kill before rename: a complete temp file, journal unchanged.
  WriteFile(StrCat(journal, ".tmp.12345"), compacted);
  expect_recovered("complete temp");
  ::unlink(StrCat(journal, ".tmp.12345").c_str());
  // (c) Kill after rename: the compacted journal took over.
  WriteFile(journal, compacted);
  expect_recovered("after rename");
  // Restore and confirm the uninterrupted journal agrees with (c).
  WriteFile(journal, old_journal);
  expect_recovered("uninterrupted");
}

TEST(JournalCompactionTest, ZeroThresholdDisablesCompaction) {
  const std::string dir = FreshDir("compact_off");
  CheckpointStoreOptions options;
  options.journal_compaction_threshold = 0;
  auto store = CheckpointStore::Open(dir, options);
  ASSERT_TRUE(store.ok());
  for (size_t i = 0; i < 50; ++i) {
    ASSERT_TRUE((*store)->PersistCheckpoint("req", MakeCkpt(i)).ok());
  }
  EXPECT_EQ((*store)->journal_compactions(), 0u);
  EXPECT_EQ((*store)->journal_entries(), 50u);
}

}  // namespace
}  // namespace relcomp
