// The hostile-input suite of util/codec.h: the cursor's primitives on
// their own, then every text format relcomp reads from outside the
// process. Each format is pinned to a golden encoding captured at
// c1484dc (before the formats moved onto the shared cursor), decoded
// and re-encoded byte for byte, and swept with a truncation at every
// byte and a bit flip at every position: each mutation is refused with
// kInvalidArgument or decodes to a value whose re-encoding decodes to
// that same value.

#include "util/codec.h"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "completeness/incremental.h"
#include "completeness/rcqp.h"
#include "fabric/ring.h"
#include "net/wire.h"
#include "query/parser.h"
#include "service/checkpoint_store.h"
#include "service/decision_service.h"
#include "service/verdict_cache.h"
#include "util/execution_control.h"
#include "util/str.h"
#include "test_support.h"

namespace relcomp {
namespace {

// --- The cursor ------------------------------------------------------

TEST(CodecReaderTest, U64TakesOneToTwentyDigits) {
  struct Case {
    const char* text;
    bool ok;
    uint64_t value;
  };
  for (const Case& c : {Case{"0", true, 0}, Case{"42 rest", true, 42},
                        Case{"18446744073709551615", true, UINT64_MAX},
                        Case{"00000000000000000001", true, 1},
                        Case{"000000000000000000001", false, 0},
                        Case{"18446744073709551616", false, 0},
                        Case{"99999999999999999999", false, 0},
                        Case{"", false, 0}, Case{"x1", false, 0},
                        Case{"+1", false, 0}, Case{"-1", false, 0},
                        Case{" 1", false, 0}}) {
    CodecReader r("test", c.text);
    Result<uint64_t> value = r.U64();
    ASSERT_EQ(value.ok(), c.ok) << c.text;
    if (c.ok) {
      EXPECT_EQ(*value, c.value) << c.text;
    } else {
      EXPECT_EQ(value.status().code(), StatusCode::kInvalidArgument);
      // A refusal consumes nothing.
      if (*c.text != '\0') {
        EXPECT_TRUE(r.Expect(std::string_view(c.text, 1)).ok()) << c.text;
      }
    }
  }
}

TEST(CodecReaderTest, SizedRefusesLyingLengths) {
  for (const char* lie :
       {"5:abc", "4:abc", "18446744073709551615:x", "18446744073709551616:x",
        "99999999999999999999999:x", ":abc", "3abc", "x:abc"}) {
    CodecReader r("test", lie);
    Result<std::string_view> segment = r.Sized();
    ASSERT_FALSE(segment.ok()) << lie;
    EXPECT_EQ(segment.status().code(), StatusCode::kInvalidArgument);
    // A refusal consumes nothing.
    EXPECT_TRUE(r.Expect(std::string_view(lie, 1)).ok()) << lie;
  }
  CodecReader truthful("test", "3:abc0:");
  EXPECT_EQ(*truthful.Sized(), "abc");
  EXPECT_EQ(*truthful.Sized(), "");
  EXPECT_TRUE(truthful.End().ok());
  CodecReader capped("test", "4:abcd");
  EXPECT_FALSE(capped.Sized(3).ok());
  EXPECT_EQ(*capped.Sized(4), "abcd");
}

TEST(CodecReaderTest, HexIsFixedWidth) {
  CodecReader full("test", "feedFACEcafebeef");
  EXPECT_EQ(*full.Hex(16), 0xfeedfacecafebeefull);
  EXPECT_TRUE(full.End().ok());
  for (const char* bad : {"feed", "feedfacecafebeeg", "0x00000000000000"}) {
    CodecReader r("test", bad);
    Result<uint64_t> value = r.Hex(16);
    ASSERT_FALSE(value.ok()) << bad;
    EXPECT_EQ(value.status().code(), StatusCode::kInvalidArgument);
  }
  CodecReader short_field("test", "0123456 ");
  EXPECT_FALSE(short_field.Hex(8).ok());
}

TEST(CodecReaderTest, NeverReadsPastTheBuffer) {
  // Each text is a view that ends where a longer buffer goes on; a read
  // that looked past the view would see the tail and accept.
  const std::string backing = "123456789:abcdef 0123456789abcdef";
  CodecReader digits("test", std::string_view(backing).substr(0, 3));
  EXPECT_EQ(*digits.U64(), 123u);
  EXPECT_TRUE(digits.at_end());
  CodecReader sized("test", std::string_view("5:abcdef").substr(0, 4));
  EXPECT_FALSE(sized.Sized().ok());
  CodecReader hex("test", std::string_view("feedface").substr(0, 4));
  EXPECT_FALSE(hex.Hex(8).ok());
  CodecReader field("test", std::string_view("abc def").substr(0, 3));
  EXPECT_FALSE(field.Field().ok());
  CodecReader magic("test", std::string_view("relcomp-x/1 y").substr(0, 11));
  EXPECT_FALSE(magic.Magic("relcomp-x/1").ok());
  CodecReader empty("test", std::string_view());
  EXPECT_FALSE(empty.Char().ok());
  EXPECT_FALSE(empty.Expect(":").ok());
  EXPECT_TRUE(empty.End().ok());
}

TEST(CodecReaderTest, RefusalsNameTheFormatTheDefectAndTheOffset) {
  CodecReader r("relcomp-test/1", "relcomp-test/1 12x");
  ASSERT_TRUE(r.Magic("relcomp-test/1").ok());
  ASSERT_TRUE(r.U64().ok());
  const Status refused = r.Expect(" ");
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(refused.message().find("relcomp-test/1"), std::string::npos);
  EXPECT_NE(refused.message().find("expected \" \""), std::string::npos);
  EXPECT_NE(refused.message().find("at byte 17 of 18"), std::string::npos)
      << refused.message();
  CodecReader skew("relcomp-test/1", "relcomp-test/2 12");
  EXPECT_NE(skew.Magic("relcomp-test/1").message().find("magic"),
            std::string::npos);
}

TEST(CodecWritersTest, WritersAreTheReadersInverse) {
  std::string out;
  AppendSized("a b:c", &out);
  AppendSized("", &out);
  EXPECT_EQ(out, "5:a b:c0:");
  EXPECT_EQ(Hex(0xdbf92366, 8), "dbf92366");
  EXPECT_EQ(Hex(0x1f, 16), "000000000000001f");
  std::string le;
  PutU32Le(0x12345678u, &le);
  EXPECT_EQ(le, std::string("\x78\x56\x34\x12", 4));
  EXPECT_EQ(GetU32Le(le.data()), 0x12345678u);
}

TEST(CodecTest, Crc32MatchesTheStandardCheckValue) {
  // The universal CRC-32/ISO-HDLC check vector.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

/// One table lookup per byte: the definition the sliced CRC must match.
uint32_t BytewiseCrc32(std::string_view data) {
  uint32_t crc = 0xFFFFFFFFu;
  for (unsigned char byte : data) {
    crc ^= byte;
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(CodecTest, Crc32MatchesABytewiseReference) {
  // Every length around the 8-byte stride, at every alignment, then a
  // spec-sized buffer.
  std::string buffer(85 * 1024 + 8, '\0');
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (char& c : buffer) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    c = static_cast<char>(x >> 56);
  }
  const std::string_view all(buffer);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 64; ++length) {
      const std::string_view slice = all.substr(offset, length);
      ASSERT_EQ(Crc32(slice), BytewiseCrc32(slice))
          << "offset=" << offset << " length=" << length;
    }
  }
  const std::string_view large = all.substr(3, 85 * 1024);
  EXPECT_EQ(Crc32(large), BytewiseCrc32(large));
}

// --- The formats -----------------------------------------------------

/// A decoder under test: the decoded value, re-encoded (so two values
/// compare by their encodings), or the refusal.
using Decoder = std::function<Result<std::string>(std::string_view)>;

/// Pins `golden` (decode + re-encode returns it byte for byte), then
/// truncates it at every byte and flips every bit of it.
void SweepFormat(const std::string& golden, const Decoder& decode) {
  Result<std::string> pinned = decode(golden);
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  EXPECT_EQ(*pinned, golden);
  auto check = [&](const std::string& hostile, const std::string& what) {
    Result<std::string> decoded = decode(hostile);
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
          << what << ": " << decoded.status().ToString();
      return;
    }
    Result<std::string> again = decode(*decoded);
    ASSERT_TRUE(again.ok()) << what << ": " << again.status().ToString();
    EXPECT_EQ(*again, *decoded) << what;
  };
  for (size_t cut = 0; cut < golden.size(); ++cut) {
    check(golden.substr(0, cut), StrCat("truncated at ", cut));
  }
  for (size_t byte = 0; byte < golden.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = golden;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      check(flipped, StrCat("bit ", bit, " of byte ", byte));
    }
  }
}

template <typename T>
Decoder Via(Result<T> (*deserialize)(std::string_view)) {
  return [deserialize](std::string_view text) -> Result<std::string> {
    RELCOMP_ASSIGN_OR_RETURN(T value, deserialize(text));
    return value.Serialize();
  };
}

constexpr char kGoldenJob[] =
    "relcomp-job/1 rcdp 0 2 500 1500 32 46:relation R(a)\nfact R(1)\nquery "
    "cq Q(x) :- R(x)\n";

JobSpec GoldenJob() {
  JobSpec job;
  job.kind = JobKind::kRcdp;
  job.spec_text = "relation R(a)\nfact R(1)\nquery cq Q(x) :- R(x)\n";
  job.num_threads = 2;
  job.slice_steps = 500;
  job.deadline = std::chrono::milliseconds(1500);
  return job;
}

TEST(CodecFormatTest, NetRequest) {
  WireRequest req;
  req.op = WireOp::kSubmit;
  req.key = "audit-7";
  req.job = GoldenJob().Serialize();
  const std::string golden = StrCat(
      "relcomp-net/1 req submit 7:audit-784:", kGoldenJob);
  EXPECT_EQ(req.Serialize(), golden);
  SweepFormat(golden, Via(&WireRequest::Deserialize));
}

TEST(CodecFormatTest, NetReply) {
  WireReply rep;
  rep.code = StatusCode::kResourceExhausted;
  rep.message = "queue full: 64 jobs";
  rep.retry_after_ms = 50;
  rep.state = WireJobState::kDone;
  rep.verdict = Verdict::kIncomplete;
  rep.evidence = "INCOMPLETE|S = {(5, 6)}\n|(5)";
  rep.attempts = 3;
  rep.persisted = 7;
  rep.exhaustion = "deadline";
  const std::string golden =
      "relcomp-net/1 rep resource_exhausted 50 done incomplete 3 7 19:queue "
      "full: 64 jobs28:INCOMPLETE|S = {(5, 6)}\n|(5)8:deadline";
  EXPECT_EQ(rep.Serialize(), golden);
  SweepFormat(golden, Via(&WireReply::Deserialize));
}

TEST(CodecFormatTest, Job) {
  EXPECT_EQ(GoldenJob().Serialize(), kGoldenJob);
  SweepFormat(kGoldenJob, Via(&JobSpec::Deserialize));
}

TEST(CodecFormatTest, JobBoundsAreRefusedAtDecode) {
  const std::string cap = StrCat(kMaxJobDeadline.count());
  const std::string over = StrCat(kMaxJobDeadline.count() + 1);
  auto job = [](std::string_view threads, std::string_view deadline) {
    return StrCat("relcomp-job/1 rcdp 0 ", threads, " 0 ", deadline,
                  " 32 0:");
  };
  Result<JobSpec> at_cap = JobSpec::Deserialize(job("64", cap));
  ASSERT_TRUE(at_cap.ok()) << at_cap.status().ToString();
  EXPECT_EQ(at_cap->num_threads, kMaxJobThreads);
  EXPECT_EQ(at_cap->deadline, kMaxJobDeadline);
  for (const std::string& refused :
       {job("65", "-"), job("18446744073709551615", "-"), job("1", over),
        job("1", "10000000000000"), job("1", "9223372036854775808"),
        job("1", "18446744073709551615")}) {
    Result<JobSpec> decoded = JobSpec::Deserialize(refused);
    ASSERT_FALSE(decoded.ok()) << refused;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(CodecFormatTest, Checkpoint) {
  SearchCheckpoint ckpt;
  ckpt.decider = "rcdp";
  ckpt.disjunct = 1;
  ckpt.rank = 42;
  ckpt.fingerprint = 0xfeedfacecafebeefull;
  ckpt.payload = "payload with spaces";
  const std::string golden =
      "relcomp-ckpt/1 rcdp 1 42 feedfacecafebeef 19:payload with spaces";
  EXPECT_EQ(ckpt.Serialize(), golden);
  SweepFormat(golden, Via(&SearchCheckpoint::Deserialize));
}

TEST(CodecFormatTest, VerdictRecord) {
  constexpr uint64_t kFp = 0x0123456789abcdefull;
  const std::string golden =
      "relcomp-verdict/1 0123456789abcdef I 23:INCOMPLETE|S = {(5, 6)}";
  EXPECT_EQ(VerdictCache::EncodeRecord(
                kFp, CachedVerdict{Verdict::kIncomplete,
                                   "INCOMPLETE|S = {(5, 6)}"}),
            golden);
  SweepFormat(golden, [&](std::string_view text) -> Result<std::string> {
    RELCOMP_ASSIGN_OR_RETURN(CachedVerdict cached,
                             VerdictCache::DecodeRecord(text, kFp));
    return VerdictCache::EncodeRecord(kFp, cached);
  });
}

TEST(CodecFormatTest, FabricRing) {
  FabricRing ring = FabricRing::Make(
      {"unix:/tmp/m0.sock", "tcp:127.0.0.1:7000", ""},
      FabricRing::kDefaultSeed, 16);
  ring.epoch = 3;
  const std::string golden =
      "relcomp-fabric/1 epoch 3 seed 5927668728027562306 vnodes 16 shards 3 "
      "17:unix:/tmp/m0.sock18:tcp:127.0.0.1:70000:";
  EXPECT_EQ(ring.Serialize(), golden);
  SweepFormat(golden, Via(&FabricRing::Deserialize));
}

TEST(CodecFormatTest, Certificate) {
  RcdpCertificate cert;
  cert.instance_fp = 11111111111111111111ull;
  cert.adom_fp = 22;
  cert.answer_fp = 333;
  cert.options_fp = 0x16a48f3ec5d71f4eull;
  cert.num_disjuncts = 2;
  cert.verdict = Verdict::kIncomplete;
  cert.cex_disjunct = 1;
  cert.cex_answer = Tuple({Value::Int(-5), Value::Str("a b")});
  cert.cex_delta = {{"S", Tuple({Value::Int(5), Value::Int(6)})},
                    {"T", Tuple({Value::Str("x:y")})}};
  const std::string golden =
      "relcomp-cert/1 11111111111111111111 22 333 1631586464784916302 2 I 1 "
      "A 2 i-5 s3:a b 2 1:S 2 i5 i6 1:T 1 s3:x:y";
  EXPECT_EQ(cert.Serialize(), golden);
  SweepFormat(golden, Via(&RcdpCertificate::Deserialize));
}

void WriteFile(const std::string& path, std::string_view content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

TEST(CodecFormatTest, StoreRecord) {
  // The record is read back from disk, so the decoder under test is the
  // store's own: each mutation is written over the record file.
  constexpr char kPayload[] = "relcomp-job/1 rcdp 0 1 0 - 32 0:";
  const std::string golden =
      "relcomp-store/1 job req-1 0 32:relcomp-job/1 rcdp 0 1 0 - 32 "
      "0:#crc32:25562831";
  const std::string dir = FreshDir("record");
  auto store = CheckpointStore::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE((*store)->PersistJob("req-1", kPayload).ok());
  const std::string path = dir + "/req-1.job";
  ASSERT_EQ(ReadFile(path), golden);
  SweepFormat(golden, [&](std::string_view bytes) -> Result<std::string> {
    WriteFile(path, bytes);
    RELCOMP_ASSIGN_OR_RETURN(std::string payload, (*store)->LoadJob("req-1"));
    RELCOMP_RETURN_NOT_OK((*store)->PersistJob("req-1", payload));
    return ReadFile(path);
  });
  // The store's verdict record wraps the relcomp-verdict/1 golden.
  VerdictCache cache(store->get());
  ASSERT_TRUE(cache
                  .Insert(0x0123456789abcdefull, Verdict::kIncomplete,
                          "INCOMPLETE|S = {(5, 6)}")
                  .ok());
  EXPECT_EQ(ReadFile(dir + "/v0123456789abcdef.vrd"),
            "relcomp-store/1 vrd v0123456789abcdef 0 63:relcomp-verdict/1 "
            "0123456789abcdef I 23:INCOMPLETE|S = {(5, 6)}#crc32:dbf92366");
}

TEST(CodecFormatTest, StoreCheckpointFileNames) {
  // Recovery learns a checkpoint generation from its file name alone;
  // a name whose generation is not a decimal u64 is ignored.
  const std::string dir = FreshDir("names");
  std::string record;
  {
    auto store = CheckpointStore::Open(dir);
    ASSERT_TRUE(store.ok());
    SearchCheckpoint ckpt;
    ckpt.decider = "rcdp";
    ASSERT_TRUE((*store)->PersistCheckpoint("r", ckpt).ok());
    record = ReadFile(dir + "/r.g1.ckpt");
  }
  for (const char* name :
       {"r.gx.ckpt", "r.g.ckpt", "r.g-1.ckpt", "r.g+1.ckpt", "r.g 1.ckpt",
        "r.g1x.ckpt", "r.g18446744073709551616.ckpt",
        "r.g000000000000000000001.ckpt"}) {
    const std::string fresh = FreshDir("name");
    ASSERT_EQ(::mkdir(fresh.c_str(), 0755), 0);
    WriteFile(StrCat(fresh, "/", name), record);
    auto store = CheckpointStore::Open(fresh);
    ASSERT_TRUE(store.ok());
    EXPECT_EQ((*store)->LoadLatestCheckpoint("r").status().code(),
              StatusCode::kNotFound)
        << name;
  }
  auto store = CheckpointStore::Open(dir);
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE((*store)->LoadLatestCheckpoint("r").ok())
      << "r.g1.ckpt is learnt from its name";
}

TEST(CodecFormatTest, RcqpIndPayload) {
  // The IND path's checkpoint payload lists the tableaux whose probe
  // found a realizable valuation. It is observed through the decider:
  // a resume with a one-step budget stops in the next probe and
  // re-encodes the set it decoded.
  auto db_schema = std::make_shared<Schema>();
  ASSERT_TRUE(db_schema->AddRelation("R", 2).ok());
  ASSERT_TRUE(db_schema->AddRelation("T", 2).ok());
  auto master_schema = std::make_shared<Schema>();
  ASSERT_TRUE(master_schema->AddRelation("M", 1).ok());
  const Database master(master_schema);
  auto q = ParseQuery(
      "Q(x) :- R(x, y).\nQ(x) :- R(y, x).\nQ(x) :- T(x, y).\nQ(x) :- T(y, x).",
      QueryLanguage::kUcq);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const ConstraintSet none;
  auto decide = [&](size_t steps, const SearchCheckpoint* resume) {
    ExecutionBudget budget;
    budget.set_max_steps(steps);
    RcqpOptions options;
    options.rcdp.budget = &budget;
    options.rcdp.num_threads = 1;
    options.resume = resume;
    return DecideRcqp(*q, db_schema, master, none, options);
  };
  auto interrupted = decide(9, nullptr);
  ASSERT_TRUE(interrupted.ok()) << interrupted.status().ToString();
  ASSERT_TRUE(interrupted->checkpoint.has_value());
  EXPECT_EQ(interrupted->checkpoint->Serialize(),
            "relcomp-ckpt/1 rcqp-ind 3 0 53db7584cf602579 5:0,1,2");
  const SearchCheckpoint golden = *interrupted->checkpoint;
  SweepFormat(golden.payload, [&](std::string_view payload)
                                  -> Result<std::string> {
    SearchCheckpoint resume = golden;
    resume.payload = std::string(payload);
    RELCOMP_ASSIGN_OR_RETURN(RcqpResult resumed, decide(1, &resume));
    if (!resumed.checkpoint.has_value() ||
        resumed.checkpoint->decider != "rcqp-ind") {
      return Status::Internal("the resumed probe was not interrupted");
    }
    return resumed.checkpoint->payload;
  });
}

}  // namespace
}  // namespace relcomp
