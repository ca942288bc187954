#include "net/wire.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "util/blake2s.h"
#include "util/str.h"

namespace relcomp {
namespace {

/// Pushes `data` through a fresh decoder and returns what Next said.
Result<bool> DecodeOnce(std::string_view data, std::string* payload,
                        size_t max_payload = kDefaultMaxFramePayload) {
  FrameDecoder decoder(max_payload);
  decoder.Feed(data);
  return decoder.Next(payload);
}

WireReply FullReply() {
  WireReply reply;
  reply.code = StatusCode::kResourceExhausted;
  reply.message = "queue full: 64 jobs in flight";
  reply.retry_after_ms = 50;
  reply.state = WireJobState::kDone;
  reply.verdict = Verdict::kIncomplete;
  reply.evidence = "INCOMPLETE|S = {(\"5\", \"6\")}\n|(\"5\")";
  reply.attempts = 3;
  reply.persisted = 7;
  reply.exhaustion = "deadline after 42 decision points";
  return reply;
}

// ---------------------------------------------------------------------------
// Frame layer: round trips.

TEST(NetWireFrameTest, RoundTripsArbitraryPayloads) {
  for (const std::string payload :
       {std::string(""), std::string("hello"),
        std::string("binary\x00\xff\n\r bytes", 17),
        std::string(100000, 'x')}) {
    std::string frame = EncodeFrame(payload);
    EXPECT_EQ(frame.size(), payload.size() + kFrameOverhead);
    std::string out;
    auto next = DecodeOnce(frame, &out);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    ASSERT_TRUE(*next);
    EXPECT_EQ(out, payload);
  }
}

TEST(NetWireFrameTest, DecodesByteAtATimeAndBackToBack) {
  // Frames split at every possible chunk boundary, then two frames in
  // one buffer — the decoder must be agnostic to how TCP segments the
  // stream.
  const std::string a = EncodeFrame("first message");
  const std::string b = EncodeFrame("second");
  FrameDecoder decoder;
  std::string payload;
  for (char c : a) {
    decoder.Feed(std::string_view(&c, 1));
  }
  auto next = decoder.Next(&payload);
  ASSERT_TRUE(next.ok() && *next);
  EXPECT_EQ(payload, "first message");

  decoder.Feed(StrCat(b, a));
  next = decoder.Next(&payload);
  ASSERT_TRUE(next.ok() && *next);
  EXPECT_EQ(payload, "second");
  next = decoder.Next(&payload);
  ASSERT_TRUE(next.ok() && *next);
  EXPECT_EQ(payload, "first message");
  next = decoder.Next(&payload);
  ASSERT_TRUE(next.ok());
  EXPECT_FALSE(*next);
  EXPECT_EQ(decoder.buffered(), 0u);
}

// ---------------------------------------------------------------------------
// Frame layer: hostile input. Truncation at every byte, a flip at
// every position, lying length prefixes, version skew — none may
// crash, and none may surface a corrupted payload as valid.

TEST(NetWireHostileTest, TruncationAtEveryByteNeverYieldsAFrame) {
  const std::string frame = EncodeFrame("the payload under truncation");
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    std::string payload;
    auto next = DecodeOnce(frame.substr(0, cut), &payload);
    ASSERT_TRUE(next.ok()) << "cut at " << cut << ": "
                           << next.status().ToString();
    EXPECT_FALSE(*next) << "truncated frame decoded at cut " << cut;
  }
}

TEST(NetWireHostileTest, BitFlipAtEveryPositionIsRejectedOrIncomplete) {
  const std::string frame = EncodeFrame("the payload under bit flips");
  for (size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit : {0, 3, 7}) {
      std::string flipped = frame;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      std::string payload;
      auto next = DecodeOnce(flipped, &payload);
      // A flip lands in the magic (typed error), the length (cap
      // error, or a longer declared length = incomplete frame), the
      // payload, or the CRC (both a crc mismatch). No outcome may be a
      // successfully decoded frame.
      if (next.ok()) {
        EXPECT_FALSE(*next) << "flip at byte " << byte << " bit " << bit
                            << " produced a valid frame";
      } else {
        EXPECT_EQ(next.status().code(), StatusCode::kInvalidArgument);
      }
    }
  }
}

TEST(NetWireHostileTest, PayloadFlipIsACrcMismatchSpecifically) {
  std::string frame = EncodeFrame("payload whose bytes get injured");
  frame[kFrameHeaderSize + 4] ^= 0x10;
  std::string payload;
  auto next = DecodeOnce(frame, &payload);
  ASSERT_FALSE(next.ok());
  EXPECT_NE(next.status().message().find("crc"), std::string::npos)
      << next.status().ToString();
}

TEST(NetWireHostileTest, OversizedLengthPrefixIsRejectedBeforeAllocation) {
  // Header declaring a 4 GiB payload: must be a typed error the moment
  // the header is readable, not a 4 GiB allocation attempt.
  std::string hostile(kFrameMagic, sizeof(kFrameMagic));
  hostile += std::string("\xff\xff\xff\xff", 4);
  std::string payload;
  auto next = DecodeOnce(hostile, &payload);
  ASSERT_FALSE(next.ok());
  EXPECT_NE(next.status().message().find("exceeds"), std::string::npos);

  // A length just over a small receiver cap is equally rejected even
  // though the default cap would admit it.
  const std::string frame = EncodeFrame(std::string(100, 'x'));
  auto capped = DecodeOnce(frame, &payload, /*max_payload=*/64);
  ASSERT_FALSE(capped.ok());
}

TEST(NetWireHostileTest, VersionSkewInTheMagicIsRejected) {
  std::string frame = EncodeFrame("future payload");
  frame[3] = '9';  // RNF9: a future frame format
  std::string payload;
  auto next = DecodeOnce(frame, &payload);
  ASSERT_FALSE(next.ok());
  EXPECT_NE(next.status().message().find("magic"), std::string::npos);
}

TEST(NetWireHostileTest, FrameDefectsAreSticky) {
  FrameDecoder decoder;
  std::string garbage = "GARBAGE!";
  garbage += EncodeFrame("never reached");
  decoder.Feed(garbage);
  std::string payload;
  ASSERT_FALSE(decoder.Next(&payload).ok());
  // Even a pristine frame after the defect must not decode: the stream
  // position is untrustworthy, the connection must be closed.
  decoder.Feed(EncodeFrame("still poisoned"));
  auto again = decoder.Next(&payload);
  ASSERT_FALSE(again.ok());
  EXPECT_NE(again.status().message().find("poisoned"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Message layer: round trips.

TEST(NetWireMessageTest, RequestsRoundTripForEveryOp) {
  WireRequest submit;
  submit.op = WireOp::kSubmit;
  submit.key = "client-42.job_7";
  submit.job = "payload with spaces\nand a newline: 17";
  for (const WireRequest& req :
       {submit, WireRequest{WireOp::kPoll, "k", ""},
        WireRequest{WireOp::kCancel, "k", ""},
        WireRequest{WireOp::kStatus, "", ""}}) {
    auto parsed = WireRequest::Deserialize(req.Serialize());
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->op, req.op);
    EXPECT_EQ(parsed->key, req.key);
    EXPECT_EQ(parsed->job, req.job);
  }
}

TEST(NetWireMessageTest, RepliesRoundTripWithEveryFieldPopulated) {
  const WireReply reply = FullReply();
  auto parsed = WireReply::Deserialize(reply.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->code, reply.code);
  EXPECT_EQ(parsed->message, reply.message);
  EXPECT_EQ(parsed->retry_after_ms, reply.retry_after_ms);
  EXPECT_EQ(parsed->state, reply.state);
  EXPECT_EQ(parsed->verdict, reply.verdict);
  EXPECT_EQ(parsed->evidence, reply.evidence);
  EXPECT_EQ(parsed->attempts, reply.attempts);
  EXPECT_EQ(parsed->persisted, reply.persisted);
  EXPECT_EQ(parsed->exhaustion, reply.exhaustion);
  EXPECT_FALSE(parsed->ToStatus().ok());
  EXPECT_EQ(parsed->ToStatus().code(), StatusCode::kResourceExhausted);
}

// ---------------------------------------------------------------------------
// Message layer: hostile input, mirroring the checkpoint-store corpus.

TEST(NetWireHostileTest, RequestTruncationAtEveryByteIsRejected) {
  WireRequest req;
  req.op = WireOp::kSubmit;
  req.key = "key-1";
  req.job = "job body with spaces";
  const std::string valid = req.Serialize();
  for (size_t cut = 0; cut < valid.size(); ++cut) {
    auto parsed = WireRequest::Deserialize(valid.substr(0, cut));
    EXPECT_FALSE(parsed.ok()) << "truncation at " << cut << " parsed";
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(NetWireHostileTest, ReplyTruncationAtEveryByteIsRejected) {
  const std::string valid = FullReply().Serialize();
  for (size_t cut = 0; cut < valid.size(); ++cut) {
    auto parsed = WireReply::Deserialize(valid.substr(0, cut));
    EXPECT_FALSE(parsed.ok()) << "truncation at " << cut << " parsed";
  }
}

TEST(NetWireHostileTest, RequestBitFlipsNeverCrashTheParser) {
  WireRequest req;
  req.op = WireOp::kPoll;
  req.key = "poll-key";
  const std::string valid = req.Serialize();
  for (size_t byte = 0; byte < valid.size(); ++byte) {
    for (int bit : {0, 5}) {
      std::string flipped = valid;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      // Either rejected, or accepted as a (different) well-formed
      // request — a flip inside the key body is not detectable at this
      // layer (the frame CRC catches it in transit); the parser just
      // must never crash or read out of bounds.
      auto parsed = WireRequest::Deserialize(flipped);
      if (!parsed.ok()) {
        EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
      }
    }
  }
}

TEST(NetWireHostileTest, ReplyBitFlipsNeverCrashTheParser) {
  const std::string valid = FullReply().Serialize();
  for (size_t byte = 0; byte < valid.size(); ++byte) {
    std::string flipped = valid;
    flipped[byte] = static_cast<char>(flipped[byte] ^ 0x20);
    auto parsed = WireReply::Deserialize(flipped);
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(NetWireHostileTest, LyingSegmentLengthsAreRejected) {
  // Declared length larger than the remaining bytes.
  auto oversized = WireRequest::Deserialize(
      "relcomp-net/1 req poll 100:short0:");
  EXPECT_FALSE(oversized.ok());
  // Declared length that would swallow the next segment's framing.
  auto swallowing = WireRequest::Deserialize(
      "relcomp-net/1 req submit 3:key9999999999:job");
  EXPECT_FALSE(swallowing.ok());
  // A length field that overflows uint64.
  auto overflow = WireRequest::Deserialize(
      StrCat("relcomp-net/1 req poll 99999999999999999999999:x0:"));
  EXPECT_FALSE(overflow.ok());
}

TEST(NetWireHostileTest, MessageVersionSkewIsRejected) {
  auto req = WireRequest::Deserialize("relcomp-net/2 req poll 1:k0:");
  ASSERT_FALSE(req.ok());
  EXPECT_NE(req.status().message().find("magic"), std::string::npos);
  auto rep = WireReply::Deserialize(
      "relcomp-net/2 rep ok 0 none unknown 0 0 0:0:0:");
  EXPECT_FALSE(rep.ok());
}

TEST(NetWireHostileTest, TrailingBytesAreRejected) {
  WireRequest req;
  req.op = WireOp::kPoll;
  req.key = "k";
  EXPECT_FALSE(WireRequest::Deserialize(req.Serialize() + "x").ok());
  EXPECT_FALSE(WireReply::Deserialize(FullReply().Serialize() + " ").ok());
}

TEST(NetWireHostileTest, RoleAndOpConfusionIsRejected) {
  // A reply fed to the request parser (and vice versa).
  EXPECT_FALSE(WireRequest::Deserialize(FullReply().Serialize()).ok());
  WireRequest req;
  req.op = WireOp::kPoll;
  req.key = "k";
  EXPECT_FALSE(WireReply::Deserialize(req.Serialize()).ok());
  // Unknown op; status with a key; poll carrying a job payload.
  EXPECT_FALSE(
      WireRequest::Deserialize("relcomp-net/1 req destroy 1:k0:").ok());
  EXPECT_FALSE(
      WireRequest::Deserialize("relcomp-net/1 req status 1:k0:").ok());
  EXPECT_FALSE(
      WireRequest::Deserialize("relcomp-net/1 req poll 1:k3:job").ok());
}

TEST(NetWireHostileTest, EmptyAndGarbageInputsAreRejected) {
  for (const std::string input :
       {std::string(""), std::string(" "), std::string("\n"),
        std::string("relcomp-net/1"), std::string("relcomp-net/1 "),
        std::string("relcomp-net/1 req"),
        std::string(200, '\xff'), std::string(200, ' ')}) {
    EXPECT_FALSE(WireRequest::Deserialize(input).ok());
    EXPECT_FALSE(WireReply::Deserialize(input).ok());
  }
}

// ---------------------------------------------------------------------------
// relcomp-net/2 frames: authentication.

/// A v2-speaking decoder (accepts both formats, like a live server or
/// client connection).
Result<bool> DecodeV2(std::string_view data, std::string* payload,
                      const std::string& auth_key = "",
                      size_t max_payload = kDefaultMaxFramePayload) {
  FrameDecoder decoder(max_payload);
  if (!auth_key.empty()) decoder.set_auth_key(auth_key);
  decoder.Feed(data);
  return decoder.Next(payload);
}

std::string HexString(std::string_view bytes) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kHex[c >> 4]);
    out.push_back(kHex[c & 0xf]);
  }
  return out;
}

TEST(NetWireV2Test, Blake2sMatchesKnownVectors) {
  // RFC 7693 appendix B: unkeyed BLAKE2s-256("abc").
  EXPECT_EQ(HexString(Blake2sMac("", "abc", 32)),
            "508c5e8c327c14e2e1a72ba34eeb452f"
            "37458b209ed63a294d999b4c86675982");
  const Blake2sDigest digest = Blake2s256("abc");
  EXPECT_EQ(HexString(std::string_view(
                reinterpret_cast<const char*>(digest.data()), digest.size())),
            "508c5e8c327c14e2e1a72ba34eeb452f"
            "37458b209ed63a294d999b4c86675982");
  // First entry of the reference keyed KAT: key = 00..1f, data = "".
  std::string key;
  for (int i = 0; i < 32; ++i) key.push_back(static_cast<char>(i));
  EXPECT_EQ(HexString(Blake2sMac(key, "", 32)),
            "48a8997da407876b3d79c0d92325ad3b"
            "89cbb754d86ab71aee047ad345fd2c49");
  EXPECT_EQ(Blake2sMac(key, "x").size(), kBlake2sTagLength);
  EXPECT_TRUE(ConstantTimeEqual("same bytes", "same bytes"));
  EXPECT_FALSE(ConstantTimeEqual("same bytes", "same bytez"));
  EXPECT_FALSE(ConstantTimeEqual("short", "longer than it"));
}

TEST(NetWireV2Test, RoundTripsPlainAndAuthenticated) {
  const std::string small = "a short payload";
  const std::string big(4096, 'r');
  for (const std::string& key : {std::string(""), std::string("sekrit")}) {
    FrameCodecOptions codec;
    codec.auth_key = key;
    for (const std::string& payload : {small, big}) {
      const std::string frame = EncodeFrameV2(payload, codec);
      ASSERT_GE(frame.size(), kFrameHeaderSizeV2);
      EXPECT_TRUE(std::equal(kFrameMagicV2, kFrameMagicV2 + 4,
                             frame.begin()));
      // The body rides verbatim: header, payload, CRC, and a tag only
      // when keyed.
      EXPECT_EQ(frame.size(), kFrameHeaderSizeV2 + payload.size() +
                                  kFrameTrailerSize +
                                  (key.empty() ? 0 : kBlake2sTagLength));
      std::string out;
      auto next = DecodeV2(frame, &out, key);
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      ASSERT_TRUE(*next);
      EXPECT_EQ(out, payload);
    }
  }
}

TEST(NetWireV2Test, KeyedAndV1FrameBytesArePinned) {
  // Golden bytes: a frame format change must be deliberate, never a
  // side effect of a codec refactor.
  const std::string payload = "relcomp-net/1 req status 0:0:";
  FrameCodecOptions keyed;
  keyed.auth_key = "golden fabric key";
  EXPECT_EQ(HexString(EncodeFrameV2(payload, keyed)),
            "524e4632021d0000001d000000"
            "72656c636f6d702d6e65742f31207265712073746174757320303a303a"
            "423e74f3"
            "b8b247cf472d33bb863cf69ee663ee70");
  EXPECT_EQ(HexString(EncodeFrame(payload)),
            "524e46311d000000"
            "72656c636f6d702d6e65742f31207265712073746174757320303a303a"
            "423e74f3");
}

TEST(NetWireV2Test, V2DecoderStillAcceptsV1) {
  FrameDecoder decoder;
  decoder.Feed(EncodeFrame("v1 leg"));
  std::string payload;
  auto next = decoder.Next(&payload);
  ASSERT_TRUE(next.ok() && *next);
  EXPECT_EQ(payload, "v1 leg");
  decoder.Feed(EncodeFrameV2("v2 leg upgraded", FrameCodecOptions{}));
  next = decoder.Next(&payload);
  ASSERT_TRUE(next.ok() && *next) << next.status().ToString();
  EXPECT_EQ(payload, "v2 leg upgraded");
}

TEST(NetWireHostileTest, V2TruncationAtEveryByteNeverYieldsAFrame) {
  FrameCodecOptions codec;
  codec.auth_key = "trunc-key";
  const std::string frame =
      EncodeFrameV2(std::string(300, 'q') + "tail", codec);
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    std::string payload;
    auto next = DecodeV2(frame.substr(0, cut), &payload, "trunc-key");
    ASSERT_TRUE(next.ok()) << "cut at " << cut << ": "
                           << next.status().ToString();
    EXPECT_FALSE(*next) << "truncated v2 frame decoded at cut " << cut;
  }
}

TEST(NetWireHostileTest, V2BitFlipAtEveryPositionNeverDecodesValid) {
  FrameCodecOptions codec;
  codec.auth_key = "flip-key";
  const std::string frame =
      EncodeFrameV2(std::string(128, 'f') + "unique tail", codec);
  for (size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit : {0, 5}) {
      std::string flipped = frame;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      std::string payload;
      auto next = DecodeV2(flipped, &payload, "flip-key");
      // Acceptable outcomes: typed rejection (auth, crc, length, flag)
      // or "incomplete" (the flip grew a declared length). Never a
      // successfully decoded frame.
      if (next.ok()) {
        EXPECT_FALSE(*next) << "flip at byte " << byte << " bit " << bit
                            << " produced a valid frame";
      } else {
        const StatusCode code = next.status().code();
        EXPECT_TRUE(code == StatusCode::kInvalidArgument ||
                    code == StatusCode::kPermissionDenied)
            << next.status().ToString();
      }
    }
  }
}

TEST(NetWireHostileTest, ForgedStrippedAndWrongKeyFramesAreDenied) {
  FrameCodecOptions authed;
  authed.auth_key = "the real key";
  const std::string payload = "guarded payload";
  const std::string frame = EncodeFrameV2(payload, authed);

  // Forged tag: flip one bit inside the trailing tag.
  std::string forged = frame;
  forged.back() = static_cast<char>(forged.back() ^ 1);
  std::string out;
  auto next = DecodeV2(forged, &out, "the real key");
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kPermissionDenied);
  EXPECT_NE(next.status().message().find("tag"), std::string::npos);

  // Wrong key: same typed denial.
  next = DecodeV2(frame, &out, "a different key");
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kPermissionDenied);

  // Stripped auth: an unauthenticated v1 frame at a keyed decoder.
  next = DecodeV2(EncodeFrame(payload), &out, "the real key");
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kPermissionDenied);

  // And an unauthenticated v2 frame at a keyed decoder.
  next = DecodeV2(EncodeFrameV2(payload, FrameCodecOptions{}), &out,
                  "the real key");
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kPermissionDenied);

  // The mirror image: an authenticated frame at a keyless decoder is
  // equally a typed denial (strict mutual auth), not a crash.
  next = DecodeV2(frame, &out);
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kPermissionDenied);
}

TEST(NetWireV2Test, RotationWindowDecoderAcceptsEitherKeyOnly) {
  // A decoder mid-rotation holds two keys; frames tagged with either
  // verify, frames tagged with a third (or untagged) stay denied.
  FrameCodecOptions old_codec;
  old_codec.auth_key = "old fabric key";
  FrameCodecOptions new_codec;
  new_codec.auth_key = "new fabric key";
  FrameCodecOptions other_codec;
  other_codec.auth_key = "some third key";
  const std::string payload = "rotating payload";

  auto decode = [&](const std::string& frame, std::string* out) {
    FrameDecoder decoder;
    decoder.set_auth_key("new fabric key");
    decoder.set_auth_key2("old fabric key");
    decoder.Feed(frame);
    return decoder.Next(out);
  };
  std::string out;
  auto next = decode(EncodeFrameV2(payload, new_codec), &out);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(out, payload);
  next = decode(EncodeFrameV2(payload, old_codec), &out);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(out, payload);
  next = decode(EncodeFrameV2(payload, other_codec), &out);
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kPermissionDenied);
  next = decode(EncodeFrame(payload), &out);
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kPermissionDenied);

  // Dropping the secondary closes the window: the old key stops
  // verifying the moment the rotation completes.
  FrameDecoder single;
  single.set_auth_key("new fabric key");
  single.Feed(EncodeFrameV2(payload, old_codec));
  next = single.Next(&out);
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kPermissionDenied);
}

TEST(NetWireHostileTest, LyingLengthsAndRetiredFlagsAreRefused) {
  for (const std::string& key : {std::string(""), std::string("len-key")}) {
    FrameCodecOptions codec;
    codec.auth_key = key;
    const std::string frame = EncodeFrameV2(std::string(2000, 'z'), codec);
    // A refusal is a typed framing error, and it is sticky: a valid
    // frame fed after it is refused too.
    auto expect_sticky_refusal = [&](const std::string& bytes,
                                     const char* why) {
      FrameDecoder decoder;
      if (!key.empty()) decoder.set_auth_key(key);
      decoder.Feed(bytes);
      std::string out;
      auto next = decoder.Next(&out);
      ASSERT_FALSE(next.ok()) << why;
      EXPECT_EQ(next.status().code(), StatusCode::kInvalidArgument) << why;
      decoder.Feed(EncodeFrameV2("after the defect", codec));
      next = decoder.Next(&out);
      ASSERT_FALSE(next.ok()) << why;
      EXPECT_EQ(next.status().code(), StatusCode::kInvalidArgument) << why;
    };

    // raw_len inflated to 4 GiB: rejected against the receiver cap
    // BEFORE any allocation happens.
    std::string lying = frame;
    lying[5] = lying[6] = lying[7] = lying[8] = static_cast<char>(0xff);
    std::string out;
    auto next = DecodeV2(lying, &out, key);
    ASSERT_FALSE(next.ok());
    EXPECT_NE(next.status().message().find("exceed"), std::string::npos);
    expect_sticky_refusal(lying, "4 GiB raw_len");

    // raw_len that disagrees with body_len.
    std::string small = frame;
    small[5] = 10;
    small[6] = small[7] = small[8] = 0;
    expect_sticky_refusal(small, "raw_len != body_len");

    // Flag bit 0 (the retired compression bit) is an unknown flag,
    // refused before the tag is even looked at.
    std::string flagged = frame;
    flagged[4] = static_cast<char>(flagged[4] | 0x01);
    next = DecodeV2(flagged, &out, key);
    ASSERT_FALSE(next.ok());
    EXPECT_NE(next.status().message().find("flags"), std::string::npos);
    expect_sticky_refusal(flagged, "flag bit 0");

    // A tight receiver cap rejects a truthful-but-large length too.
    next = DecodeV2(frame, &out, key, /*max_payload=*/256);
    ASSERT_FALSE(next.ok());
  }
}

// ---------------------------------------------------------------------------
// Message layer: fabric operations.

TEST(NetWireMessageTest, AdoptAndHandoffRoundTrip) {
  WireRequest adopt;
  adopt.op = WireOp::kAdopt;
  adopt.key = "3";
  WireRequest handoff;
  handoff.op = WireOp::kHandoff;
  handoff.key = "1";
  handoff.job = "unix:/tmp/member-2.sock";
  for (const WireRequest& req : {adopt, handoff}) {
    auto parsed = WireRequest::Deserialize(req.Serialize());
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->op, req.op);
    EXPECT_EQ(parsed->key, req.key);
    EXPECT_EQ(parsed->job, req.job);
  }
}

TEST(NetWireHostileTest, MalformedFabricOpsAreRejected) {
  // A handoff without a successor endpoint.
  WireRequest handoff;
  handoff.op = WireOp::kHandoff;
  handoff.key = "1";
  EXPECT_FALSE(WireRequest::Deserialize(handoff.Serialize()).ok());
  // An adopt carrying a job payload.
  EXPECT_FALSE(
      WireRequest::Deserialize("relcomp-net/1 req adopt 1:13:job payload")
          .ok());
}

// ---------------------------------------------------------------------------
// Fault-plan addressing.

TEST(NetWireFaultPlanTest, FiresMatchOrdinalAndPeriod) {
  SocketFaultPlan once;
  once.kind = SocketFaultPlan::Kind::kReset;
  once.at = 3;
  EXPECT_FALSE(once.Fires(2));
  EXPECT_TRUE(once.Fires(3));
  EXPECT_FALSE(once.Fires(4));

  SocketFaultPlan periodic;
  periodic.kind = SocketFaultPlan::Kind::kBitFlip;
  periodic.every = 2;
  EXPECT_FALSE(periodic.Fires(1));
  EXPECT_TRUE(periodic.Fires(2));
  EXPECT_TRUE(periodic.Fires(4));

  SocketFaultPlan off;
  off.at = 1;  // kind is kNone: never fires
  EXPECT_FALSE(off.Fires(1));
  EXPECT_FALSE(off.active());
}

}  // namespace
}  // namespace relcomp
