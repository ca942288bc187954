#include "net/wire.h"

#include <cstring>

#include "service/checkpoint_store.h"
#include "util/blake2s.h"
#include "util/str.h"

namespace relcomp {
namespace {

uint32_t Crc32(std::string_view data) { return CheckpointStore::Crc32(data); }

void PutU32Le(uint32_t v, std::string* out) {
  out->push_back(static_cast<char>(v & 0xFF));
  out->push_back(static_cast<char>((v >> 8) & 0xFF));
  out->push_back(static_cast<char>((v >> 16) & 0xFF));
  out->push_back(static_cast<char>((v >> 24) & 0xFF));
}

uint32_t GetU32Le(const char* p) {
  return static_cast<uint32_t>(static_cast<unsigned char>(p[0])) |
         static_cast<uint32_t>(static_cast<unsigned char>(p[1])) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(p[2])) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(p[3])) << 24;
}

/// Splits the next space-delimited field off `*text`.
bool TakeField(std::string_view* text, std::string_view* field) {
  size_t sp = text->find(' ');
  if (sp == std::string_view::npos) return false;
  *field = text->substr(0, sp);
  text->remove_prefix(sp + 1);
  return true;
}

bool ParseU64(std::string_view field, uint64_t* out) {
  if (field.empty() || field.size() > 20) return false;
  uint64_t v = 0;
  for (char c : field) {
    if (c < '0' || c > '9') return false;
    if (v > (UINT64_MAX - static_cast<uint64_t>(c - '0')) / 10) return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

/// Consumes a "<len>:<bytes>" segment from `*text`. The declared
/// length is checked against what is actually present, so a lying
/// prefix (oversized or undersized) is a typed error, never a read
/// past the buffer.
bool TakeSized(std::string_view* text, std::string_view* out) {
  size_t colon = text->find(':');
  if (colon == std::string_view::npos) return false;
  uint64_t len = 0;
  if (!ParseU64(text->substr(0, colon), &len)) return false;
  text->remove_prefix(colon + 1);
  if (text->size() < len) return false;
  *out = text->substr(0, static_cast<size_t>(len));
  text->remove_prefix(static_cast<size_t>(len));
  return true;
}

Status Malformed(std::string_view what, std::string_view why) {
  return Status::InvalidArgument(
      StrCat("malformed ", what, " (", why, ")"));
}

/// Wire-stable status-code tokens. Distinct from StatusCodeToString so
/// a rename of the human-readable form can never skew the protocol.
struct CodeToken {
  StatusCode code;
  const char* token;
};
constexpr CodeToken kCodeTokens[] = {
    {StatusCode::kOk, "ok"},
    {StatusCode::kInvalidArgument, "invalid_argument"},
    {StatusCode::kNotFound, "not_found"},
    {StatusCode::kResourceExhausted, "resource_exhausted"},
    {StatusCode::kUnsupported, "unsupported"},
    {StatusCode::kCancelled, "cancelled"},
    {StatusCode::kFailedPrecondition, "failed_precondition"},
    {StatusCode::kInternal, "internal"},
    {StatusCode::kUnavailable, "unavailable"},
    {StatusCode::kDeadlineExceeded, "deadline_exceeded"},
    {StatusCode::kPermissionDenied, "permission_denied"},
};

const char* CodeToToken(StatusCode code) {
  for (const CodeToken& entry : kCodeTokens) {
    if (entry.code == code) return entry.token;
  }
  return "internal";
}

bool TokenToCode(std::string_view token, StatusCode* out) {
  for (const CodeToken& entry : kCodeTokens) {
    if (token == entry.token) {
      *out = entry.code;
      return true;
    }
  }
  return false;
}

constexpr const char* kVerdictTokens[] = {"complete", "incomplete",
                                          "unknown"};

bool TokenToVerdict(std::string_view token, Verdict* out) {
  if (token == "complete") *out = Verdict::kComplete;
  else if (token == "incomplete") *out = Verdict::kIncomplete;
  else if (token == "unknown") *out = Verdict::kUnknown;
  else return false;
  return true;
}

constexpr const char* kStateTokens[] = {"none", "queued", "running", "done"};

bool TokenToState(std::string_view token, WireJobState* out) {
  if (token == "none") *out = WireJobState::kNone;
  else if (token == "queued") *out = WireJobState::kQueued;
  else if (token == "running") *out = WireJobState::kRunning;
  else if (token == "done") *out = WireJobState::kDone;
  else return false;
  return true;
}

}  // namespace

// --- Frame layer -----------------------------------------------------

std::string EncodeFrame(std::string_view payload) {
  std::string out;
  out.reserve(payload.size() + kFrameOverhead);
  out.append(kFrameMagic, sizeof(kFrameMagic));
  PutU32Le(static_cast<uint32_t>(payload.size()), &out);
  out.append(payload);
  PutU32Le(Crc32(payload), &out);
  return out;
}

std::string EncodeFrameV2(std::string_view payload,
                          const FrameCodecOptions& options) {
  const uint8_t flags =
      options.auth_key.empty() ? 0 : kFrameFlagAuthenticated;
  std::string out;
  out.reserve(kFrameHeaderSizeV2 + payload.size() + kFrameTrailerSize +
              kBlake2sTagLength);
  out.append(kFrameMagicV2, sizeof(kFrameMagicV2));
  out.push_back(static_cast<char>(flags));
  PutU32Le(static_cast<uint32_t>(payload.size()), &out);
  PutU32Le(static_cast<uint32_t>(payload.size()), &out);
  out.append(payload);
  PutU32Le(Crc32(payload), &out);
  if (flags & kFrameFlagAuthenticated) {
    // The tag covers everything sent so far — header, body, and CRC —
    // so a forger cannot splice authenticated bodies under altered
    // headers.
    out += Blake2sMac(options.auth_key, out);
  }
  return out;
}

Result<bool> FrameDecoder::Next(std::string* payload) {
  if (poisoned_) {
    return Status::InvalidArgument(
        "frame stream is poisoned by an earlier defect; close the "
        "connection");
  }
  if (buffer_.size() < kFrameHeaderSize) return false;
  if (std::memcmp(buffer_.data(), kFrameMagic, sizeof(kFrameMagic)) == 0) {
    if (!auth_key_.empty()) {
      // This endpoint requires authentication; a v1 frame can never
      // carry a tag. Typed refusal, not a framing error.
      poisoned_ = true;
      return Status::PermissionDenied(
          "unauthenticated relcomp-net/1 frame at an endpoint that "
          "requires frame authentication");
    }
    const uint32_t len = GetU32Le(buffer_.data() + sizeof(kFrameMagic));
    if (len > max_payload_) {
      poisoned_ = true;
      return Status::InvalidArgument(
          StrCat("frame payload length ", len, " exceeds the cap ",
                 max_payload_));
    }
    const size_t total = kFrameOverhead + static_cast<size_t>(len);
    if (buffer_.size() < total) return false;
    std::string_view body(buffer_.data() + kFrameHeaderSize, len);
    const uint32_t want = GetU32Le(buffer_.data() + kFrameHeaderSize + len);
    if (Crc32(body) != want) {
      poisoned_ = true;
      return Status::InvalidArgument(
          "frame crc mismatch (torn, truncated, or bit-flipped payload)");
    }
    payload->assign(body);
    buffer_.erase(0, total);
    return true;
  }
  if (accept_v2_ &&
      std::memcmp(buffer_.data(), kFrameMagicV2, sizeof(kFrameMagicV2)) ==
          0) {
    return NextV2(payload);
  }
  poisoned_ = true;
  return Status::InvalidArgument(
      "bad frame magic (stream desynchronized or version skew)");
}

Result<bool> FrameDecoder::NextV2(std::string* payload) {
  if (buffer_.size() < kFrameHeaderSizeV2) return false;
  const uint8_t flags = static_cast<uint8_t>(buffer_[4]);
  if ((flags & ~kFrameFlagAuthenticated) != 0) {
    poisoned_ = true;
    return Status::InvalidArgument(
        StrCat("unknown relcomp-net/2 frame flags ",
               static_cast<unsigned>(flags)));
  }
  const uint32_t raw_len = GetU32Le(buffer_.data() + 5);
  const uint32_t body_len = GetU32Le(buffer_.data() + 9);
  // Both lengths are attacker-controlled: cap them BEFORE sizing any
  // buffer off them, so a lying length never becomes a huge allocation.
  if (raw_len > max_payload_ || body_len > max_payload_) {
    poisoned_ = true;
    return Status::InvalidArgument(
        StrCat("frame lengths raw=", raw_len, " body=", body_len,
               " exceed the cap ", max_payload_));
  }
  if (raw_len != body_len) {
    poisoned_ = true;
    return Status::InvalidArgument("frame with disagreeing raw/body lengths");
  }
  const bool authenticated = (flags & kFrameFlagAuthenticated) != 0;
  const size_t tag_len = authenticated ? kBlake2sTagLength : 0;
  const size_t total = kFrameHeaderSizeV2 + static_cast<size_t>(body_len) +
                       kFrameTrailerSize + tag_len;
  if (buffer_.size() < total) return false;
  if (authenticated != !auth_key_.empty()) {
    poisoned_ = true;
    return authenticated
               ? Status::PermissionDenied(
                     "authenticated frame at an endpoint with no auth key")
               : Status::PermissionDenied(
                     "unauthenticated relcomp-net/2 frame at an endpoint "
                     "that requires frame authentication");
  }
  if (authenticated) {
    const std::string_view covered(buffer_.data(), total - tag_len);
    const std::string_view got(buffer_.data() + total - tag_len, tag_len);
    // Rotation window: a tag that fails the primary key is re-checked
    // against the secondary (if set) before refusal. Both comparisons
    // run constant-time; encoders only ever tag with the primary.
    const bool primary_ok =
        ConstantTimeEqual(Blake2sMac(auth_key_, covered), got);
    const bool secondary_ok =
        !auth_key2_.empty() &&
        ConstantTimeEqual(Blake2sMac(auth_key2_, covered), got);
    if (!primary_ok && !secondary_ok) {
      poisoned_ = true;
      return Status::PermissionDenied(
          "frame authentication tag mismatch (wrong key or forged frame)");
    }
  }
  const std::string_view body(buffer_.data() + kFrameHeaderSizeV2, body_len);
  const uint32_t want =
      GetU32Le(buffer_.data() + kFrameHeaderSizeV2 + body_len);
  if (Crc32(body) != want) {
    poisoned_ = true;
    return Status::InvalidArgument(
        "frame crc mismatch (torn, truncated, or bit-flipped payload)");
  }
  payload->assign(body);
  buffer_.erase(0, total);
  return true;
}

std::string_view HealthReportState(std::string_view report) {
  const size_t eol = report.find('\n');
  std::string_view first =
      eol == std::string_view::npos ? report : report.substr(0, eol);
  const size_t space = first.find(' ');
  if (space == std::string_view::npos ||
      first.substr(0, space) != kHealthMagic) {
    return std::string_view();
  }
  return first.substr(space + 1);
}

// --- Message layer ---------------------------------------------------

const char* WireOpToString(WireOp op) {
  switch (op) {
    case WireOp::kSubmit: return "submit";
    case WireOp::kPoll: return "poll";
    case WireOp::kCancel: return "cancel";
    case WireOp::kStatus: return "status";
    case WireOp::kRing: return "ring";
    case WireOp::kAdopt: return "adopt";
    case WireOp::kHandoff: return "handoff";
    case WireOp::kHealth: return "health";
  }
  return "?";
}

const char* WireJobStateToString(WireJobState state) {
  return kStateTokens[static_cast<size_t>(state)];
}

std::string WireRequest::Serialize() const {
  return StrCat(kMessageMagic, " req ", WireOpToString(op), " ", key.size(),
                ":", key, job.size(), ":", job);
}

Result<WireRequest> WireRequest::Deserialize(std::string_view text) {
  auto fail = [](std::string_view why) { return Malformed("request", why); };
  std::string_view magic, role, op_field;
  if (!TakeField(&text, &magic) || magic != kMessageMagic) {
    return fail("bad message magic");
  }
  if (!TakeField(&text, &role) || role != "req") return fail("not a request");
  if (!TakeField(&text, &op_field)) return fail("no op");
  WireRequest req;
  if (op_field == "submit") req.op = WireOp::kSubmit;
  else if (op_field == "poll") req.op = WireOp::kPoll;
  else if (op_field == "cancel") req.op = WireOp::kCancel;
  else if (op_field == "status") req.op = WireOp::kStatus;
  else if (op_field == "ring") req.op = WireOp::kRing;
  else if (op_field == "adopt") req.op = WireOp::kAdopt;
  else if (op_field == "handoff") req.op = WireOp::kHandoff;
  else if (op_field == "health") req.op = WireOp::kHealth;
  else return fail("unknown op");
  std::string_view key, job;
  if (!TakeSized(&text, &key)) return fail("bad key segment");
  if (!TakeSized(&text, &job)) return fail("bad job segment");
  if (!text.empty()) return fail("trailing bytes");
  if (req.op == WireOp::kStatus || req.op == WireOp::kRing ||
      req.op == WireOp::kHealth) {
    if (!key.empty()) return fail("status/ring/health take no key");
  } else if (key.empty()) {
    return fail("missing idempotency key");
  }
  if (req.op != WireOp::kSubmit && req.op != WireOp::kHandoff &&
      !job.empty()) {
    return fail("job payload on a non-submit op");
  }
  if (req.op == WireOp::kHandoff && job.empty()) {
    return fail("handoff without a successor endpoint");
  }
  req.key = std::string(key);
  req.job = std::string(job);
  return req;
}

std::string WireReply::Serialize() const {
  return StrCat(kMessageMagic, " rep ", CodeToToken(code), " ",
                retry_after_ms, " ", WireJobStateToString(state), " ",
                kVerdictTokens[static_cast<size_t>(verdict)], " ", attempts,
                " ", persisted, " ", message.size(), ":", message,
                evidence.size(), ":", evidence, exhaustion.size(), ":",
                exhaustion);
}

Result<WireReply> WireReply::Deserialize(std::string_view text) {
  auto fail = [](std::string_view why) { return Malformed("reply", why); };
  std::string_view magic, role, code_field, retry_field, state_field,
      verdict_field, attempts_field, persisted_field;
  if (!TakeField(&text, &magic) || magic != kMessageMagic) {
    return fail("bad message magic");
  }
  if (!TakeField(&text, &role) || role != "rep") return fail("not a reply");
  WireReply rep;
  if (!TakeField(&text, &code_field) || !TokenToCode(code_field, &rep.code)) {
    return fail("bad status code");
  }
  if (!TakeField(&text, &retry_field) ||
      !ParseU64(retry_field, &rep.retry_after_ms)) {
    return fail("bad retry-after");
  }
  if (!TakeField(&text, &state_field) ||
      !TokenToState(state_field, &rep.state)) {
    return fail("bad job state");
  }
  if (!TakeField(&text, &verdict_field) ||
      !TokenToVerdict(verdict_field, &rep.verdict)) {
    return fail("bad verdict");
  }
  if (!TakeField(&text, &attempts_field) ||
      !ParseU64(attempts_field, &rep.attempts)) {
    return fail("bad attempts");
  }
  if (!TakeField(&text, &persisted_field) ||
      !ParseU64(persisted_field, &rep.persisted)) {
    return fail("bad persisted count");
  }
  std::string_view message, evidence, exhaustion;
  if (!TakeSized(&text, &message)) return fail("bad message segment");
  if (!TakeSized(&text, &evidence)) return fail("bad evidence segment");
  if (!TakeSized(&text, &exhaustion)) return fail("bad exhaustion segment");
  if (!text.empty()) return fail("trailing bytes");
  rep.message = std::string(message);
  rep.evidence = std::string(evidence);
  rep.exhaustion = std::string(exhaustion);
  return rep;
}

}  // namespace relcomp
