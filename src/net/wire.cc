#include "net/wire.h"

#include <arpa/inet.h>
#include <sys/un.h>

#include <algorithm>
#include <cstring>

#include "util/blake2s.h"
#include "util/codec.h"
#include "util/str.h"

namespace relcomp {
namespace {

/// Wire-stable tokens, indexed by enum value. The status-code tokens
/// are distinct from StatusCodeToString so a rename of the
/// human-readable form can never skew the protocol.
constexpr const char* kOpTokens[] = {"submit", "poll",  "cancel",  "status",
                                     "ring",   "adopt", "handoff", "health"};
constexpr const char* kCodeTokens[] = {
    "ok",        "invalid_argument",    "not_found", "resource_exhausted",
    "unsupported", "cancelled",         "failed_precondition",
    "internal",  "unavailable",         "deadline_exceeded",
    "permission_denied"};
constexpr const char* kVerdictTokens[] = {"complete", "incomplete",
                                          "unknown"};
constexpr const char* kStateTokens[] = {"none", "queued", "running", "done"};

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
  auto poison = [this](Status status) -> Result<bool> {
    poisoned_ = true;
    return status;
  };
  if (poisoned_) {
    return Status::InvalidArgument(
        "frame stream is poisoned by an earlier defect; close the "
        "connection");
  }
  if (buffer_.size() < kFrameHeaderSize) return false;
  // Header: a v1 frame declares one length; a v2 frame declares its raw
  // and body lengths separately, and they must agree.
  size_t header = kFrameHeaderSize;
  uint32_t raw_len = GetU32Le(buffer_.data() + sizeof(kFrameMagic));
  uint32_t body_len = raw_len;
  bool authenticated = false;
  if (std::memcmp(buffer_.data(), kFrameMagic, sizeof(kFrameMagic)) == 0) {
    if (!auth_key_.empty()) {
      // This endpoint requires authentication; a v1 frame can never
      // carry a tag. Typed refusal, not a framing error.
      return poison(Status::PermissionDenied(
          "unauthenticated relcomp-net/1 frame at an endpoint that "
          "requires frame authentication"));
    }
  } else if (std::memcmp(buffer_.data(), kFrameMagicV2,
                         sizeof(kFrameMagicV2)) == 0) {
    if (buffer_.size() < kFrameHeaderSizeV2) return false;
    const uint8_t flags = static_cast<uint8_t>(buffer_[4]);
    if ((flags & ~kFrameFlagAuthenticated) != 0) {
      return poison(Status::InvalidArgument(
          StrCat("unknown relcomp-net/2 frame flags ",
                 static_cast<unsigned>(flags))));
    }
    header = kFrameHeaderSizeV2;
    raw_len = GetU32Le(buffer_.data() + 5);
    body_len = GetU32Le(buffer_.data() + 9);
    authenticated = (flags & kFrameFlagAuthenticated) != 0;
  } else {
    return poison(Status::InvalidArgument(
        "bad frame magic (stream desynchronized or version skew)"));
  }
  // Every declared length is attacker-controlled: cap it BEFORE sizing
  // any buffer off it, so a lying length never becomes an allocation.
  if (std::max(raw_len, body_len) > max_payload_) {
    return poison(Status::InvalidArgument(
        StrCat("frame payload length ", std::max(raw_len, body_len),
               " exceeds the cap ", max_payload_)));
  }
  if (raw_len != body_len) {
    return poison(
        Status::InvalidArgument("frame with disagreeing raw/body lengths"));
  }
  const size_t tag_len = authenticated ? kBlake2sTagLength : 0;
  const size_t total = header + body_len + kFrameTrailerSize + tag_len;
  if (buffer_.size() < total) return false;
  if (header == kFrameHeaderSizeV2 && authenticated == auth_key_.empty()) {
    return poison(
        authenticated
            ? Status::PermissionDenied(
                  "authenticated frame at an endpoint with no auth key")
            : Status::PermissionDenied(
                  "unauthenticated relcomp-net/2 frame at an endpoint "
                  "that requires frame authentication"));
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
      return poison(Status::PermissionDenied(
          "frame authentication tag mismatch (wrong key or forged frame)"));
    }
  }
  const std::string_view body(buffer_.data() + header, body_len);
  if (Crc32(body) != GetU32Le(buffer_.data() + header + body_len)) {
    return poison(Status::InvalidArgument(
        "frame crc mismatch (torn, truncated, or bit-flipped payload)"));
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
  return kOpTokens[static_cast<size_t>(op)];
}

const char* WireJobStateToString(WireJobState state) {
  return kStateTokens[static_cast<size_t>(state)];
}

std::string WireRequest::Serialize() const {
  std::string out = StrCat(kMessageMagic, " req ", WireOpToString(op), " ");
  AppendSized(key, &out);
  AppendSized(job, &out);
  return out;
}

Result<WireRequest> WireRequest::Deserialize(std::string_view text) {
  CodecReader r("relcomp-net/1 request", text);
  WireRequest req;
  RELCOMP_RETURN_NOT_OK(r.Magic(kMessageMagic));
  RELCOMP_ASSIGN_OR_RETURN(const std::string_view role, r.Field());
  if (role != "req") return r.Malformed("not a request");
  RELCOMP_ASSIGN_OR_RETURN(const size_t op, r.Token(kOpTokens));
  req.op = static_cast<WireOp>(op);
  RELCOMP_ASSIGN_OR_RETURN(const std::string_view key, r.Sized());
  RELCOMP_ASSIGN_OR_RETURN(const std::string_view job, r.Sized());
  RELCOMP_RETURN_NOT_OK(r.End());
  if (req.op == WireOp::kStatus || req.op == WireOp::kRing ||
      req.op == WireOp::kHealth) {
    if (!key.empty()) return r.Malformed("status/ring/health take no key");
  } else if (key.empty()) {
    return r.Malformed("missing idempotency key");
  }
  if (req.op != WireOp::kSubmit && req.op != WireOp::kHandoff &&
      !job.empty()) {
    return r.Malformed("job payload on a non-submit op");
  }
  if (req.op == WireOp::kHandoff && job.empty()) {
    return r.Malformed("handoff without a successor endpoint");
  }
  req.key = std::string(key);
  req.job = std::string(job);
  return req;
}

std::string WireReply::Serialize() const {
  std::string out = StrCat(
      kMessageMagic, " rep ", kCodeTokens[static_cast<size_t>(code)], " ",
      retry_after_ms, " ", WireJobStateToString(state), " ",
      kVerdictTokens[static_cast<size_t>(verdict)], " ", attempts, " ",
      persisted, " ");
  AppendSized(message, &out);
  AppendSized(evidence, &out);
  AppendSized(exhaustion, &out);
  return out;
}

Result<WireReply> WireReply::Deserialize(std::string_view text) {
  CodecReader r("relcomp-net/1 reply", text);
  WireReply rep;
  RELCOMP_RETURN_NOT_OK(r.Magic(kMessageMagic));
  RELCOMP_ASSIGN_OR_RETURN(const std::string_view role, r.Field());
  if (role != "rep") return r.Malformed("not a reply");
  RELCOMP_ASSIGN_OR_RETURN(const size_t code, r.Token(kCodeTokens));
  rep.code = static_cast<StatusCode>(code);
  RELCOMP_ASSIGN_OR_RETURN(rep.retry_after_ms, r.U64());
  RELCOMP_RETURN_NOT_OK(r.Expect(" "));
  RELCOMP_ASSIGN_OR_RETURN(const size_t state, r.Token(kStateTokens));
  rep.state = static_cast<WireJobState>(state);
  RELCOMP_ASSIGN_OR_RETURN(const size_t verdict, r.Token(kVerdictTokens));
  rep.verdict = static_cast<Verdict>(verdict);
  RELCOMP_ASSIGN_OR_RETURN(rep.attempts, r.U64());
  RELCOMP_RETURN_NOT_OK(r.Expect(" "));
  RELCOMP_ASSIGN_OR_RETURN(rep.persisted, r.U64());
  RELCOMP_RETURN_NOT_OK(r.Expect(" "));
  RELCOMP_ASSIGN_OR_RETURN(const std::string_view message, r.Sized());
  RELCOMP_ASSIGN_OR_RETURN(const std::string_view evidence, r.Sized());
  RELCOMP_ASSIGN_OR_RETURN(const std::string_view exhaustion, r.Sized());
  RELCOMP_RETURN_NOT_OK(r.End());
  rep.message = std::string(message);
  rep.evidence = std::string(evidence);
  rep.exhaustion = std::string(exhaustion);
  return rep;
}

// --- Endpoint addresses ----------------------------------------------

Result<NetAddress> ParseNetAddress(std::string_view address) {
  NetAddress out;
  if (address.substr(0, 5) == "unix:") {
    out.is_unix = true;
    out.path = std::string(address.substr(5));
    if (out.path.empty()) {
      return Status::InvalidArgument("unix address has an empty path");
    }
    if (out.path.size() >= sizeof(sockaddr_un{}.sun_path)) {
      return Status::InvalidArgument(
          StrCat("unix socket path too long (", out.path.size(), " bytes): ",
                 out.path));
    }
    return out;
  }
  if (address.substr(0, 4) == "tcp:") {
    const std::string_view rest = address.substr(4);
    const size_t colon = rest.rfind(':');
    if (colon == std::string_view::npos) {
      return Status::InvalidArgument(
          StrCat("tcp address needs <ipv4>:<port>: ", address));
    }
    out.ip = std::string(rest.substr(0, colon));
    CodecReader port("tcp port", rest.substr(colon + 1));
    RELCOMP_ASSIGN_OR_RETURN(const uint64_t value, port.U64());
    RELCOMP_RETURN_NOT_OK(port.End());
    if (value > 65535) return port.Malformed("port above 65535");
    out.port = static_cast<uint16_t>(value);
    in_addr probe;
    if (::inet_pton(AF_INET, out.ip.c_str(), &probe) != 1) {
      return Status::InvalidArgument(
          StrCat("tcp host must be an IPv4 literal: ", out.ip));
    }
    return out;
  }
  return Status::InvalidArgument(
      StrCat("address must start with unix: or tcp:, got ", address));
}

}  // namespace relcomp
