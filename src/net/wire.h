#ifndef RELCOMP_NET_WIRE_H_
#define RELCOMP_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "completeness/rcdp.h"
#include "util/status.h"

namespace relcomp {

// --- relcomp-net/1 frame layer ---------------------------------------
//
// Every message travels as one frame:
//
//   bytes 0..3   magic "RNF1" (frame-layer version)
//   bytes 4..7   payload length, unsigned little-endian 32 bit
//   bytes 8..    payload (the message text, see below)
//   last 4       CRC32 (IEEE, reflected) of the payload, little-endian
//
// The magic catches stream desynchronization and version skew at the
// first byte; the length prefix bounds the read (a frame longer than
// the receiver's cap is rejected before any allocation of that size);
// the trailing CRC catches torn tails, truncation, and bit flips
// anywhere in the payload. A frame-layer defect is NOT recoverable on
// the same connection — the byte stream position is lost — so both
// ends close the connection and the client reconnects and retries (its
// idempotency keys make the retry safe).

/// Frame-layer constants, shared by server, client, and the fuzz corpus.
inline constexpr char kFrameMagic[4] = {'R', 'N', 'F', '1'};
inline constexpr size_t kFrameHeaderSize = 8;   // magic + length
inline constexpr size_t kFrameTrailerSize = 4;  // crc32
inline constexpr size_t kFrameOverhead = kFrameHeaderSize + kFrameTrailerSize;
/// Default cap on a frame's payload; a length prefix above the
/// receiver's cap is a typed error, never an allocation.
inline constexpr size_t kDefaultMaxFramePayload = 1u << 20;

// --- relcomp-net/2 frame extension -----------------------------------
//
// The v2 frame carries a keyed authentication tag:
//
//   bytes 0..3    magic "RNF2"
//   byte  4       flags (bit1 = authenticated; every other bit is refused)
//   bytes 5..8    raw payload length, u32 LE
//   bytes 9..12   body length (bytes on the wire), u32 LE; must equal
//                 the raw length
//   bytes 13..    body (the payload)
//   next 4        CRC32 of the body, u32 LE
//   last 16       keyed BLAKE2s tag over ALL preceding frame bytes
//                 (authenticated frames only)
//
// Both declared lengths are checked against the receiver's cap before
// any allocation, and disagreeing lengths are a typed error. Every
// decoder reads both versions (any other magic is "version skew"), and
// each side sends v2 only when authentication is engaged, so
// mixed-version fleets interoperate on v1 frames. When a decoder holds
// an auth key, EVERY inbound frame must carry a valid tag; violations
// surface as kPermissionDenied (terminal), distinct from the
// kInvalidArgument of a torn or corrupt frame.

inline constexpr char kFrameMagicV2[4] = {'R', 'N', 'F', '2'};
inline constexpr size_t kFrameHeaderSizeV2 = 13;  // magic + flags + 2 lengths
inline constexpr uint8_t kFrameFlagAuthenticated = 1u << 1;

/// Encode-side knobs shared by client and server (the decoder takes
/// them via setters).
struct FrameCodecOptions {
  /// Shared fabric secret; non-empty = every sent frame carries a tag
  /// and every received frame must verify against it.
  std::string auth_key;

  bool v2() const { return !auth_key.empty(); }
};

/// Wraps `payload` in a relcomp-net/1 frame.
std::string EncodeFrame(std::string_view payload);

/// Wraps `payload` in a relcomp-net/2 frame, tagged when
/// `options.auth_key` is set (an empty key yields an untagged v2 frame).
std::string EncodeFrameV2(std::string_view payload,
                          const FrameCodecOptions& options);

/// Incremental frame decoder for one connection's byte stream, v1 and
/// v2 frames alike. Feed() arbitrary chunks (as the socket delivers
/// them); Next() yields complete payloads in order. Any defect — bad
/// magic, oversized length, CRC mismatch, bad auth tag — is sticky: the
/// stream is desynchronized and the connection must be closed.
class FrameDecoder {
 public:
  explicit FrameDecoder(size_t max_payload = kDefaultMaxFramePayload)
      : max_payload_(max_payload) {}

  void Feed(std::string_view data) { buffer_.append(data); }

  /// True: `*payload` holds the next complete frame's payload.
  /// False with OK status: need more bytes.
  /// Non-OK: frame-layer defect; sticky. kInvalidArgument for framing
  /// defects, kPermissionDenied for authentication violations.
  Result<bool> Next(std::string* payload);

  /// Requires every inbound frame to carry a valid keyed tag (a v1
  /// frame is then an authentication violation).
  void set_auth_key(std::string key) { auth_key_ = std::move(key); }

  /// Optional secondary key for rotation windows: an inbound tag that
  /// fails the primary is re-checked against this key before the frame
  /// is refused. Encoders never tag with the secondary — it only
  /// widens acceptance, so two fleets mid-rotation (old fleet still on
  /// the outgoing key, new fleet on the incoming one) interoperate
  /// with zero kPermissionDenied. Meaningless without a primary key.
  void set_auth_key2(std::string key) { auth_key2_ = std::move(key); }

  /// Bytes buffered but not yet consumed (a non-empty value that stays
  /// non-empty is a partial frame — the server's slowloris deadline
  /// watches this).
  size_t buffered() const { return buffer_.size(); }

 private:
  size_t max_payload_;
  std::string buffer_;
  bool poisoned_ = false;
  std::string auth_key_;
  std::string auth_key2_;
};

// --- relcomp-net/1 message layer -------------------------------------
//
// The frame payload is versioned text:
//
//   request: relcomp-net/1 req <op> <klen>:<key><jlen>:<job>
//   reply:   relcomp-net/1 rep <code> <retry_after_ms> <state>
//            <verdict> <attempts> <persisted>
//            <mlen>:<message><elen>:<evidence><xlen>:<exhaustion>
//
// ops: submit | poll | cancel | status | ring | adopt | handoff |
// health.
// <key> is the client-chosen idempotency key (a valid store request
// id); <job> is a serialized JobSpec (submit only, empty otherwise).
// A submit reply of a job that is already terminal fills <state>,
// <verdict>, <attempts>, <persisted>, <evidence> and <exhaustion> as a
// poll reply would; the format is the same either way.
// `ring` takes no key and asks a fabric member for its serialized
// `relcomp-fabric/1` ring record (returned in the reply's <message>
// segment; a standalone server answers with a singleton ring naming
// itself, so a FabricClient can bootstrap off any endpoint). The
// fabric-operation ops reuse the two segments differently: `adopt`
// carries the shard number (decimal) in <key> and an empty <job>;
// `handoff` carries the shard number in <key> and the successor's
// endpoint in <job>. Every variable-length field is <len>:<bytes>
// framed, so keys, specs, and evidence may contain spaces or newlines
// without escaping. Deserialize accepts exactly what Serialize emits
// and rejects everything else with a typed kInvalidArgument — the
// hostile-input corpus in net_wire_test.cc sweeps truncations, flips,
// oversized lengths and version skew.

inline constexpr char kMessageMagic[] = "relcomp-net/1";

/// First token of a health reply's <message> segment. The full report:
///
///   relcomp-health/1 <worst-state>
///   shard <label> state=<state> io_errors=<n> write_failures=<n>
///       fsync_failures=<n> probes=<succeeded>/<attempted> shed=<n>
///       ephemeral=<n>        (one line per owned shard)
///
/// <worst-state> is the worst over all lines ("down" > "readonly" >
/// "degraded" > "healthy") so a client can steer on the first line
/// without parsing the rest.
inline constexpr char kHealthMagic[] = "relcomp-health/1";

/// Extracts <worst-state> from a health report's first line ("" when
/// the report is not a relcomp-health/1 document).
std::string_view HealthReportState(std::string_view report);

/// Request operation.
enum class WireOp : uint8_t {
  kSubmit,
  kPoll,
  kCancel,
  kStatus,
  kRing,
  /// Fabric operation: adopt the shard named (decimal) by the key —
  /// the receiving member opens the shard store and re-publishes the
  /// ring. Sent by a handing-off owner to its successor, or by an
  /// operator reviving an orphaned shard.
  kAdopt,
  /// Fabric operation: hand the shard named by the key off to the
  /// successor endpoint carried in the job segment. The receiving
  /// member must currently own the shard.
  kHandoff,
  /// Asks the member for its `relcomp-health/1` store-health report
  /// (per owned shard: healthy/degraded/read-only plus error
  /// counters), returned in the reply's <message> segment. Takes no
  /// key and no job payload, and — like `ring` — is answered even by
  /// a member whose backend is down, so clients can steer away from
  /// sick members instead of timing out against them.
  kHealth,
};

const char* WireOpToString(WireOp op);

struct WireRequest {
  WireOp op = WireOp::kStatus;
  /// Client-chosen idempotency key == the DecisionService request id.
  /// Required for submit/poll/cancel; must be empty for
  /// status/ring/health.
  std::string key;
  /// Serialized JobSpec (submit only; empty otherwise).
  std::string job;

  std::string Serialize() const;
  static Result<WireRequest> Deserialize(std::string_view text);
};

/// Job state as reported by a poll reply (and by the submit reply of
/// a job that is already terminal).
enum class WireJobState : uint8_t { kNone, kQueued, kRunning, kDone };

const char* WireJobStateToString(WireJobState state);

struct WireReply {
  /// kOk, or the typed failure (kResourceExhausted = backpressure /
  /// load shedding, kUnavailable = backend restarting, retry both;
  /// kInvalidArgument / kNotFound / kFailedPrecondition are terminal).
  StatusCode code = StatusCode::kOk;
  /// Human-readable detail (error text, or the status-op report).
  std::string message;
  /// Backpressure hint: how long the client should wait before
  /// retrying (0 = no hint). Set on kResourceExhausted and
  /// kUnavailable replies.
  uint64_t retry_after_ms = 0;
  /// Poll replies: where the job is. Submit replies: kDone with the
  /// fields below when the job is already terminal (a verdict-cache
  /// hit, or a duplicate of a finished job), kNone otherwise — the
  /// client then polls.
  WireJobState state = WireJobState::kNone;
  /// state == kDone only: the terminal verdict and canonical evidence
  /// string (bit-for-bit comparable across runs), plus effort counters.
  Verdict verdict = Verdict::kUnknown;
  std::string evidence;
  uint64_t attempts = 0;
  uint64_t persisted = 0;
  /// Exhaustion rendering for kUnknown verdicts ("" otherwise).
  std::string exhaustion;

  std::string Serialize() const;
  static Result<WireReply> Deserialize(std::string_view text);

  /// Status as seen by a caller: OK for kOk, typed error otherwise.
  Status ToStatus() const {
    return code == StatusCode::kOk ? Status::OK() : Status(code, message);
  }
};

// --- Endpoint addresses ----------------------------------------------

/// A parsed "unix:<path>" or "tcp:<ipv4>:<port>" endpoint: the one
/// grammar the server listens on and the client connects to.
struct NetAddress {
  bool is_unix = false;
  std::string path;  // unix only
  std::string ip;    // tcp only: an IPv4 literal
  uint16_t port = 0;
};

/// kInvalidArgument for anything else: no scheme, an empty or overlong
/// unix path, a port that is not 0-65535 in plain decimal, a non-IPv4
/// host.
Result<NetAddress> ParseNetAddress(std::string_view address);

// --- Socket-level fault injection ------------------------------------

/// Deterministically injures the server's outbound replies so the
/// client's retry/reconnect path is proven, not assumed. Faults are
/// addressed by the server-wide reply ordinal (1-based, in send
/// order): `at` fires once, `every` fires periodically (ordinal % every
/// == 0); both may be combined with `at_byte` for position sweeps.
struct SocketFaultPlan {
  enum class Kind : uint8_t {
    kNone,
    /// Send only the first `at_byte` bytes of the reply frame, then
    /// close the connection (a torn frame / partial write + FIN).
    kTornFrame,
    /// Flip one bit of the frame byte at `at_byte` (mod frame size)
    /// before sending — the CRC must catch it on the client.
    kBitFlip,
    /// Drop the connection with a TCP RST (SO_LINGER 0) instead of
    /// replying — the mid-frame reset / ambiguous-failure case.
    kReset,
    /// Swallow the reply and keep the connection open — the stalled
    /// server case; the client's read deadline must fire.
    kStall,
  };
  Kind kind = Kind::kNone;
  /// 1-based reply ordinal to injure once (0 = disabled).
  size_t at = 0;
  /// Injure every Nth reply (0 = disabled).
  size_t every = 0;
  /// Byte position for kTornFrame / kBitFlip.
  size_t at_byte = 0;

  bool active() const { return kind != Kind::kNone && (at > 0 || every > 0); }
  bool Fires(size_t ordinal) const {
    return kind != Kind::kNone &&
           ((at > 0 && ordinal == at) || (every > 0 && ordinal % every == 0));
  }
};

}  // namespace relcomp

#endif  // RELCOMP_NET_WIRE_H_
