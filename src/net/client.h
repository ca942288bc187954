#ifndef RELCOMP_NET_CLIENT_H_
#define RELCOMP_NET_CLIENT_H_

#include <chrono>
#include <cstddef>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "net/wire.h"
#include "service/decision_service.h"
#include "util/status.h"

namespace relcomp {

/// Client tuning.
struct NetClientOptions {
  /// Per-round-trip I/O deadline (connect, send, and await-reply each
  /// bounded by it). A server that stalls mid-reply is a kUnavailable
  /// after this long, not a hang.
  std::chrono::milliseconds io_timeout{5000};
  /// Transport-level retry budget per call: how many times a
  /// kUnavailable round trip (refused, reset, torn frame, bad CRC,
  /// deadline) is retried before the call fails. Retries reconnect
  /// from scratch and are safe by construction — every submit carries
  /// the caller's idempotency key, so the server absorbs duplicates.
  size_t max_retries = 8;
  /// Capped exponential backoff between retries: the k-th retry waits
  /// min(backoff_base << k, backoff_cap) plus uniform jitter in
  /// [0, that delay] — jitter breaks retry synchronization between
  /// clients hammering a recovering server.
  std::chrono::milliseconds backoff_base{2};
  std::chrono::milliseconds backoff_cap{250};
  /// Jitter PRNG seed (fixed default keeps tests deterministic).
  uint64_t jitter_seed = 0x9e3779b97f4a7c15ull;
  /// Also honor server retry_after_ms hints (uses the larger of the
  /// hint and the computed backoff).
  bool honor_retry_after = true;
  /// Caller deadline on one Call(): total wall time across every
  /// attempt and backoff sleep. Once it elapses the call fails
  /// kDeadlineExceeded instead of burning through the remaining retry
  /// budget against a server that is down. Zero = bounded only by
  /// max_retries (the historical behavior).
  std::chrono::milliseconds call_deadline{0};
  /// Shared fabric secret: non-empty = every request frame carries a
  /// keyed tag and every reply must verify (a stripped or forged reply
  /// is kPermissionDenied, terminal — never silently accepted).
  std::string auth_key = {};
  /// Optional outgoing key for a rotation window: replies tagged with
  /// either key verify; requests are always tagged with the primary.
  /// Ignored when auth_key is empty.
  std::string auth_key2 = {};
};

/// Observability counters; monotonic for the client's lifetime.
struct NetClientStats {
  size_t round_trips = 0;   ///< completed request/reply exchanges
  size_t connects = 0;      ///< sockets opened (1 + reconnects)
  size_t retries = 0;       ///< transport-level retries performed
  size_t backoff_waits = 0; ///< sleeps taken before a retry
};

/// Blocking request/reply client for a NetServer. One connection,
/// lazily (re)established; every transport failure — connection
/// refused, reset, torn frame, CRC mismatch, I/O deadline — is mapped
/// to kUnavailable and retried with capped exponential backoff and
/// jitter, reconnecting each time. Because submits carry idempotency
/// keys, a retry after an ambiguous failure (reply lost after the
/// server processed the request) is absorbed server-side: exactly-once
/// submission effect over an at-least-once transport.
///
/// The address names one endpoint ("unix:<path>" or
/// "tcp:<ipv4>:<port>"); failing over between servers is the
/// FabricClient's job.
///
/// Not thread-safe: one NetClient per thread.
class NetClient {
 public:
  explicit NetClient(std::string address,
                     NetClientOptions options = NetClientOptions());
  ~NetClient();
  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  /// Submits `spec` under the client-chosen idempotency `key`.
  /// OK whether this call or an earlier retry admitted it (the reply
  /// message distinguishes "admitted" from "duplicate"). Typed errors
  /// pass through: kResourceExhausted = queue full (retry later),
  /// kInvalidArgument = bad spec or key collision. When the reply
  /// already carries the job's terminal state (a verdict-cache hit, or
  /// a duplicate of a finished job), the client keeps it by key until
  /// AwaitTerminal(key) takes it; the newest kMaxKeptReplies are kept.
  Status Submit(const std::string& key, const JobSpec& spec);

  /// Non-blocking server-side state probe for `key`.
  Result<WireReply> Poll(const std::string& key);

  /// Requests cooperative cancellation of `key`.
  Status Cancel(const std::string& key);

  /// Server status report (counters, one per line).
  Result<std::string> ServerStatus();

  /// Polls `key` until it is terminal (state == done), sleeping
  /// `poll_interval` between probes, up to `limit`. Spans server
  /// restarts: kUnavailable and still-running polls both keep waiting.
  /// kDeadlineExceeded once `limit` elapses without a terminal state.
  /// When a kept terminal submit reply of `key` is waiting (see
  /// Submit), it is returned and dropped with no request sent: a
  /// verdict-cache hit costs one round trip in all, also when several
  /// submits precede their awaits.
  Result<WireReply> AwaitTerminal(
      const std::string& key,
      std::chrono::milliseconds poll_interval = std::chrono::milliseconds(5),
      std::chrono::milliseconds limit = std::chrono::milliseconds(60000));

  /// Fetches the server's serialized relcomp-fabric/1 ring record (a
  /// standalone server answers with a singleton ring naming itself).
  Result<std::string> Ring();

  /// Fetches the server's relcomp-health/1 store-health report (see
  /// kHealthMagic in wire.h). Answered even by a member whose backend
  /// is down.
  Result<std::string> Health();

  /// Asks the connected fabric member to adopt `shard` (open its store
  /// and re-publish the ring). kUnsupported against a plain server.
  Status Adopt(size_t shard);

  /// Asks the connected fabric member to hand `shard` off to
  /// `successor` via the planned-handoff protocol. The member must
  /// currently own the shard.
  Status Handoff(size_t shard, const std::string& successor);

  /// One request/reply exchange with retry/reconnect/backoff applied.
  /// Public for the FabricClient, which routes raw requests itself.
  Result<WireReply> Call(const WireRequest& request);

  /// Drops the current connection (the next call reconnects). Lets
  /// tests exercise the reconnect path explicitly.
  void Disconnect();

  const NetClientStats& stats() const { return stats_; }

  /// How many terminal submit replies wait for AwaitTerminal at most;
  /// keeping one more drops the oldest, whose await then polls.
  static constexpr size_t kMaxKeptReplies = 64;

 private:
  /// One attempt: ensure connected, send the frame, read one reply
  /// frame. Any transport defect returns kUnavailable (and drops the
  /// connection).
  Result<WireReply> RoundTripOnce(const WireRequest& request);
  Status EnsureConnected();
  /// Sends all of `data` within the I/O deadline.
  Status SendAll(std::string_view data);
  /// Reads until the decoder yields one frame, within the deadline.
  Result<std::string> ReadFrame();

  std::string address_;
  NetClientOptions options_;
  /// Terminal submit replies not yet awaited, by key, oldest first.
  std::vector<std::pair<std::string, WireReply>> kept_replies_;
  int fd_ = -1;
  NetClientStats stats_;
  std::mt19937_64 jitter_;
};

}  // namespace relcomp

#endif  // RELCOMP_NET_CLIENT_H_
