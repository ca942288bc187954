#ifndef RELCOMP_NET_SERVER_H_
#define RELCOMP_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/wire.h"
#include "service/decision_service.h"
#include "util/status.h"

namespace relcomp {

/// Server tuning — every limit exists so one misbehaving client cannot
/// take the service down.
struct NetServerOptions {
  /// Reject any frame whose length prefix exceeds this before
  /// allocating (hostile length prefixes are a typed close, not an
  /// allocation).
  size_t max_frame_payload = kDefaultMaxFramePayload;
  /// Connections beyond this are accepted and immediately closed.
  size_t max_connections = 64;
  /// Per-connection in-flight limit: a client with this many buffered
  /// unanswered replies stops being read (TCP backpressure) until its
  /// replies drain.
  size_t max_pipeline = 32;
  /// Slowloris guard: a partial frame older than this closes the
  /// connection. The clock starts when the first byte of a frame
  /// arrives and only a completed frame clears it — trickling one
  /// byte per second buys nothing.
  std::chrono::milliseconds read_deadline{5000};
  /// A connection whose buffered replies have not fully drained within
  /// this is closed (stuck or unreading peer).
  std::chrono::milliseconds write_deadline{5000};
  /// Retry-after hint attached to kResourceExhausted (queue full) and
  /// kUnavailable (backend crashed/restarting) replies.
  uint64_t retry_after_ms = 50;
  /// Hard cap on one connection's buffered outbound bytes; beyond it
  /// the connection is closed (memory protection of last resort —
  /// max_pipeline should engage long before).
  size_t max_write_buffer = 1u << 22;
  /// Outbound fault injection (tests and the fault benchmarks);
  /// replaceable at runtime via InjectFault.
  SocketFaultPlan fault;
  /// Fabric hooks, both optional and both called on the loop thread.
  /// `route` maps an idempotency key to the backing service for keyed
  /// ops (submit/poll/cancel); unset = the single service passed to
  /// Start. A route error becomes a typed reply — kUnavailable routes
  /// (a shard with no live owner) carry retry_after_ms so the shed is
  /// backpressure, never a hang. `ring` supplies the serialized
  /// relcomp-fabric/1 record for the ring op; unset = a singleton ring
  /// naming this server, so a FabricClient can bootstrap off any
  /// endpoint. The ring op is answered even while the backend is
  /// crashed — placement discovery must outlive any one service.
  std::function<Result<DecisionService*>(const std::string& key)> route;
  std::function<std::string()> ring;
  /// Supplies the `relcomp-health/1` report for the health op; unset =
  /// a report synthesized from the single service passed to Start.
  /// Like ring, health is answered even while the backend is crashed —
  /// a sick member must still be able to say it is sick.
  std::function<std::string()> health;
  /// Fabric-operation hooks, called on the loop thread with the shard
  /// number decoded from the request. Unset = typed kUnsupported.
  /// `adopt` opens the shard store here (replay included — a deliberate
  /// loop-thread pause: fabric operations are rare and the caller
  /// bounds them with its own deadline); `handoff` runs the full
  /// planned-handoff protocol, including the adopt RPC to the
  /// successor.
  std::function<Status(size_t shard)> adopt;
  std::function<Status(size_t shard, const std::string& successor)> handoff;
  /// Shared fabric secret: non-empty = every inbound frame must carry
  /// a valid keyed tag (violations get a typed kPermissionDenied reply
  /// and the connection closes) and every reply is tagged.
  std::string auth_key;
  /// Optional outgoing key for a rotation window: inbound tags are
  /// accepted under either key, outbound replies are always tagged
  /// with the primary. Ignored when auth_key is empty.
  std::string auth_key2;
};

/// Observability counters; all monotonic since Start.
struct NetServerStats {
  size_t connections_accepted = 0;
  size_t connections_closed = 0;
  size_t connections_rejected = 0;  ///< over max_connections
  size_t frames_received = 0;
  /// Replies generated, including ones a fault plan injured or
  /// suppressed — always equal to the fault ordinal (see InjectFault).
  size_t replies_sent = 0;
  size_t protocol_errors = 0;  ///< frame-layer defects (connection closed)
  size_t bad_requests = 0;     ///< message-layer defects (typed reply)
  size_t deadline_closes = 0;  ///< slowloris / stuck-writer closes
  size_t submits_admitted = 0;
  size_t submits_deduped = 0;  ///< idempotency-key retries absorbed
  size_t submits_shed = 0;     ///< backpressure (queue exhaustion) replies
  size_t faults_injected = 0;
};

/// Network front end for a DecisionService: one event-loop thread,
/// poll(2) over a TCP (`tcp:<ipv4>:<port>`, port 0 = ephemeral) or
/// Unix-domain (`unix:<path>`) listener plus every live connection.
///
/// The protocol is strictly request/reply over relcomp-net/1 frames;
/// requests are served non-blockingly (Submit admits and returns,
/// clients poll for the verdict), so a slow decider never stalls the
/// loop's ability to shed, dedup, or answer status probes.
///
/// Failure contract:
///  * A frame-layer defect (bad magic, oversized length, CRC mismatch)
///    closes the connection — the stream is desynchronized and nothing
///    on it can be trusted. A message-layer defect inside a valid
///    frame earns a typed kInvalidArgument reply; the connection
///    lives on.
///  * A Submit retried with the same idempotency key is absorbed: if a
///    job with that key exists and its serialized spec is identical,
///    the reply is OK ("duplicate"), and no second job is admitted.
///    The same key with a different spec is kInvalidArgument.
///  * DecisionService queue exhaustion surfaces as a typed
///    kResourceExhausted reply carrying retry_after_ms — backpressure,
///    not a hang or a dropped connection.
///  * A crashed (or restarting) backend surfaces as kUnavailable with
///    retry_after_ms: the client's retry loop spans the restart, and
///    the restarted service's recovery makes the eventual verdict
///    bit-for-bit the uninterrupted one.
///  * Shutdown() drains gracefully: stop accepting, stop reading,
///    flush buffered replies (bounded by write_deadline), then close.
///    In-flight jobs stay with the DecisionService, whose own
///    destructor drains or whose store recovers them.
class NetServer {
 public:
  /// Binds `address` and spawns the loop. The service must outlive the
  /// server. For unix addresses a stale socket file is unlinked first
  /// (the store directory flock already guarantees single ownership of
  /// the backing service).
  static Result<std::unique_ptr<NetServer>> Start(
      DecisionService* service, const std::string& address,
      const NetServerOptions& options = NetServerOptions());

  ~NetServer();
  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Resolved listen address ("tcp:127.0.0.1:<bound port>" or
  /// "unix:<path>") — connectable even when port 0 was requested.
  const std::string& address() const { return address_; }

  /// Graceful drain; idempotent; blocks until the loop exits.
  void Shutdown();

  NetServerStats stats() const;

  /// Arms outbound fault injection for subsequent replies (replaces
  /// any earlier plan). Takes effect on the next reply the loop sends.
  void InjectFault(const SocketFaultPlan& plan);

 private:
  struct Conn;

  NetServer(DecisionService* service, NetServerOptions options);

  void Loop();
  void AcceptNew();
  /// Reads, decodes and serves `conn`; returns false when the
  /// connection must be closed.
  bool ReadAndServe(Conn* conn);
  bool ProcessFrames(Conn* conn);
  bool FlushWrites(Conn* conn);
  WireReply HandleRequest(const WireRequest& request);
  WireReply HandleSubmit(DecisionService* service,
                         const WireRequest& request);
  WireReply HandlePoll(DecisionService* service, const WireRequest& request);
  WireReply HandleCancel(DecisionService* service,
                         const WireRequest& request);
  WireReply HandleStatus();
  WireReply HandleRing();
  WireReply HandleHealth();
  WireReply HandleFabricOp(const WireRequest& request);
  /// Frames `reply` (negotiated v1/v2 unless `force_v1`), applies any
  /// armed fault, and buffers it on `conn`; returns false when the
  /// fault closed the connection.
  bool SendReply(Conn* conn, const WireReply& reply, bool force_v1 = false);
  void CloseConn(Conn* conn);

  DecisionService* service_;
  NetServerOptions options_;
  std::string address_;
  int listen_fd_ = -1;
  bool listen_unix_ = false;
  std::string unix_path_;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  std::thread loop_;

  std::atomic<bool> stop_{false};
  std::mutex shutdown_mu_;  // serializes Shutdown callers
  bool joined_ = false;

  mutable std::mutex stats_mu_;
  NetServerStats stats_;

  mutable std::mutex fault_mu_;
  SocketFaultPlan fault_;
  size_t reply_ordinal_ = 0;  // loop thread only

  /// Loop-thread-only connection table.
  std::vector<std::unique_ptr<Conn>> conns_;
};

}  // namespace relcomp

#endif  // RELCOMP_NET_SERVER_H_
