#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "fabric/ring.h"
#include "util/codec.h"
#include "util/str.h"

namespace relcomp {
namespace {

using Clock = std::chrono::steady_clock;

Status ErrnoStatus(std::string_view what) {
  return Status::Internal(StrCat(what, ": ", std::strerror(errno)));
}

Status SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return ErrnoStatus("fcntl O_NONBLOCK");
  }
  return Status::OK();
}

/// Gives `reply` the job state a kPoll reply carries: where the job is
/// and, once it is terminal, its verdict, evidence and effort.
void FillJobState(const DecisionService::JobPoll& poll, WireReply* reply) {
  if (!poll.terminal) {
    reply->state =
        poll.running ? WireJobState::kRunning : WireJobState::kQueued;
    return;
  }
  reply->state = WireJobState::kDone;
  reply->verdict = poll.result.verdict;
  reply->evidence = poll.result.evidence;
  reply->attempts = poll.result.attempts;
  reply->persisted = poll.result.persisted;
  if (poll.result.exhaustion.exhausted()) {
    reply->exhaustion = poll.result.exhaustion.ToString();
  }
}

}  // namespace

/// Per-connection state, owned by the loop thread.
struct NetServer::Conn {
  int fd = -1;
  FrameDecoder decoder;
  /// Buffered outbound bytes not yet accepted by the kernel.
  std::string out;
  size_t out_off = 0;
  /// Replies currently buffered in `out` (the pipeline gauge).
  size_t pending_replies = 0;
  /// Stop decoding/serving; flush `out`, then close.
  bool close_after_flush = false;
  /// Reads disabled until `out` drains (backpressure).
  bool paused = false;
  /// Clock::time_point::max() = unarmed.
  Clock::time_point read_deadline_at = Clock::time_point::max();
  Clock::time_point write_deadline_at = Clock::time_point::max();

  Conn(size_t max_payload, const std::string& auth_key,
       const std::string& auth_key2)
      : decoder(max_payload) {
    // The auth key (when set) makes every inbound frame prove itself;
    // the secondary key widens acceptance during a rotation window.
    if (!auth_key.empty()) {
      decoder.set_auth_key(auth_key);
      decoder.set_auth_key2(auth_key2);
    }
  }
};

NetServer::NetServer(DecisionService* service, NetServerOptions options)
    : service_(service), options_(std::move(options)) {
  fault_ = options_.fault;
}

Result<std::unique_ptr<NetServer>> NetServer::Start(
    DecisionService* service, const std::string& address,
    const NetServerOptions& options) {
  if (service == nullptr) {
    return Status::InvalidArgument("NetServer needs a DecisionService");
  }
  RELCOMP_ASSIGN_OR_RETURN(NetAddress parsed, ParseNetAddress(address));

  std::unique_ptr<NetServer> server(new NetServer(service, options));
  int fd = -1;
  if (parsed.is_unix) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return ErrnoStatus("socket(unix)");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, parsed.path.c_str(), parsed.path.size() + 1);
    // A stale socket file from a dead server blocks bind; the store
    // directory's flock is the real single-owner guarantee, so the
    // file is safe to recycle.
    ::unlink(parsed.path.c_str());
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      Status st = ErrnoStatus(StrCat("bind ", parsed.path));
      ::close(fd);
      return st;
    }
    server->listen_unix_ = true;
    server->unix_path_ = parsed.path;
    server->address_ = StrCat("unix:", parsed.path);
  } else {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return ErrnoStatus("socket(tcp)");
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(parsed.port);
    ::inet_pton(AF_INET, parsed.ip.c_str(), &addr.sin_addr);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      Status st = ErrnoStatus(StrCat("bind ", address));
      ::close(fd);
      return st;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
      Status st = ErrnoStatus("getsockname");
      ::close(fd);
      return st;
    }
    server->address_ = StrCat("tcp:", parsed.ip, ":", ntohs(bound.sin_port));
  }
  if (::listen(fd, 64) != 0) {
    Status st = ErrnoStatus("listen");
    ::close(fd);
    return st;
  }
  Status nb = SetNonBlocking(fd);
  if (!nb.ok()) {
    ::close(fd);
    return nb;
  }
  server->listen_fd_ = fd;

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    return ErrnoStatus("pipe");
  }
  server->wake_read_fd_ = pipe_fds[0];
  server->wake_write_fd_ = pipe_fds[1];
  SetNonBlocking(pipe_fds[0]);
  SetNonBlocking(pipe_fds[1]);

  server->loop_ = std::thread([srv = server.get()] { srv->Loop(); });
  return server;
}

NetServer::~NetServer() {
  Shutdown();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
  if (listen_unix_) ::unlink(unix_path_.c_str());
}

void NetServer::Shutdown() {
  std::lock_guard<std::mutex> lock(shutdown_mu_);
  if (joined_) return;
  stop_.store(true, std::memory_order_release);
  if (wake_write_fd_ >= 0) {
    char byte = 'w';
    ssize_t ignored = ::write(wake_write_fd_, &byte, 1);
    (void)ignored;
  }
  if (loop_.joinable()) loop_.join();
  joined_ = true;
}

NetServerStats NetServer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

void NetServer::InjectFault(const SocketFaultPlan& plan) {
  std::lock_guard<std::mutex> lock(fault_mu_);
  fault_ = plan;
}

void NetServer::Loop() {
  bool accepting = true;
  // Drain phase bound: once stop_ is seen, buffered replies get
  // write_deadline to leave; whatever remains is cut.
  Clock::time_point drain_deadline = Clock::time_point::max();

  for (;;) {
    const bool stopping = stop_.load(std::memory_order_acquire);
    if (stopping && accepting) {
      accepting = false;
      drain_deadline = Clock::now() + options_.write_deadline;
      // Stop reading everywhere; flush what is already buffered.
      for (auto& conn : conns_) {
        conn->close_after_flush = true;
      }
    }
    if (stopping) {
      // Drop connections that have nothing left to say (or that missed
      // the drain deadline).
      const Clock::time_point now = Clock::now();
      for (size_t i = 0; i < conns_.size();) {
        Conn* conn = conns_[i].get();
        if (conn->out_off >= conn->out.size() || now >= drain_deadline) {
          CloseConn(conn);
          conns_.erase(conns_.begin() + static_cast<ptrdiff_t>(i));
        } else {
          ++i;
        }
      }
      if (conns_.empty()) return;
    }

    // Poll set: wake pipe, listener (while accepting and under the
    // connection cap), and every connection.
    std::vector<pollfd> fds;
    fds.reserve(conns_.size() + 2);
    fds.push_back({wake_read_fd_, POLLIN, 0});
    size_t listener_index = SIZE_MAX;
    if (accepting && conns_.size() < options_.max_connections) {
      listener_index = fds.size();
      fds.push_back({listen_fd_, POLLIN, 0});
    }
    const size_t conn_base = fds.size();
    // AcceptNew (below) appends to conns_ mid-iteration, so remember
    // how many connections this poll set actually covers — the new
    // ones have no pollfd until the next cycle.
    const size_t polled_conns = conns_.size();
    Clock::time_point next_deadline =
        stopping ? drain_deadline : Clock::time_point::max();
    for (auto& conn : conns_) {
      short events = 0;
      if (!conn->close_after_flush && !conn->paused) events |= POLLIN;
      if (conn->out_off < conn->out.size()) events |= POLLOUT;
      fds.push_back({conn->fd, events, 0});
      next_deadline = std::min(next_deadline, conn->read_deadline_at);
      next_deadline = std::min(next_deadline, conn->write_deadline_at);
    }

    int timeout_ms = 500;  // periodic tick (cheap; bounds lost wakeups)
    if (next_deadline != Clock::time_point::max()) {
      auto until = std::chrono::duration_cast<std::chrono::milliseconds>(
                       next_deadline - Clock::now())
                       .count();
      timeout_ms = static_cast<int>(std::clamp<long long>(until, 0, 500));
    }
    int rc = ::poll(fds.data(), fds.size(), timeout_ms);
    if (rc < 0 && errno != EINTR) return;  // unrecoverable loop failure

    if (fds[0].revents & POLLIN) {
      char buf[64];
      while (::read(wake_read_fd_, buf, sizeof(buf)) > 0) {
      }
    }
    if (listener_index != SIZE_MAX &&
        (fds[listener_index].revents & POLLIN)) {
      AcceptNew();
    }

    const Clock::time_point now = Clock::now();
    // Two cursors: `p` walks the polled pollfds, `i` the (possibly
    // erased-from) conns_ — an erase advances `p` but not `i`, keeping
    // every remaining connection paired with its own pollfd.
    size_t i = 0;
    for (size_t p = 0; p < polled_conns; ++p) {
      Conn* conn = conns_[i].get();
      const pollfd& pfd = fds[conn_base + p];
      bool alive = true;

      if (pfd.revents & (POLLERR | POLLNVAL)) alive = false;
      if (alive && (pfd.revents & POLLIN)) alive = ReadAndServe(conn);
      // POLLHUP with pending input is handled by the read above (recv
      // returns the residue, then 0).
      if (alive && (pfd.revents & POLLHUP) && !(pfd.revents & POLLIN)) {
        alive = false;
      }
      if (alive && (pfd.revents & POLLOUT)) alive = FlushWrites(conn);
      if (alive && (now >= conn->read_deadline_at ||
                    now >= conn->write_deadline_at)) {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.deadline_closes;
        alive = false;
      }
      if (alive && conn->close_after_flush &&
          conn->out_off >= conn->out.size()) {
        alive = false;
      }
      if (!alive) {
        CloseConn(conn);
        conns_.erase(conns_.begin() + static_cast<ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
  }
}

void NetServer::AcceptNew() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      return;  // transient accept failure; the next poll retries
    }
    if (conns_.size() >= options_.max_connections) {
      ::close(fd);
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.connections_rejected;
      continue;
    }
    if (!SetNonBlocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    auto conn = std::make_unique<Conn>(options_.max_frame_payload,
                                       options_.auth_key,
                                       options_.auth_key2);
    conn->fd = fd;
    conns_.push_back(std::move(conn));
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.connections_accepted;
  }
}

bool NetServer::ReadAndServe(Conn* conn) {
  char buf[1 << 14];
  for (;;) {
    ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
      if (static_cast<size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) {
      // Peer closed its write side. Serve what is already buffered,
      // flush, then close.
      if (!ProcessFrames(conn)) return false;
      conn->close_after_flush = true;
      return conn->out_off < conn->out.size();
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return false;  // ECONNRESET and friends
  }
  return ProcessFrames(conn);
}

bool NetServer::ProcessFrames(Conn* conn) {
  std::string payload;
  while (!conn->close_after_flush) {
    if (conn->pending_replies >= options_.max_pipeline) {
      // Backpressure: stop reading (and decoding) until the buffered
      // replies drain; bytes already received wait in the decoder.
      conn->paused = true;
      break;
    }
    Result<bool> next = conn->decoder.Next(&payload);
    if (!next.ok()) {
      // Frame-layer defect: the stream is desynchronized. Flush any
      // replies already earned, then close. An authentication
      // violation additionally earns a typed refusal first, so the
      // unauthenticated peer learns WHY instead of seeing a bare FIN.
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.protocol_errors;
      }
      if (next.status().code() == StatusCode::kPermissionDenied) {
        WireReply denied;
        denied.code = StatusCode::kPermissionDenied;
        denied.message = next.status().message();
        // Plain v1 frame: the refused peer (keyless, or holding the
        // wrong key) could not verify a tagged reply, and the denial
        // carries no secret.
        if (!SendReply(conn, denied, /*force_v1=*/true)) return false;
      }
      conn->close_after_flush = true;
      return conn->out_off < conn->out.size();
    }
    if (!*next) break;  // need more bytes
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.frames_received;
    }
    Result<WireRequest> request = WireRequest::Deserialize(payload);
    WireReply reply;
    if (!request.ok()) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.bad_requests;
      reply.code = StatusCode::kInvalidArgument;
      reply.message = request.status().message();
    } else {
      reply = HandleRequest(*request);
    }
    if (!SendReply(conn, reply)) return false;
  }
  // Slowloris deadline: armed while a partial frame sits in the
  // decoder (and the connection is actually being read), cleared the
  // moment the buffer is empty between frames.
  if (conn->decoder.buffered() > 0 && !conn->paused &&
      !conn->close_after_flush) {
    if (conn->read_deadline_at == Clock::time_point::max()) {
      conn->read_deadline_at = Clock::now() + options_.read_deadline;
    }
  } else {
    conn->read_deadline_at = Clock::time_point::max();
  }
  if (conn->out.size() - conn->out_off > options_.max_write_buffer) {
    return false;  // memory cap of last resort
  }
  return true;
}

WireReply NetServer::HandleRequest(const WireRequest& request) {
  // Ring first, and outside the crashed() gate: placement discovery
  // must work even while every backing service is down, or a client
  // could never learn where a shard went.
  if (request.op == WireOp::kRing) return HandleRing();
  // Health likewise bypasses the gate: a member whose backend (or
  // disk) is down must still be able to say so, or clients would have
  // to infer sickness from timeouts.
  if (request.op == WireOp::kHealth) return HandleHealth();
  // Fabric operations address a shard, not a key: they bypass routing
  // and the crashed() gate (adopting a shard is exactly what revives a
  // member whose own services died).
  if (request.op == WireOp::kAdopt || request.op == WireOp::kHandoff) {
    return HandleFabricOp(request);
  }
  DecisionService* service = service_;
  if (options_.route && request.op != WireOp::kStatus) {
    Result<DecisionService*> routed = options_.route(request.key);
    if (!routed.ok()) {
      // Typed shed: a key whose shard this member does not own (or
      // that no live member owns) is told so, with a retry hint when
      // the condition is transient — never a hang, never a silent
      // misplacement.
      WireReply reply;
      reply.code = routed.status().code();
      reply.message = routed.status().message();
      if (reply.code == StatusCode::kUnavailable) {
        reply.retry_after_ms = options_.retry_after_ms;
      }
      return reply;
    }
    service = *routed;
  }
  // A dead backend is the retryable condition par excellence: the
  // operator restarts the service, recovery resumes every in-flight
  // job, and the client's idempotency key reattaches to it.
  if (service->crashed()) {
    WireReply reply;
    reply.code = StatusCode::kUnavailable;
    reply.message = "decision service is down (crashed or restarting)";
    reply.retry_after_ms = options_.retry_after_ms;
    return reply;
  }
  switch (request.op) {
    case WireOp::kSubmit: return HandleSubmit(service, request);
    case WireOp::kPoll: return HandlePoll(service, request);
    case WireOp::kCancel: return HandleCancel(service, request);
    case WireOp::kStatus: return HandleStatus();
    case WireOp::kRing:
    case WireOp::kAdopt:
    case WireOp::kHandoff:
    case WireOp::kHealth:
      break;  // handled above
  }
  WireReply reply;
  reply.code = StatusCode::kInternal;
  reply.message = "unreachable request op";
  return reply;
}

WireReply NetServer::HandleFabricOp(const WireRequest& request) {
  WireReply reply;
  const bool is_adopt = request.op == WireOp::kAdopt;
  if ((is_adopt && !options_.adopt) || (!is_adopt && !options_.handoff)) {
    reply.code = StatusCode::kUnsupported;
    reply.message = StrCat("this server does not serve fabric ",
                           WireOpToString(request.op), " operations");
    return reply;
  }
  // The key carries the shard number in decimal.
  CodecReader key("fabric op shard number", request.key);
  Result<uint64_t> shard = key.U64();
  Status valid = shard.ok() ? key.End() : shard.status();
  if (!valid.ok()) {
    reply.code = valid.code();
    reply.message = valid.message();
    return reply;
  }
  // Deliberately synchronous on the loop thread: store replay (adopt)
  // or quiesce-flush-journal (handoff) pauses this member's serving,
  // but fabric operations are rare, operator-paced, and bounded by the
  // caller's deadline.
  Status done = is_adopt ? options_.adopt(*shard)
                         : options_.handoff(*shard, request.job);
  reply.code = done.code();
  reply.message = done.ok()
                      ? StrCat(WireOpToString(request.op), " of shard ",
                               *shard, " complete")
                      : done.message();
  if (reply.code == StatusCode::kUnavailable) {
    reply.retry_after_ms = options_.retry_after_ms;
  }
  return reply;
}

WireReply NetServer::HandleRing() {
  WireReply reply;
  reply.message = options_.ring ? options_.ring()
                                : FabricRing::Singleton(address_).Serialize();
  return reply;
}

WireReply NetServer::HandleHealth() {
  WireReply reply;
  if (options_.health) {
    reply.message = options_.health();
    return reply;
  }
  // Standalone server: the fleet is this one service.
  reply.message = StrCat(kHealthMagic, " ", service_->HealthState(), "\n",
                         service_->HealthLine("-"), "\n");
  return reply;
}

WireReply NetServer::HandleSubmit(DecisionService* service,
                                  const WireRequest& request) {
  WireReply reply;
  Result<JobSpec> spec = JobSpec::Deserialize(request.job);
  if (!spec.ok()) {
    reply.code = spec.status().code();
    reply.message = spec.status().message();
    return reply;
  }
  // A job that is terminal by the time it is admitted (a verdict-cache
  // hit) or deduplicated (a finished job) has its result in the reply,
  // so the client needs no poll. The reply format is unchanged: a
  // client that ignores these fields polls as before.
  auto with_job_state = [&](WireReply done) {
    Result<DecisionService::JobPoll> poll = service->Poll(request.key);
    if (poll.ok() && poll->terminal) FillJobState(*poll, &done);
    return done;
  };
  // Idempotency-key dedup: a client that retries after an ambiguous
  // failure (timeout, reset mid-reply) must never double-submit. The
  // serialized spec's BLAKE2s digest is the identity — same key + same
  // bytes is the same job, same key + different bytes is a collision.
  Result<Blake2sDigest> existing = service->JobDigest(request.key);
  if (existing.ok()) {
    if (*existing == JobSpec::Digest(spec->Serialize())) {
      reply.message = "duplicate";
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.submits_deduped;
      }
      return with_job_state(std::move(reply));
    }
    reply.code = StatusCode::kInvalidArgument;
    reply.message = StrCat("idempotency key \"", request.key,
                           "\" is already bound to a different job");
    return reply;
  }
  Status admitted = service->Submit(request.key, *spec);
  if (admitted.ok()) {
    reply.message = "admitted";
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.submits_admitted;
    }
    return with_job_state(std::move(reply));
  }
  reply.code = admitted.code();
  reply.message = admitted.message();
  if (admitted.code() == StatusCode::kResourceExhausted) {
    // Backpressure, typed: the queue is full; try again after the hint.
    reply.retry_after_ms = options_.retry_after_ms;
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.submits_shed;
  } else if (admitted.code() == StatusCode::kFailedPrecondition) {
    // Crashed between the check above and the call: still retryable.
    reply.code = StatusCode::kUnavailable;
    reply.retry_after_ms = options_.retry_after_ms;
  }
  return reply;
}

WireReply NetServer::HandlePoll(DecisionService* service,
                                const WireRequest& request) {
  WireReply reply;
  Result<DecisionService::JobPoll> poll = service->Poll(request.key);
  if (!poll.ok()) {
    reply.code = poll.status().code();
    reply.message = poll.status().message();
    if (poll.status().code() == StatusCode::kFailedPrecondition) {
      reply.code = StatusCode::kUnavailable;
      reply.retry_after_ms = options_.retry_after_ms;
    }
    return reply;
  }
  FillJobState(*poll, &reply);
  return reply;
}

WireReply NetServer::HandleCancel(DecisionService* service,
                                  const WireRequest& request) {
  WireReply reply;
  Status cancelled = service->Cancel(request.key);
  reply.code = cancelled.code();
  reply.message = cancelled.ok() ? "cancelled" : cancelled.message();
  if (cancelled.code() == StatusCode::kFailedPrecondition) {
    reply.code = StatusCode::kUnavailable;
    reply.retry_after_ms = options_.retry_after_ms;
  }
  return reply;
}

WireReply NetServer::HandleStatus() {
  NetServerStats snapshot = stats();
  WireReply reply;
  reply.message = StrCat(
      "address=", address_, "\nconnections_accepted=",
      snapshot.connections_accepted, "\nframes_received=",
      snapshot.frames_received, "\nreplies_sent=", snapshot.replies_sent,
      "\nprotocol_errors=", snapshot.protocol_errors, "\nbad_requests=",
      snapshot.bad_requests, "\ndeadline_closes=", snapshot.deadline_closes,
      "\nsubmits_admitted=", snapshot.submits_admitted, "\nsubmits_deduped=",
      snapshot.submits_deduped, "\nsubmits_shed=", snapshot.submits_shed,
      "\nservice_jobs_shed=", service_->jobs_shed(),
      "\nservice_checkpoints_persisted=", service_->checkpoints_persisted(),
      "\n");
  return reply;
}

bool NetServer::SendReply(Conn* conn, const WireReply& reply,
                          bool force_v1) {
  // Auth implies v2 on both sides; a keyless server replies in v1.
  std::string frame;
  if (!force_v1 && !options_.auth_key.empty()) {
    FrameCodecOptions codec;
    codec.auth_key = options_.auth_key;
    frame = EncodeFrameV2(reply.Serialize(), codec);
  } else {
    frame = EncodeFrame(reply.Serialize());
  }
  ++reply_ordinal_;
  {
    // Counted per attempt, faulted or not, so replies_sent always
    // equals the fault-plan ordinal — the sweep tests aim `at` using
    // this counter.
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.replies_sent;
  }
  SocketFaultPlan plan;
  {
    std::lock_guard<std::mutex> lock(fault_mu_);
    plan = fault_;
  }
  if (plan.Fires(reply_ordinal_)) {
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.faults_injected;
    }
    switch (plan.kind) {
      case SocketFaultPlan::Kind::kTornFrame: {
        // Send a strict prefix, then FIN: the client sees a torn frame.
        const size_t cut =
            std::min(plan.at_byte, frame.size() > 0 ? frame.size() - 1 : 0);
        conn->out.append(frame.data(), cut);
        conn->close_after_flush = true;
        break;
      }
      case SocketFaultPlan::Kind::kBitFlip: {
        frame[plan.at_byte % frame.size()] =
            static_cast<char>(frame[plan.at_byte % frame.size()] ^ 0x01);
        conn->out += frame;
        break;
      }
      case SocketFaultPlan::Kind::kReset: {
        // RST instead of a reply: the ambiguous failure a retrying
        // client must treat as "maybe it happened".
        struct linger lg = {1, 0};
        ::setsockopt(conn->fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
        return false;
      }
      case SocketFaultPlan::Kind::kStall: {
        // Swallow the reply; the connection idles until the client's
        // read deadline fires.
        break;
      }
      case SocketFaultPlan::Kind::kNone:
        conn->out += frame;
        break;
    }
  } else {
    conn->out += frame;
  }
  ++conn->pending_replies;
  if (conn->out_off < conn->out.size() &&
      conn->write_deadline_at == Clock::time_point::max()) {
    conn->write_deadline_at = Clock::now() + options_.write_deadline;
  }
  // Opportunistic immediate flush: most replies fit the socket buffer,
  // so the common case completes without another poll round.
  return FlushWrites(conn);
}

bool NetServer::FlushWrites(Conn* conn) {
  while (conn->out_off < conn->out.size()) {
    ssize_t n = ::send(conn->fd, conn->out.data() + conn->out_off,
                       conn->out.size() - conn->out_off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return false;  // EPIPE / ECONNRESET
    }
    conn->out_off += static_cast<size_t>(n);
  }
  // Fully drained: recycle the buffer, resume reads, clear deadline.
  conn->out.clear();
  conn->out_off = 0;
  conn->pending_replies = 0;
  conn->write_deadline_at = Clock::time_point::max();
  if (conn->paused) {
    conn->paused = false;
    // Frames that arrived while paused are already in the decoder;
    // serve them now rather than waiting for more bytes.
    return ProcessFrames(conn);
  }
  return true;
}

void NetServer::CloseConn(Conn* conn) {
  if (conn->fd >= 0) {
    ::close(conn->fd);
    conn->fd = -1;
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.connections_closed;
}

}  // namespace relcomp
