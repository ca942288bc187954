#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>

#include "util/str.h"

namespace relcomp {
namespace {

using Clock = std::chrono::steady_clock;

Status Transport(std::string_view what) {
  return Status::Unavailable(StrCat(what, ": ", std::strerror(errno)));
}

/// Remaining milliseconds before `deadline`, clamped to [0, int-max].
int MsUntil(Clock::time_point deadline) {
  auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - Clock::now())
                .count();
  return static_cast<int>(std::clamp<long long>(ms, 0, 1 << 30));
}

}  // namespace

NetClient::NetClient(std::string address, NetClientOptions options)
    : options_(options), jitter_(options.jitter_seed) {
  // Split the comma-separated failover list. Empty segments are
  // dropped; a wholly empty address yields one empty endpoint whose
  // connect attempt reports the usual typed error.
  size_t pos = 0;
  while (pos <= address.size()) {
    size_t comma = address.find(',', pos);
    if (comma == std::string::npos) comma = address.size();
    std::string endpoint = address.substr(pos, comma - pos);
    if (!endpoint.empty()) endpoints_.push_back(std::move(endpoint));
    pos = comma + 1;
  }
  if (endpoints_.empty()) endpoints_.push_back(std::string());
}

NetClient::~NetClient() { Disconnect(); }

void NetClient::Disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void NetClient::RotateEndpoint() {
  if (endpoints_.size() < 2) return;
  active_ = (active_ + 1) % endpoints_.size();
  ++stats_.failovers;
}

Status NetClient::EnsureConnected() {
  if (fd_ >= 0) return Status::OK();
  const std::string& address = endpoints_[active_];
  int fd = -1;
  if (address.rfind("unix:", 0) == 0) {
    std::string path = address.substr(5);
    if (path.empty() || path.size() >= sizeof(sockaddr_un{}.sun_path)) {
      return Status::InvalidArgument(StrCat("bad unix address: ", address));
    }
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return Transport("socket(unix)");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      Status st = Transport(StrCat("connect ", address));
      ::close(fd);
      return st;
    }
  } else if (address.rfind("tcp:", 0) == 0) {
    std::string rest = address.substr(4);
    size_t colon = rest.rfind(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument(StrCat("bad tcp address: ", address));
    }
    std::string ip = rest.substr(0, colon);
    int port = std::atoi(rest.c_str() + colon + 1);
    if (port <= 0 || port > 65535) {
      return Status::InvalidArgument(StrCat("bad tcp port in: ", address));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::inet_pton(AF_INET, ip.c_str(), &addr.sin_addr) != 1) {
      return Status::InvalidArgument(
          StrCat("tcp host must be an IPv4 literal: ", ip));
    }
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return Transport("socket(tcp)");
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      Status st = Transport(StrCat("connect ", address));
      ::close(fd);
      return st;
    }
  } else {
    return Status::InvalidArgument(
        StrCat("address must start with unix: or tcp:, got ", address));
  }
  fd_ = fd;
  ++stats_.connects;
  return Status::OK();
}

Status NetClient::SendAll(std::string_view data) {
  const Clock::time_point deadline = Clock::now() + options_.io_timeout;
  size_t off = 0;
  while (off < data.size()) {
    pollfd pfd{fd_, POLLOUT, 0};
    int rc = ::poll(&pfd, 1, MsUntil(deadline));
    if (rc == 0) return Status::Unavailable("send deadline exceeded");
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Transport("poll(send)");
    }
    ssize_t n = ::send(fd_, data.data() + off, data.size() - off,
#ifdef MSG_NOSIGNAL
                       MSG_NOSIGNAL
#else
                       0
#endif
    );
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return Transport("send");
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<std::string> NetClient::ReadFrame() {
  const Clock::time_point deadline = Clock::now() + options_.io_timeout;
  FrameDecoder decoder;
  // Replies may arrive v2 (a keyed server tags them); with a key set,
  // every reply must prove itself.
  decoder.set_accept_v2(true);
  if (!options_.auth_key.empty()) {
    decoder.set_auth_key(options_.auth_key);
    decoder.set_auth_key2(options_.auth_key2);
  }
  std::string payload;
  char buf[1 << 14];
  for (;;) {
    RELCOMP_ASSIGN_OR_RETURN(bool have, decoder.Next(&payload));
    if (have) return payload;
    pollfd pfd{fd_, POLLIN, 0};
    int rc = ::poll(&pfd, 1, MsUntil(deadline));
    if (rc == 0) return Status::Unavailable("reply deadline exceeded");
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Transport("poll(recv)");
    }
    ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n == 0) {
      return Status::Unavailable(
          "connection closed before a complete reply (torn frame)");
    }
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return Transport("recv");
    }
    decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
  }
}

Result<WireReply> NetClient::RoundTripOnce(const WireRequest& request) {
  Status conn = EnsureConnected();
  if (!conn.ok()) return conn;
  FrameCodecOptions codec;
  codec.auth_key = options_.auth_key;
  Status sent = SendAll(codec.v2()
                            ? EncodeFrameV2(request.Serialize(), codec)
                            : EncodeFrame(request.Serialize()));
  if (!sent.ok()) {
    Disconnect();
    return sent;
  }
  Result<std::string> payload = ReadFrame();
  if (!payload.ok()) {
    Disconnect();
    // An authentication violation is terminal — retrying with the same
    // key cannot succeed, so it must not be laundered into a retryable
    // kUnavailable.
    if (payload.status().code() == StatusCode::kPermissionDenied) {
      return payload.status();
    }
    // Frame-layer defects (bad magic, CRC mismatch) come back as
    // kInvalidArgument from the decoder, but for the caller they are
    // transport failures: the stream is dead, reconnect and retry.
    if (payload.status().code() != StatusCode::kUnavailable) {
      return Status::Unavailable(payload.status().message());
    }
    return payload.status();
  }
  Result<WireReply> reply = WireReply::Deserialize(*payload);
  if (!reply.ok()) {
    Disconnect();
    return Status::Unavailable(
        StrCat("undecodable reply: ", reply.status().message()));
  }
  ++stats_.round_trips;
  return reply;
}

Result<WireReply> NetClient::Call(const WireRequest& request) {
  const bool bounded = options_.call_deadline.count() > 0;
  const Clock::time_point deadline = Clock::now() + options_.call_deadline;
  // Sleeps never overshoot the caller deadline.
  auto bounded_sleep = [&](uint64_t ms) {
    if (bounded) ms = std::min<uint64_t>(ms, static_cast<uint64_t>(
                                                 MsUntil(deadline)));
    if (ms == 0) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    ++stats_.backoff_waits;
  };
  Status last = Status::OK();
  for (size_t attempt = 0;; ++attempt) {
    Result<WireReply> reply = RoundTripOnce(request);
    if (reply.ok()) {
      // A typed kUnavailable reply (backend restarting, orphaned
      // shard) is retryable exactly like a transport failure — but
      // against the NEXT endpoint of a failover list, this one having
      // just declared itself unable to serve.
      if (reply->code != StatusCode::kUnavailable) return reply;
      last = Status::Unavailable(reply->message);
      if (endpoints_.size() > 1) Disconnect();
      RotateEndpoint();
      if (options_.honor_retry_after && reply->retry_after_ms > 0 &&
          attempt < options_.max_retries) {
        bounded_sleep(reply->retry_after_ms);
      }
    } else if (reply.status().code() == StatusCode::kUnavailable) {
      last = reply.status();
      RotateEndpoint();
    } else {
      return reply.status();  // non-transport error: caller's problem
    }
    if (attempt >= options_.max_retries) {
      return Status::Unavailable(
          StrCat("giving up after ", attempt + 1, " attempts: ",
                 last.message()));
    }
    if (bounded && Clock::now() >= deadline) {
      return Status::DeadlineExceeded(
          StrCat("call deadline (", options_.call_deadline.count(),
                 " ms) exceeded after ", attempt + 1, " attempts: ",
                 last.message()));
    }
    ++stats_.retries;
    // Capped exponential backoff with full jitter.
    const uint64_t base = static_cast<uint64_t>(options_.backoff_base.count());
    const uint64_t cap = static_cast<uint64_t>(options_.backoff_cap.count());
    uint64_t delay = std::min(cap, base << std::min<size_t>(attempt, 20));
    if (delay > 0) {
      delay = std::uniform_int_distribution<uint64_t>(delay / 2, delay)(
          jitter_);
      bounded_sleep(delay);
    }
  }
}

Status NetClient::Submit(const std::string& key, const JobSpec& spec) {
  WireRequest req;
  req.op = WireOp::kSubmit;
  req.key = key;
  req.job = spec.Serialize();
  RELCOMP_ASSIGN_OR_RETURN(WireReply reply, Call(req));
  return reply.ToStatus();
}

Result<WireReply> NetClient::Poll(const std::string& key) {
  WireRequest req;
  req.op = WireOp::kPoll;
  req.key = key;
  return Call(req);
}

Status NetClient::Cancel(const std::string& key) {
  WireRequest req;
  req.op = WireOp::kCancel;
  req.key = key;
  RELCOMP_ASSIGN_OR_RETURN(WireReply reply, Call(req));
  return reply.ToStatus();
}

Result<std::string> NetClient::ServerStatus() {
  WireRequest req;
  req.op = WireOp::kStatus;
  RELCOMP_ASSIGN_OR_RETURN(WireReply reply, Call(req));
  RELCOMP_RETURN_NOT_OK(reply.ToStatus());
  return reply.message;
}

Result<std::string> NetClient::Ring() {
  WireRequest req;
  req.op = WireOp::kRing;
  RELCOMP_ASSIGN_OR_RETURN(WireReply reply, Call(req));
  RELCOMP_RETURN_NOT_OK(reply.ToStatus());
  return reply.message;
}

Result<std::string> NetClient::Health() {
  WireRequest req;
  req.op = WireOp::kHealth;
  RELCOMP_ASSIGN_OR_RETURN(WireReply reply, Call(req));
  RELCOMP_RETURN_NOT_OK(reply.ToStatus());
  return reply.message;
}

Status NetClient::Adopt(size_t shard) {
  WireRequest req;
  req.op = WireOp::kAdopt;
  req.key = StrCat(shard);
  RELCOMP_ASSIGN_OR_RETURN(WireReply reply, Call(req));
  return reply.ToStatus();
}

Status NetClient::Handoff(size_t shard, const std::string& successor) {
  WireRequest req;
  req.op = WireOp::kHandoff;
  req.key = StrCat(shard);
  req.job = successor;
  RELCOMP_ASSIGN_OR_RETURN(WireReply reply, Call(req));
  return reply.ToStatus();
}

Result<WireReply> NetClient::AwaitTerminal(const std::string& key,
                                           std::chrono::milliseconds poll_interval,
                                           std::chrono::milliseconds limit) {
  const Clock::time_point deadline = Clock::now() + limit;
  for (;;) {
    Result<WireReply> reply = Poll(key);
    if (reply.ok() && reply->code == StatusCode::kOk &&
        reply->state == WireJobState::kDone) {
      return reply;
    }
    // kUnavailable (or a per-call deadline expiry) after exhausting
    // Call's own retries: the server is down for longer than one
    // backoff cycle — keep waiting here, the whole point is to span a
    // restart; `limit` is the overall bound. Other errors are terminal.
    if (!reply.ok() &&
        reply.status().code() != StatusCode::kUnavailable &&
        reply.status().code() != StatusCode::kDeadlineExceeded) {
      return reply.status();
    }
    if (reply.ok() && reply->code != StatusCode::kOk &&
        reply->code != StatusCode::kUnavailable) {
      return reply->ToStatus();
    }
    if (Clock::now() >= deadline) {
      return Status::DeadlineExceeded(
          StrCat("job \"", key, "\" not terminal within ", limit.count(),
                 " ms"));
    }
    std::this_thread::sleep_for(poll_interval);
  }
}

}  // namespace relcomp
