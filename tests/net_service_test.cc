// End-to-end tests for the network front end: a real NetServer over a
// real DecisionService, talked to over real sockets — including the
// socket-fault sweep (torn frames, bit flips, resets, stalls at every
// reply boundary) and the kill-the-server-mid-job restart test the
// fault-tolerance story hangs on.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "completeness/rcdp.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "service/decision_service.h"
#include "util/str.h"
#include "test_support.h"

namespace relcomp {
namespace {

JobSpec MakeJob(const std::string& spec, size_t slice = 0) {
  JobSpec job;
  job.kind = JobKind::kRcdp;
  job.spec_text = spec;
  job.slice_steps = slice;
  return job;
}

/// A server + service pair over a fresh store directory.
struct TestServer {
  std::unique_ptr<DecisionService> service;
  std::unique_ptr<NetServer> server;
};

TestServer StartServer(const std::string& dir, const std::string& address,
                       DecisionServiceOptions service_options = {},
                       NetServerOptions server_options = {}) {
  TestServer out;
  auto service = DecisionService::Start(dir, service_options);
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  if (!service.ok()) return out;
  out.service = std::move(*service);
  auto server = NetServer::Start(out.service.get(), address, server_options);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  if (!server.ok()) return out;
  out.server = std::move(*server);
  return out;
}

/// Raw blocking unix-socket connection for hostile-client tests that
/// must send bytes no honest NetClient would.
class RawConn {
 public:
  explicit RawConn(const std::string& address) {
    EXPECT_EQ(address.rfind("unix:", 0), 0u) << address;
    const std::string path = address.substr(5);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0)
        << std::strerror(errno);
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }

  void Send(std::string_view data) {
    size_t off = 0;
    while (off < data.size()) {
      ssize_t n = ::send(fd_, data.data() + off, data.size() - off, 0);
      ASSERT_GT(n, 0) << std::strerror(errno);
      off += static_cast<size_t>(n);
    }
  }

  /// Reads one reply frame's payload (blocking, test-deadline bounded).
  std::string ReadReplyPayload() {
    FrameDecoder decoder;
    std::string payload;
    char buf[4096];
    for (;;) {
      auto next = decoder.Next(&payload);
      EXPECT_TRUE(next.ok()) << next.status().ToString();
      if (!next.ok() || *next) return payload;
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      EXPECT_GT(n, 0) << "connection closed mid-reply";
      if (n <= 0) return "";
      decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
    }
  }

  /// True when the server closed the connection (EOF or reset).
  bool WaitForClose(std::chrono::milliseconds limit) {
    const auto deadline = std::chrono::steady_clock::now() + limit;
    char buf[256];
    while (std::chrono::steady_clock::now() < deadline) {
      ssize_t n =
          ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
      if (n == 0) return true;
      if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  }

 private:
  int fd_ = -1;
};

// ---------------------------------------------------------------------------
// Happy path: networked verdicts match direct library calls.

TEST(NetServiceTest, SubmitAndAwaitOverUnixSocketMatchesDirectDecision) {
  TestServer ts = StartServer(FreshDir("unix"), FreshSocket("unix"));
  ASSERT_NE(ts.server, nullptr);
  NetClient client(ts.server->address());

  ASSERT_TRUE(client.Submit("job-1", MakeJob(GridSpec(5, 6))).ok());
  auto reply = client.AwaitTerminal("job-1");
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->verdict, Verdict::kIncomplete);
  EXPECT_EQ(reply->evidence, DirectRcdpEvidence(GridSpec(5, 6)));
  EXPECT_EQ(reply->attempts, 1u);
}

TEST(NetServiceTest, SubmitAndAwaitOverTcpEphemeralPort) {
  TestServer ts = StartServer(FreshDir("tcp"), "tcp:127.0.0.1:0");
  ASSERT_NE(ts.server, nullptr);
  // Port 0 resolved to a real ephemeral port.
  EXPECT_EQ(ts.server->address().rfind("tcp:127.0.0.1:", 0), 0u)
      << ts.server->address();
  EXPECT_NE(ts.server->address(), "tcp:127.0.0.1:0");

  NetClient client(ts.server->address());
  ASSERT_TRUE(client.Submit("job-tcp", MakeJob(GridSpec(5, 6))).ok());
  auto reply = client.AwaitTerminal("job-tcp");
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->evidence, DirectRcdpEvidence(GridSpec(5, 6)));
}

TEST(NetServiceTest, SubmitBeyondTheJobCapsIsATypedRefusal) {
  // The wire decodes every JobSpec through the same bounds check as an
  // in-process Submit: neither cap + 1 ever reaches the service.
  TestServer ts = StartServer(FreshDir("caps"), FreshSocket("caps"));
  ASSERT_NE(ts.server, nullptr);
  NetClient client(ts.server->address());
  JobSpec threads = MakeJob(GridSpec(5, 6));
  threads.num_threads = kMaxJobThreads + 1;
  JobSpec late = MakeJob(GridSpec(5, 6));
  late.deadline = kMaxJobDeadline + std::chrono::milliseconds(1);
  for (const JobSpec& job : {threads, late}) {
    const Status submitted = client.Submit("over-cap", job);
    EXPECT_EQ(submitted.code(), StatusCode::kInvalidArgument)
        << submitted.ToString();
  }
  EXPECT_TRUE(ts.service->store().PendingRequests().empty());
}

TEST(NetAddressTest, ServerAndClientParseEveryAddressAlike) {
  // One parser serves both ends: an address the server refuses to
  // listen on, the client refuses to dial, with the same typed error.
  auto service = DecisionService::Start(FreshDir("addr"));
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  const std::string long_path = StrCat("unix:/", std::string(200, 'p'));
  for (const std::string& bad :
       {std::string("tcp:127.0.0.1:80junk"), std::string("tcp:127.0.0.1:+80"),
        std::string("tcp:127.0.0.1: 80"), std::string("tcp:127.0.0.1:"),
        std::string("tcp:127.0.0.1:-1"), std::string("tcp:127.0.0.1:65536"),
        std::string("tcp:127.0.0.1:99999999999999999999999"),
        std::string("tcp:localhost:80"), std::string("tcp:127.0.0.1"),
        std::string("unix:"), long_path, std::string("udp:127.0.0.1:80"),
        std::string("")}) {
    EXPECT_EQ(ParseNetAddress(bad).status().code(),
              StatusCode::kInvalidArgument)
        << bad;
    EXPECT_EQ(NetServer::Start(service->get(), bad).status().code(),
              StatusCode::kInvalidArgument)
        << bad;
    NetClient client(bad);
    EXPECT_EQ(client.ServerStatus().status().code(),
              StatusCode::kInvalidArgument)
        << bad;
    EXPECT_EQ(client.stats().connects, 0u) << bad;
  }
  struct Good {
    const char* address;
    bool is_unix;
    const char* where;  // path or ip
    uint16_t port;
  };
  for (const Good& good :
       {Good{"tcp:127.0.0.1:80", false, "127.0.0.1", 80},
        Good{"tcp:10.1.2.3:65535", false, "10.1.2.3", 65535},
        Good{"tcp:127.0.0.1:00080", false, "127.0.0.1", 80},
        Good{"tcp:127.0.0.1:0", false, "127.0.0.1", 0},
        Good{"unix:/tmp/a b:c.sock", true, "/tmp/a b:c.sock", 0}}) {
    Result<NetAddress> parsed = ParseNetAddress(good.address);
    ASSERT_TRUE(parsed.ok()) << good.address << ": "
                             << parsed.status().ToString();
    EXPECT_EQ(parsed->is_unix, good.is_unix) << good.address;
    EXPECT_EQ(good.is_unix ? parsed->path : parsed->ip, good.where);
    EXPECT_EQ(parsed->port, good.port) << good.address;
  }
  // And the good forms meet end to end: each side's address is the
  // other's.
  for (const std::string& listen :
       {std::string("tcp:127.0.0.1:0"), FreshSocket("addr")}) {
    auto server = NetServer::Start(service->get(), listen);
    ASSERT_TRUE(server.ok()) << listen << ": " << server.status().ToString();
    NetClient client((*server)->address());
    EXPECT_TRUE(client.ServerStatus().ok()) << (*server)->address();
  }
}

TEST(NetServiceTest, ServerStatusReportsCounters) {
  TestServer ts = StartServer(FreshDir("status"), FreshSocket("status"));
  ASSERT_NE(ts.server, nullptr);
  NetClient client(ts.server->address());
  auto status = client.ServerStatus();
  ASSERT_TRUE(status.ok()) << status.status().ToString();
  EXPECT_NE(status->find("frames_received="), std::string::npos);
}

// ---------------------------------------------------------------------------
// Idempotency: retries never double-submit.

TEST(NetServiceTest, ResubmitWithSameKeyAndSpecIsAbsorbed) {
  DecisionServiceOptions paused;
  paused.start_paused = true;  // keep the job queued so both submits race it
  TestServer ts =
      StartServer(FreshDir("dedup"), FreshSocket("dedup"), paused);
  ASSERT_NE(ts.server, nullptr);
  NetClient client(ts.server->address());

  const JobSpec job = MakeJob(GridSpec(5, 6));
  ASSERT_TRUE(client.Submit("job-dup", job).ok());
  ASSERT_TRUE(client.Submit("job-dup", job).ok());  // the "retry"
  ASSERT_TRUE(client.Submit("job-dup", job).ok());  // and another
  EXPECT_EQ(ts.server->stats().submits_admitted, 1u);
  EXPECT_EQ(ts.server->stats().submits_deduped, 2u);

  ts.service->Resume();
  auto reply = client.AwaitTerminal("job-dup");
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  // Exactly one job ran.
  EXPECT_EQ(ts.service->completed_order().size(), 1u);
}

TEST(NetServiceTest, SameKeyDifferentSpecIsATypedCollision) {
  DecisionServiceOptions paused;
  paused.start_paused = true;
  TestServer ts =
      StartServer(FreshDir("collide"), FreshSocket("collide"), paused);
  ASSERT_NE(ts.server, nullptr);
  NetClient client(ts.server->address());

  ASSERT_TRUE(client.Submit("job-x", MakeJob(GridSpec(5, 6))).ok());
  Status collision = client.Submit("job-x", MakeJob(GridSpec(5, 6), 16));
  ASSERT_FALSE(collision.ok());
  EXPECT_EQ(collision.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(collision.message().find("different job"), std::string::npos);
}

// A terminal job has released its spec text; the digest of its
// serialized spec still anchors the dedup.
TEST(NetServiceTest, TerminalJobResubmitWithSameSpecIsAbsorbed) {
  TestServer ts = StartServer(FreshDir("tdedup"), FreshSocket("tdedup"));
  ASSERT_NE(ts.server, nullptr);
  NetClient client(ts.server->address());

  const JobSpec job = MakeJob(GridSpec(5, 6));
  ASSERT_TRUE(client.Submit("job-done", job).ok());
  ASSERT_TRUE(client.AwaitTerminal("job-done").ok());
  ASSERT_TRUE(client.Submit("job-done", job).ok());  // the late "retry"
  EXPECT_EQ(ts.server->stats().submits_admitted, 1u);
  EXPECT_EQ(ts.server->stats().submits_deduped, 1u);
  auto reply = client.AwaitTerminal("job-done");
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->evidence, DirectRcdpEvidence(GridSpec(5, 6)));
  EXPECT_EQ(ts.service->completed_order().size(), 1u);
}

TEST(NetServiceTest, TerminalJobSameKeyDifferentSpecIsATypedCollision) {
  TestServer ts = StartServer(FreshDir("tcollide"), FreshSocket("tcollide"));
  ASSERT_NE(ts.server, nullptr);
  NetClient client(ts.server->address());

  ASSERT_TRUE(client.Submit("job-done", MakeJob(GridSpec(5, 6))).ok());
  ASSERT_TRUE(client.AwaitTerminal("job-done").ok());
  Status collision = client.Submit("job-done", MakeJob(GridSpec(5, 6), 16));
  ASSERT_FALSE(collision.ok());
  EXPECT_EQ(collision.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(collision.message().find("different job"), std::string::npos);
  EXPECT_EQ(ts.server->stats().submits_admitted, 1u);
}

// ---------------------------------------------------------------------------
// A job that is terminal when its submit is answered carries its result
// in the submit reply.

DecisionServiceOptions WithCache() {
  DecisionServiceOptions options;
  options.enable_verdict_cache = true;
  return options;
}

WireRequest SubmitRequest(const std::string& key, const JobSpec& job) {
  WireRequest request;
  request.op = WireOp::kSubmit;
  request.key = key;
  request.job = job.Serialize();
  return request;
}

TEST(NetServiceTest, SubmitReplyOfAHitCarriesWhatAPollWould) {
  TestServer ts =
      StartServer(FreshDir("hit_reply"), FreshSocket("hit_reply"), WithCache());
  ASSERT_NE(ts.server, nullptr);
  NetClient client(ts.server->address());
  const JobSpec job = MakeJob(GridSpec(5, 6));
  ASSERT_TRUE(client.Submit("miss", job).ok());
  ASSERT_TRUE(client.AwaitTerminal("miss").ok());

  auto submitted = client.Call(SubmitRequest("hit", job));
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  EXPECT_EQ(submitted->code, StatusCode::kOk);
  EXPECT_EQ(submitted->message, "admitted");
  EXPECT_EQ(submitted->state, WireJobState::kDone);
  auto polled = client.Poll("hit");
  ASSERT_TRUE(polled.ok()) << polled.status().ToString();
  EXPECT_EQ(submitted->verdict, polled->verdict);
  EXPECT_EQ(submitted->evidence, polled->evidence);
  EXPECT_EQ(submitted->attempts, polled->attempts);
  EXPECT_EQ(submitted->persisted, polled->persisted);
  EXPECT_EQ(submitted->exhaustion, polled->exhaustion);
  EXPECT_EQ(submitted->evidence, DirectRcdpEvidence(GridSpec(5, 6)));
  EXPECT_EQ(submitted->attempts, 0u);
}

TEST(NetServiceTest, SubmitAndAwaitOfAHitIsOneRoundTrip) {
  TestServer ts =
      StartServer(FreshDir("hit_trip"), FreshSocket("hit_trip"), WithCache());
  ASSERT_NE(ts.server, nullptr);
  NetClient client(ts.server->address());
  const JobSpec job = MakeJob(GridSpec(5, 6));
  ASSERT_TRUE(client.Submit("miss", job).ok());
  ASSERT_TRUE(client.AwaitTerminal("miss").ok());

  const size_t trips = client.stats().round_trips;
  const size_t frames = ts.server->stats().frames_received;
  ASSERT_TRUE(client.Submit("hit", job).ok());
  auto reply = client.AwaitTerminal("hit");
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->evidence, DirectRcdpEvidence(GridSpec(5, 6)));
  EXPECT_EQ(reply->attempts, 0u);
  EXPECT_EQ(client.stats().round_trips - trips, 1u);
  EXPECT_EQ(ts.server->stats().frames_received - frames, 1u);
  EXPECT_EQ(ts.service->verdicts_served_from_cache(), 1u);
}

TEST(NetServiceTest, EveryHitSubmittedBeforeItsAwaitIsOneRoundTrip) {
  TestServer ts =
      StartServer(FreshDir("hits_kept"), FreshSocket("hits_kept"), WithCache());
  ASSERT_NE(ts.server, nullptr);
  NetClient client(ts.server->address());
  const JobSpec job = MakeJob(GridSpec(5, 6));
  ASSERT_TRUE(client.Submit("miss", job).ok());
  ASSERT_TRUE(client.AwaitTerminal("miss").ok());
  const std::string direct = DirectRcdpEvidence(GridSpec(5, 6));

  // Both submits go out before either await, as relcheck --connect
  // sends a spec's queries.
  const size_t trips = client.stats().round_trips;
  const size_t frames = ts.server->stats().frames_received;
  ASSERT_TRUE(client.Submit("hit-1", job).ok());
  ASSERT_TRUE(client.Submit("hit-2", job).ok());
  for (const std::string key : {"hit-1", "hit-2"}) {
    auto reply = client.AwaitTerminal(key);
    ASSERT_TRUE(reply.ok()) << key << ": " << reply.status().ToString();
    EXPECT_EQ(reply->evidence, direct) << key;
    EXPECT_EQ(reply->attempts, 0u) << key;
  }
  EXPECT_EQ(client.stats().round_trips - trips, 2u);
  EXPECT_EQ(ts.server->stats().frames_received - frames, 2u);
  EXPECT_EQ(ts.service->verdicts_served_from_cache(), 2u);
}

TEST(NetServiceTest, KeptSubmitRepliesAreBoundedOldestFirst) {
  TestServer ts =
      StartServer(FreshDir("hits_bound"), FreshSocket("hits_bound"), WithCache());
  ASSERT_NE(ts.server, nullptr);
  NetClient client(ts.server->address());
  const JobSpec job = MakeJob(GridSpec(5, 6));
  ASSERT_TRUE(client.Submit("miss", job).ok());
  ASSERT_TRUE(client.AwaitTerminal("miss").ok());

  // One hit more than the client keeps: the oldest reply is dropped,
  // so its await polls, and only its await.
  const size_t hits = NetClient::kMaxKeptReplies + 1;
  for (size_t i = 0; i < hits; ++i) {
    ASSERT_TRUE(client.Submit(StrCat("hit-", i), job).ok()) << i;
  }
  const size_t trips = client.stats().round_trips;
  for (size_t i = 0; i < hits; ++i) {
    auto reply = client.AwaitTerminal(StrCat("hit-", i));
    ASSERT_TRUE(reply.ok()) << i << ": " << reply.status().ToString();
    EXPECT_EQ(reply->attempts, 0u) << i;
    EXPECT_EQ(client.stats().round_trips - trips, 1u) << i;
  }
}

TEST(NetServiceTest, AMissStillPollsToTheDirectVerdict) {
  DecisionServiceOptions options = WithCache();
  options.start_paused = true;  // the job is queued when Submit answers
  TestServer ts =
      StartServer(FreshDir("miss_poll"), FreshSocket("miss_poll"), options);
  ASSERT_NE(ts.server, nullptr);
  NetClient client(ts.server->address());
  auto submitted =
      client.Call(SubmitRequest("miss", MakeJob(GridSpec(5, 6))));
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  EXPECT_EQ(submitted->code, StatusCode::kOk);
  EXPECT_EQ(submitted->state, WireJobState::kNone);
  ts.service->Resume();
  auto reply =
      client.AwaitTerminal("miss", std::chrono::milliseconds(1));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->evidence, DirectRcdpEvidence(GridSpec(5, 6)));
  EXPECT_EQ(reply->attempts, 1u);
  EXPECT_GE(client.stats().round_trips, 2u);
}

TEST(NetServiceTest, DuplicateOfAFinishedJobCarriesItsResult) {
  TestServer ts = StartServer(FreshDir("dup_done"), FreshSocket("dup_done"));
  ASSERT_NE(ts.server, nullptr);
  NetClient client(ts.server->address());
  const JobSpec job = MakeJob(GridSpec(5, 6));
  ASSERT_TRUE(client.Submit("job-done", job).ok());
  auto first = client.AwaitTerminal("job-done");
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  auto duplicate = client.Call(SubmitRequest("job-done", job));
  ASSERT_TRUE(duplicate.ok()) << duplicate.status().ToString();
  EXPECT_EQ(duplicate->message, "duplicate");
  EXPECT_EQ(duplicate->state, WireJobState::kDone);
  EXPECT_EQ(duplicate->verdict, first->verdict);
  EXPECT_EQ(duplicate->evidence, first->evidence);
  EXPECT_EQ(duplicate->attempts, 1u);
  EXPECT_EQ(ts.server->stats().submits_deduped, 1u);
  EXPECT_EQ(ts.service->completed_order().size(), 1u);
}

// ---------------------------------------------------------------------------
// Backpressure and typed failure paths.

TEST(NetServiceTest, QueueExhaustionIsTypedResourceExhaustedWithHint) {
  DecisionServiceOptions options;
  options.start_paused = true;
  options.max_queue_depth = 1;
  TestServer ts =
      StartServer(FreshDir("shed"), FreshSocket("shed"), options);
  ASSERT_NE(ts.server, nullptr);
  NetClient client(ts.server->address());

  ASSERT_TRUE(client.Submit("fits", MakeJob(GridSpec(5, 6))).ok());
  Status shed = client.Submit("shed", MakeJob(GridSpec(5, 6)));
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  EXPECT_GE(ts.server->stats().submits_shed, 1u);
  // The shed job left no durable record: a restart won't resurrect it.
  EXPECT_EQ(ts.service->store().LoadJob("shed").status().code(),
            StatusCode::kNotFound);
  ts.service->Resume();
}

TEST(NetServiceTest, PollOfUnknownKeyIsNotFound) {
  TestServer ts = StartServer(FreshDir("nf"), FreshSocket("nf"));
  ASSERT_NE(ts.server, nullptr);
  NetClient client(ts.server->address());
  auto reply = client.Poll("no-such-job");
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->code, StatusCode::kNotFound);
}

TEST(NetServiceTest, CancelOverTheWireFinishesQueuedJobAsUnknown) {
  DecisionServiceOptions paused;
  paused.start_paused = true;
  TestServer ts =
      StartServer(FreshDir("cancel"), FreshSocket("cancel"), paused);
  ASSERT_NE(ts.server, nullptr);
  NetClient client(ts.server->address());

  ASSERT_TRUE(client.Submit("doomed", MakeJob(GridSpec(5, 6))).ok());
  ASSERT_TRUE(client.Cancel("doomed").ok());
  auto reply = client.AwaitTerminal("doomed");
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->verdict, Verdict::kUnknown);
  EXPECT_NE(reply->exhaustion.find("cancel"), std::string::npos)
      << reply->exhaustion;
  // Cancelled = abandoned: nothing left for a restart to resurrect.
  EXPECT_TRUE(ts.service->store().PendingRequests().empty());
  ts.service->Resume();
}

// ---------------------------------------------------------------------------
// Hostile clients.

TEST(NetServiceTest, FrameDefectClosesOnlyTheOffendingConnection) {
  TestServer ts = StartServer(FreshDir("hostile"), FreshSocket("hostile"));
  ASSERT_NE(ts.server, nullptr);

  {
    RawConn hostile(ts.server->address());
    hostile.Send("this is not a relcomp-net frame at all");
    EXPECT_TRUE(hostile.WaitForClose(std::chrono::milliseconds(5000)))
        << "frame defect should close the connection";
  }
  EXPECT_GE(ts.server->stats().protocol_errors, 1u);

  // The server survived and serves honest clients.
  NetClient client(ts.server->address());
  auto status = client.ServerStatus();
  EXPECT_TRUE(status.ok()) << status.status().ToString();
}

TEST(NetServiceTest, BadMessageInsideValidFrameGetsTypedReply) {
  TestServer ts = StartServer(FreshDir("badmsg"), FreshSocket("badmsg"));
  ASSERT_NE(ts.server, nullptr);

  RawConn conn(ts.server->address());
  conn.Send(EncodeFrame("relcomp-net/1 req destroy 1:k0:"));
  auto reply = WireReply::Deserialize(conn.ReadReplyPayload());
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->code, StatusCode::kInvalidArgument);
  EXPECT_GE(ts.server->stats().bad_requests, 1u);

  // Message-layer defects are not sticky: the same connection still
  // serves a well-formed request.
  WireRequest status_req;
  status_req.op = WireOp::kStatus;
  conn.Send(EncodeFrame(status_req.Serialize()));
  auto status_reply = WireReply::Deserialize(conn.ReadReplyPayload());
  ASSERT_TRUE(status_reply.ok());
  EXPECT_EQ(status_reply->code, StatusCode::kOk);
}

TEST(NetServiceTest, SlowlorisPartialFrameIsClosedByReadDeadline) {
  NetServerOptions options;
  options.read_deadline = std::chrono::milliseconds(150);
  TestServer ts = StartServer(FreshDir("slow"), FreshSocket("slow"),
                              DecisionServiceOptions(), options);
  ASSERT_NE(ts.server, nullptr);

  RawConn slow(ts.server->address());
  const std::string frame = EncodeFrame("a frame that never finishes");
  slow.Send(frame.substr(0, frame.size() / 2));  // ... and stop
  EXPECT_TRUE(slow.WaitForClose(std::chrono::milliseconds(5000)))
      << "slowloris connection should be closed by the read deadline";
  EXPECT_GE(ts.server->stats().deadline_closes, 1u);

  // An honest client is unaffected.
  NetClient client(ts.server->address());
  EXPECT_TRUE(client.ServerStatus().ok());
}

TEST(NetServiceTest, OversizedFramePrefixIsRejectedWithoutAllocation) {
  NetServerOptions options;
  options.max_frame_payload = 1024;
  TestServer ts = StartServer(FreshDir("oversize"), FreshSocket("oversize"),
                              DecisionServiceOptions(), options);
  ASSERT_NE(ts.server, nullptr);

  RawConn conn(ts.server->address());
  std::string hostile(kFrameMagic, sizeof(kFrameMagic));
  hostile += std::string("\xff\xff\xff\x7f", 4);  // ~2 GiB declared
  conn.Send(hostile);
  EXPECT_TRUE(conn.WaitForClose(std::chrono::milliseconds(5000)));
  EXPECT_GE(ts.server->stats().protocol_errors, 1u);
}

// ---------------------------------------------------------------------------
// Socket-fault sweep: every injected fault ends in a typed Status (or
// a transparent retry), never a crash, never a hang.

TEST(NetServiceTest, FaultSweepTornFrameAtEveryBoundary) {
  TestServer ts = StartServer(FreshDir("torn"), FreshSocket("torn"));
  ASSERT_NE(ts.server, nullptr);
  // Cut the reply at every offset through header (magic, length),
  // payload, and trailer. 0..80 spans the whole frame of a small
  // reply; SendReply clamps the cut to frame-size - 1, so the sweep
  // covers the final boundary too.
  for (size_t cut = 0; cut <= 80; cut += 4) {
    SocketFaultPlan plan;
    plan.kind = SocketFaultPlan::Kind::kTornFrame;
    plan.at = ts.server->stats().replies_sent + 1;  // next reply
    plan.at_byte = cut;
    ts.server->InjectFault(plan);

    NetClientOptions copts;
    copts.io_timeout = std::chrono::milliseconds(2000);
    NetClient client(ts.server->address(), copts);
    auto reply = client.Poll("absent");
    // The torn first reply forces a retry; the retry's reply is whole.
    ASSERT_TRUE(reply.ok()) << "cut=" << cut << ": "
                            << reply.status().ToString();
    EXPECT_EQ(reply->code, StatusCode::kNotFound) << "cut=" << cut;
    EXPECT_GE(client.stats().retries, 1u) << "cut=" << cut;
  }
  EXPECT_GE(ts.server->stats().faults_injected, 20u);
}

TEST(NetServiceTest, FaultSweepBitFlipAtEveryPosition) {
  TestServer ts = StartServer(FreshDir("flip"), FreshSocket("flip"));
  ASSERT_NE(ts.server, nullptr);
  for (size_t byte = 0; byte <= 80; byte += 4) {
    SocketFaultPlan plan;
    plan.kind = SocketFaultPlan::Kind::kBitFlip;
    plan.at = ts.server->stats().replies_sent + 1;
    plan.at_byte = byte;  // mod frame size inside the server
    ts.server->InjectFault(plan);

    NetClientOptions copts;
    copts.io_timeout = std::chrono::milliseconds(2000);
    NetClient client(ts.server->address(), copts);
    auto reply = client.Poll("absent");
    ASSERT_TRUE(reply.ok()) << "byte=" << byte << ": "
                            << reply.status().ToString();
    EXPECT_EQ(reply->code, StatusCode::kNotFound) << "byte=" << byte;
  }
}

TEST(NetServiceTest, FaultSweepResetAndStallAreRetriedToSuccess) {
  NetServerOptions sopts;
  TestServer ts = StartServer(FreshDir("reset"), FreshSocket("reset"),
                              DecisionServiceOptions(), sopts);
  ASSERT_NE(ts.server, nullptr);
  for (auto kind :
       {SocketFaultPlan::Kind::kReset, SocketFaultPlan::Kind::kStall}) {
    SocketFaultPlan plan;
    plan.kind = kind;
    plan.at = ts.server->stats().replies_sent + 1;
    ts.server->InjectFault(plan);

    NetClientOptions copts;
    // Small read deadline so the stall case fails over quickly.
    copts.io_timeout = std::chrono::milliseconds(300);
    NetClient client(ts.server->address(), copts);
    auto reply = client.Poll("absent");
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->code, StatusCode::kNotFound);
    EXPECT_GE(client.stats().retries, 1u);
  }
}

TEST(NetServiceTest, PeriodicFaultsDuringRealJobsStillConverge) {
  // Every 2nd reply injured while real submit/poll traffic flows: the
  // client's retry loop must still land every verdict, identically.
  // The service starts paused, so the job is still queued when its
  // submit is answered and the client must poll for the verdict.
  DecisionServiceOptions paused;
  paused.start_paused = true;
  TestServer ts =
      StartServer(FreshDir("periodic"), FreshSocket("periodic"), paused);
  ASSERT_NE(ts.server, nullptr);
  SocketFaultPlan plan;
  plan.kind = SocketFaultPlan::Kind::kBitFlip;
  plan.every = 2;  // even a submit-then-one-poll exchange hits one
  plan.at_byte = 11;
  ts.server->InjectFault(plan);

  NetClientOptions copts;
  copts.io_timeout = std::chrono::milliseconds(2000);
  NetClient client(ts.server->address(), copts);
  ASSERT_TRUE(client.Submit("under-fire", MakeJob(GridSpec(5, 6))).ok());
  ts.service->Resume();
  auto reply = client.AwaitTerminal("under-fire");
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->evidence, DirectRcdpEvidence(GridSpec(5, 6)));
  EXPECT_GE(ts.server->stats().faults_injected, 1u);
}

// ---------------------------------------------------------------------------
// Concurrency (the tsan target): parallel clients against one server.

TEST(NetServiceConcurrencyTest, ParallelClientsEachGetTheirOwnVerdict) {
  DecisionServiceOptions options;
  options.num_workers = 2;
  TestServer ts =
      StartServer(FreshDir("par"), FreshSocket("par"), options);
  ASSERT_NE(ts.server, nullptr);
  const std::string oracle = DirectRcdpEvidence(GridSpec(5, 6));

  constexpr size_t kClients = 4;
  std::vector<std::thread> threads;
  std::vector<std::string> evidence(kClients);
  for (size_t i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      NetClient client(ts.server->address());
      const std::string key = StrCat("par-", i);
      ASSERT_TRUE(client.Submit(key, MakeJob(GridSpec(5, 6))).ok());
      auto reply = client.AwaitTerminal(key);
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
      evidence[i] = reply->evidence;
    });
  }
  for (auto& t : threads) t.join();
  for (size_t i = 0; i < kClients; ++i) {
    EXPECT_EQ(evidence[i], oracle) << "client " << i;
  }
  EXPECT_EQ(ts.service->completed_order().size(), kClients);
}

// ---------------------------------------------------------------------------
// The kill-the-server-mid-job test: a retrying client spans a full
// server crash + restart and still gets the bit-for-bit verdict, with
// zero duplicate jobs and zero corrupt checkpoints loaded.

TEST(NetServiceRestartTest, ClientReattachesAcrossServerKillMidJob) {
  const std::string dir = FreshDir("restart");
  const std::string address = FreshSocket("restart");
  const std::string oracle = DirectRcdpEvidence(GridSpec(5, 6));
  const std::string key = "kill-me";

  // Incarnation 1: crash-after-persist harness armed, so the service
  // dies mid-job after its first durable checkpoint — while the client
  // is already polling.
  DecisionServiceOptions crashing;
  crashing.crash_after_persist = 1;
  TestServer first = StartServer(dir, address, crashing);
  ASSERT_NE(first.server, nullptr);

  // The client retries transport failures and unavailability; give it
  // a long terminal limit — it must survive the whole restart window.
  std::thread awaiter_thread;
  Result<WireReply> awaited = Status::Internal("never awaited");
  {
    NetClient submit_client(address);
    // A persist interval small enough to persist (and crash) early.
    ASSERT_TRUE(
        submit_client.Submit(key, MakeJob(GridSpec(5, 6), /*slice=*/6))
            .ok());
  }
  awaiter_thread = std::thread([&] {
    NetClientOptions copts;
    copts.io_timeout = std::chrono::milliseconds(1000);
    NetClient client(address, copts);
    awaited = client.AwaitTerminal(key, std::chrono::milliseconds(10),
                                   std::chrono::milliseconds(60000));
  });

  // Wait for the simulated kill, then tear the whole incarnation down
  // (taking the listener with it — the client sees kUnavailable, then
  // connection-refused).
  for (int i = 0; i < 2000 && !first.service->crashed(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(first.service->crashed());
  first.server->Shutdown();
  first.server.reset();
  first.service.reset();

  // Incarnation 2 on the same address and store: recovery re-creates
  // the job from its durable record and resumes its checkpoint.
  TestServer second = StartServer(dir, address);
  ASSERT_NE(second.server, nullptr);
  ASSERT_EQ(second.service->RecoveredJobs().size(), 1u);
  EXPECT_EQ(second.service->RecoveredJobs()[0], key);

  awaiter_thread.join();
  ASSERT_TRUE(awaited.ok()) << awaited.status().ToString();
  EXPECT_EQ(awaited->verdict, Verdict::kIncomplete);
  // Bit-for-bit the uninterrupted verdict.
  EXPECT_EQ(awaited->evidence, oracle);
  // Zero duplicate jobs: the restarted service ran exactly one.
  EXPECT_EQ(second.service->completed_order().size(), 1u);
  // Zero corrupt checkpoints loaded.
  EXPECT_EQ(second.service->store().corrupt_files_skipped(), 0u);
}

TEST(NetServiceRestartTest, ResubmitAfterRestartDedupsAgainstDurableRecord) {
  // The idempotency contract must hold across process boundaries: a
  // client that re-submits after a server restart (its retry loop
  // never saw the first ack) is absorbed by the recovered job record,
  // not run twice.
  const std::string dir = FreshDir("redsub");
  const std::string address = FreshSocket("redsub");
  const std::string key = "resubmitted";
  // Persisting as it runs, so the crash harness fires mid-job, leaving
  // the durable job record behind (a clean shutdown would drain the
  // queue instead).
  const JobSpec job = MakeJob(GridSpec(5, 6), /*slice=*/6);

  {
    DecisionServiceOptions crashing;
    crashing.crash_after_persist = 1;
    TestServer first = StartServer(dir, address, crashing);
    ASSERT_NE(first.server, nullptr);
    NetClient client(address);
    ASSERT_TRUE(client.Submit(key, job).ok());
    for (int i = 0; i < 2000 && !first.service->crashed(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_TRUE(first.service->crashed());
    first.server->Shutdown();
  }

  TestServer second = StartServer(dir, address);
  ASSERT_NE(second.server, nullptr);
  ASSERT_EQ(second.service->RecoveredJobs().size(), 1u);

  NetClient client(address);
  ASSERT_TRUE(client.Submit(key, job).ok());  // the ambiguous retry
  EXPECT_EQ(second.server->stats().submits_deduped, 1u);
  EXPECT_EQ(second.server->stats().submits_admitted, 0u);
  auto reply = client.AwaitTerminal(key);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(second.service->completed_order().size(), 1u);
}

// ---------------------------------------------------------------------------
// Shutdown.

TEST(NetServiceTest, ShutdownIsGracefulAndIdempotent) {
  TestServer ts = StartServer(FreshDir("down"), FreshSocket("down"));
  ASSERT_NE(ts.server, nullptr);
  NetClient client(ts.server->address());
  ASSERT_TRUE(client.ServerStatus().ok());

  ts.server->Shutdown();
  ts.server->Shutdown();  // idempotent

  NetClientOptions copts;
  copts.max_retries = 1;
  copts.io_timeout = std::chrono::milliseconds(200);
  NetClient late(ts.server->address(), copts);
  auto reply = late.ServerStatus();
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace relcomp
