// Client-side endpoint failover, independent of the fabric: a NetClient
// given a comma-separated endpoint list talks to the first endpoint it
// can reach and fails over in list order on transport loss or a typed
// kUnavailable refusal — and a caller deadline bounds the whole retry
// dance with kDeadlineExceeded instead of grinding the retry budget
// against endpoints that are all dead.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>

#include "net/client.h"
#include "net/server.h"
#include "service/decision_service.h"
#include "util/str.h"
#include "test_support.h"

namespace relcomp {
namespace {

constexpr char kTinySpec[] =
    "relation S(a)\nmaster relation M(m)\nfact S(0)\nmaster fact M(0)\n"
    "constraint c0(x) :- S(x) |= M[0]\nquery cq Q(x) :- S(x)\n";

JobSpec TinyJob() {
  JobSpec job;
  job.kind = JobKind::kRcdp;
  job.spec_text = kTinySpec;
  return job;
}

struct TestServer {
  std::unique_ptr<DecisionService> service;
  std::unique_ptr<NetServer> server;
};

TestServer StartServer(const char* tag, NetServerOptions server_options = {}) {
  TestServer out;
  auto service = DecisionService::Start(FreshDir(tag));
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  if (!service.ok()) return out;
  out.service = std::move(*service);
  auto server =
      NetServer::Start(out.service.get(), FreshSocket(tag), server_options);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  if (!server.ok()) return out;
  out.server = std::move(*server);
  return out;
}

TEST(NetFailoverTest, ParsesCommaSeparatedEndpointList) {
  NetClient client("unix:/a.sock,unix:/b.sock,,tcp:127.0.0.1:9000");
  ASSERT_EQ(client.endpoints().size(), 3u);
  EXPECT_EQ(client.endpoints()[0], "unix:/a.sock");
  EXPECT_EQ(client.current_endpoint(), "unix:/a.sock");
}

TEST(NetFailoverTest, PrefersTheFirstEndpointWhileItLives) {
  TestServer a = StartServer("prefer_a");
  TestServer b = StartServer("prefer_b");
  ASSERT_TRUE(a.server && b.server);
  NetClient client(StrCat(a.server->address(), ",", b.server->address()));
  ASSERT_TRUE(client.Submit("job", TinyJob()).ok());
  auto reply = client.AwaitTerminal("job");
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(client.stats().failovers, 0u);
  EXPECT_EQ(client.current_endpoint(), a.server->address());
  EXPECT_EQ(b.server->stats().frames_received, 0u)
      << "second endpoint was contacted although the first was alive";
}

TEST(NetFailoverTest, FailsOverInOrderPastDeadEndpoints) {
  TestServer live = StartServer("live");
  ASSERT_TRUE(live.server);
  // Two dead endpoints ahead of the live one: the client must walk the
  // list in order and land on the third.
  NetClient client(StrCat("unix:/no/such/a.sock,unix:/no/such/b.sock,",
                          live.server->address()));
  ASSERT_TRUE(client.Submit("job", TinyJob()).ok());
  EXPECT_EQ(client.current_endpoint(), live.server->address());
  EXPECT_GE(client.stats().failovers, 2u);
  auto reply = client.AwaitTerminal("job");
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->verdict, Verdict::kComplete);
}

TEST(NetFailoverTest, FailsOverMidSessionWhenTheServerDies) {
  TestServer a = StartServer("mid_a");
  TestServer b = StartServer("mid_b");
  ASSERT_TRUE(a.server && b.server);
  NetClient client(StrCat(a.server->address(), ",", b.server->address()));
  ASSERT_TRUE(client.Submit("job", TinyJob()).ok());
  ASSERT_TRUE(client.AwaitTerminal("job").ok());
  // First endpoint dies; the next call must fail over and be answered
  // by the second (whose separate store has never seen the job —
  // kNotFound is the typed proof the reply came from B).
  a.server->Shutdown();
  auto reply = client.Poll("job");
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->code, StatusCode::kNotFound) << reply->ToStatus().ToString();
  EXPECT_GE(client.stats().failovers, 1u);
  EXPECT_EQ(client.current_endpoint(), b.server->address());
}

TEST(NetFailoverTest, TypedUnavailableRefusalAdvancesTheCursor) {
  // A front server that refuses every keyed op (the fabric's
  // wrong-owner shed) and a normal one behind it: the typed refusal
  // must advance the failover cursor exactly like a dead socket.
  NetServerOptions refusing;
  refusing.route = [](const std::string&) -> Result<DecisionService*> {
    return Status::Unavailable("shard 0 is owned by someone else");
  };
  TestServer refuser = StartServer("refuse", refusing);
  TestServer normal = StartServer("accept");
  ASSERT_TRUE(refuser.server && normal.server);
  NetClient client(
      StrCat(refuser.server->address(), ",", normal.server->address()));
  ASSERT_TRUE(client.Submit("job", TinyJob()).ok());
  EXPECT_GE(client.stats().failovers, 1u);
  EXPECT_EQ(client.current_endpoint(), normal.server->address());
  auto reply = client.AwaitTerminal("job");
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
}

TEST(NetFailoverTest, CallDeadlineBoundsAllDeadEndpoints) {
  NetClientOptions options;
  options.max_retries = 100000;  // deep budget the deadline must preempt
  options.call_deadline = std::chrono::milliseconds(300);
  NetClient client("unix:/no/such/a.sock,unix:/no/such/b.sock", options);
  const auto start = std::chrono::steady_clock::now();
  Status submitted = client.Submit("job", TinyJob());
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(submitted.ok());
  EXPECT_EQ(submitted.code(), StatusCode::kDeadlineExceeded)
      << submitted.ToString();
  EXPECT_LT(elapsed, std::chrono::seconds(10))
      << "deadline did not bound the retry dance";
  EXPECT_GE(client.stats().failovers, 1u);
}

TEST(NetFailoverTest, UnboundedCallStillEndsByRetryBudget) {
  // call_deadline = 0 keeps the historical contract: the retry budget,
  // not a clock, ends the call, with a typed kUnavailable.
  NetClientOptions options;
  options.max_retries = 2;
  options.backoff_base = std::chrono::milliseconds(1);
  NetClient client("unix:/no/such/a.sock", options);
  Status submitted = client.Submit("job", TinyJob());
  ASSERT_FALSE(submitted.ok());
  EXPECT_EQ(submitted.code(), StatusCode::kUnavailable)
      << submitted.ToString();
}

TEST(NetFailoverTest, AwaitTerminalDeadlineIsTyped) {
  NetClientOptions options;
  options.max_retries = 1;
  options.backoff_base = std::chrono::milliseconds(1);
  NetClient client("unix:/no/such/a.sock", options);
  auto reply = client.AwaitTerminal("job", std::chrono::milliseconds(5),
                                    std::chrono::milliseconds(100));
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kDeadlineExceeded)
      << reply.status().ToString();
}

}  // namespace
}  // namespace relcomp
