// How a NetClient gives up on a dead endpoint: a caller deadline bounds
// the whole retry dance with kDeadlineExceeded instead of grinding the
// retry budget against a server that is down, and without one the
// retry budget ends the call. (Failing over between servers is the
// FabricClient's job; see fabric_service_test.)

#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "net/client.h"
#include "service/decision_service.h"

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

TEST(NetFailoverTest, CallDeadlineBoundsAllDeadEndpoints) {
  NetClientOptions options;
  options.max_retries = 100000;  // deep budget the deadline must preempt
  options.call_deadline = std::chrono::milliseconds(300);
  NetClient client("unix:/no/such/a.sock", options);
  const auto start = std::chrono::steady_clock::now();
  Status submitted = client.Submit("job", TinyJob());
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(submitted.ok());
  EXPECT_EQ(submitted.code(), StatusCode::kDeadlineExceeded)
      << submitted.ToString();
  EXPECT_LT(elapsed, std::chrono::seconds(10))
      << "deadline did not bound the retry dance";
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
