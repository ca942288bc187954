// The fabric over real processes and real SIGKILL: one relcheck
// process per member (--fabric --members --member-index), a client
// routing over the member sockets, the owner killed -9 mid-audit and
// restarted over the same shard directory. The restarted process must
// recover the shard's in-flight jobs and serve verdicts bit-for-bit
// equal to an unkilled run — the in-process sweeps prove every kill
// position; this suite proves the story survives actual process death.

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "fabric/fabric_client.h"
#include "fabric/ring.h"
#include "net/client.h"
#include "util/str.h"
#include "test_support.h"

namespace relcomp {
namespace {

std::string MemberEndpoint(const std::string& root, size_t index) {
  return StrCat("unix:", root, "/member-", index, ".sock");
}

/// Spawns `relcheck --fabric root --members n --member-index index`,
/// output discarded. Returns the child pid.
pid_t SpawnMember(const std::string& root, size_t n, size_t index,
                  const std::string& key_file = std::string()) {
  const std::string members = StrCat(n);
  const std::string member_index = StrCat(index);
  pid_t pid = ::fork();
  if (pid == 0) {
    std::freopen("/dev/null", "w", stdout);
    std::freopen("/dev/null", "w", stderr);
    if (key_file.empty()) {
      ::execl(RELCHECK_BINARY, "relcheck", "--fabric", root.c_str(),
              "--members", members.c_str(), "--member-index",
              member_index.c_str(), static_cast<char*>(nullptr));
    } else {
      ::execl(RELCHECK_BINARY, "relcheck", "--fabric", root.c_str(),
              "--members", members.c_str(), "--member-index",
              member_index.c_str(), "--auth-key-file", key_file.c_str(),
              static_cast<char*>(nullptr));
    }
    ::_exit(127);
  }
  EXPECT_GT(pid, 0);
  return pid;
}

/// Waits until the member's endpoint answers the ring op.
bool AwaitServing(const std::string& endpoint,
                  const std::string& auth_key = std::string()) {
  NetClientOptions options;
  options.max_retries = 1;
  options.backoff_base = std::chrono::milliseconds(1);
  options.auth_key = auth_key;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    NetClient client(endpoint, options);
    if (client.Ring().ok()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

void Sigkill(pid_t pid) {
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wstatus));
}

void DrainGracefully(pid_t pid) {
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  EXPECT_TRUE(WIFEXITED(wstatus));
  if (WIFEXITED(wstatus)) {
    EXPECT_EQ(WEXITSTATUS(wstatus), 0);
  }
}

std::string WriteSpec(const char* tag, const std::string& content) {
  const std::string path = FreshFile(tag, ".rcspec");
  std::ofstream out(path);
  out << content;
  EXPECT_TRUE(out.good());
  return path;
}

int RunRelcheck(const std::string& args) {
  const std::string command =
      StrCat(RELCHECK_BINARY, " ", args, " > /dev/null 2> /dev/null");
  int raw = std::system(command.c_str());
  EXPECT_NE(raw, -1);
  EXPECT_TRUE(WIFEXITED(raw)) << "relcheck did not exit normally";
  return WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
}

/// The grid with one extra master value per `variant`: a distinct
/// instance, so no variant is a verdict-cache hit of another and each
/// must run its own search.
std::string VariantSpec(int variant) {
  return StrCat(GridSpec(5, 6), "master fact M(", 100 + variant, ")\n");
}

JobSpec SlicedJob(int variant) {
  JobSpec job;
  job.kind = JobKind::kRcdp;
  job.spec_text = VariantSpec(variant);
  job.slice_steps = 16;  // frequent persists: a kill always lands near one
  return job;
}

TEST(FabricCliTest, ServesAndAuditsAcrossProcesses) {
  const std::string root = FreshDir("serve");
  pid_t m0 = SpawnMember(root, 2, 0);
  pid_t m1 = SpawnMember(root, 2, 1);
  ASSERT_TRUE(AwaitServing(MemberEndpoint(root, 0)));
  ASSERT_TRUE(AwaitServing(MemberEndpoint(root, 1)));

  // The CLI client over both endpoints: the grid is incomplete → 1.
  const std::string spec = WriteSpec("serve", GridSpec(5, 6));
  EXPECT_EQ(RunRelcheck(StrCat("--connect ", MemberEndpoint(root, 0), ",",
                               MemberEndpoint(root, 1), " ", spec)),
            1);
  DrainGracefully(m0);
  DrainGracefully(m1);
}

TEST(FabricCliTest, SigkillOwnerMidAuditThenRestartIsBitForBit) {
  const std::string root = FreshDir("kill");
  pid_t m0 = SpawnMember(root, 2, 0);
  pid_t m1 = SpawnMember(root, 2, 1);
  ASSERT_TRUE(AwaitServing(MemberEndpoint(root, 0)));
  ASSERT_TRUE(AwaitServing(MemberEndpoint(root, 1)));
  std::vector<pid_t> pids = {m0, m1};

  const std::vector<std::string> endpoints = {MemberEndpoint(root, 0),
                                              MemberEndpoint(root, 1)};
  FabricClient client(endpoints);
  // Enough jobs that, whenever the kill lands, some are terminal, some
  // are mid-search, and some still queued on the victim's shard. Each
  // audits its own instance, so each searches.
  constexpr int kJobs = 6;
  std::vector<std::string> keys;
  for (int i = 0; i < kJobs; ++i) {
    keys.push_back(StrCat("job-kill-", i));
    ASSERT_TRUE(client.Submit(keys.back(), SlicedJob(i)).ok());
  }
  // SIGKILL the shard-0 owner wherever its work happens to stand: no
  // drain, no flush, the kernel just reaps it (and releases its
  // flocks).
  Sigkill(pids[0]);
  pids[0] = SpawnMember(root, 2, 0);
  ASSERT_TRUE(AwaitServing(MemberEndpoint(root, 0)));

  // Every job must come back bit-for-bit. SubmitAndAwait covers the
  // one ambiguous window (completed + forgotten before we read the
  // verdict): the resubmission is served from the journaled verdict
  // cache or honestly recomputed to the same bytes.
  for (int i = 0; i < kJobs; ++i) {
    const std::string& key = keys[i];
    auto reply = client.SubmitAndAwait(key, SlicedJob(i),
                                       std::chrono::milliseconds(5),
                                       std::chrono::milliseconds(120000));
    ASSERT_TRUE(reply.ok()) << key << ": " << reply.status().ToString();
    EXPECT_EQ(reply->evidence, DirectRcdpEvidence(VariantSpec(i))) << key;
  }
  DrainGracefully(pids[0]);
  DrainGracefully(pids[1]);
}

TEST(FabricCliTest, RestartedMemberRejoinsAndKeepsServing) {
  const std::string root = FreshDir("rejoin");
  pid_t m0 = SpawnMember(root, 2, 0);
  pid_t m1 = SpawnMember(root, 2, 1);
  ASSERT_TRUE(AwaitServing(MemberEndpoint(root, 0)));
  ASSERT_TRUE(AwaitServing(MemberEndpoint(root, 1)));

  // Kill-and-restart with no work in flight: the deterministic
  // baseline of the recovery path — the rejoined member must serve a
  // fresh audit end to end.
  Sigkill(m0);
  m0 = SpawnMember(root, 2, 0);
  ASSERT_TRUE(AwaitServing(MemberEndpoint(root, 0)));

  const std::string spec = WriteSpec("rejoin", GridSpec(5, 6));
  EXPECT_EQ(RunRelcheck(StrCat("--connect ", MemberEndpoint(root, 0), ",",
                               MemberEndpoint(root, 1), " ", spec)),
            1);
  DrainGracefully(m0);
  DrainGracefully(m1);
}

TEST(FabricCliTest, AuthKeyFileRotationWindowInteroperates) {
  const std::string root = FreshDir("keyrot");
  ASSERT_EQ(::mkdir(root.c_str(), 0755), 0);
  // Server fleet mid-rotation: tags with NEW (line 1), accepts OLD
  // (line 2). The laggard client file is the mirror image.
  const std::string server_keys = StrCat(root, "/server.keys");
  const std::string laggard_keys = StrCat(root, "/laggard.keys");
  const std::string stale_keys = StrCat(root, "/stale.keys");
  {
    std::ofstream(server_keys) << "fabric-key-new\nfabric-key-old\n";
    std::ofstream(laggard_keys) << "fabric-key-old\nfabric-key-new\n";
    std::ofstream(stale_keys) << "fabric-key-old\n";
  }
  pid_t m0 = SpawnMember(root, 2, 0, server_keys);
  pid_t m1 = SpawnMember(root, 2, 1, server_keys);
  ASSERT_TRUE(AwaitServing(MemberEndpoint(root, 0), "fabric-key-new"));
  ASSERT_TRUE(AwaitServing(MemberEndpoint(root, 1), "fabric-key-new"));
  const std::string connect = StrCat("--connect ", MemberEndpoint(root, 0),
                                     ",", MemberEndpoint(root, 1));

  // The laggard (OLD primary, NEW secondary) is served end to end.
  const std::string spec = WriteSpec("keyrot", GridSpec(5, 6));
  EXPECT_EQ(RunRelcheck(StrCat(connect, " --auth-key-file ", laggard_keys,
                               " ", spec)),
            1);
  EXPECT_EQ(RunRelcheck(StrCat(connect, " --auth-key-file ", laggard_keys,
                               " --health")),
            0);
  // A client that never learned the NEW key cannot verify the NEW-
  // tagged replies; a keyless client is denied outright.
  EXPECT_EQ(RunRelcheck(StrCat(connect, " --auth-key-file ", stale_keys,
                               " ", spec)),
            3);
  EXPECT_EQ(RunRelcheck(StrCat(connect, " ", spec)), 3);
  DrainGracefully(m0);
  DrainGracefully(m1);
}

TEST(FabricCliTest, HealthFlagReportsFleetAndExitsByWorstState) {
  const std::string root = FreshDir("health");
  pid_t m0 = SpawnMember(root, 2, 0);
  pid_t m1 = SpawnMember(root, 2, 1);
  ASSERT_TRUE(AwaitServing(MemberEndpoint(root, 0)));
  ASSERT_TRUE(AwaitServing(MemberEndpoint(root, 1)));
  const std::string connect = StrCat("--connect ", MemberEndpoint(root, 0),
                                     ",", MemberEndpoint(root, 1));

  // Every member healthy: exit 0 (the "complete" rung of the ladder).
  EXPECT_EQ(RunRelcheck(StrCat(connect, " --health")), 0);
  // --health is a dedicated mode: combining it with a spec or a shard
  // move is a usage error.
  const std::string spec = WriteSpec("health", GridSpec(5, 6));
  EXPECT_EQ(RunRelcheck(StrCat(connect, " --health ", spec)), 3);

  // A dead member makes the fleet non-healthy: exit 1, not a hang.
  Sigkill(m1);
  EXPECT_EQ(RunRelcheck(StrCat(connect, " --health")), 1);
  DrainGracefully(m0);
}

TEST(FabricCliTest, FabricFlagValidation) {
  // --fabric with a spec path, or out-of-range members, is a usage
  // error (exit 3), not a partial start.
  const std::string spec = WriteSpec("usage", GridSpec(5, 6));
  EXPECT_EQ(RunRelcheck(StrCat("--fabric ", FreshDir("usage"), " ", spec)),
            3);
  EXPECT_EQ(RunRelcheck(StrCat("--fabric ", FreshDir("usage"),
                               " --members 0")),
            3);
  EXPECT_EQ(RunRelcheck(StrCat("--fabric ", FreshDir("usage"),
                               " --members 2 --member-index 5")),
            3);
}

}  // namespace
}  // namespace relcomp
