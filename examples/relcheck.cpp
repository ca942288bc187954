// relcheck — command-line completeness checker.
//
// Local audit:
//   relcheck <spec-file> [--rcqp] [--chase N] [--explain]
//            [--deadline-ms N] [--max-steps N] [--resume-dir DIR]
//            [--delta FILE]
// Decision server (fault-tolerant network front end):
//   relcheck --serve ADDR --store-dir DIR [--workers N]
// Sharded decision fabric (N members, consistent-hash routed):
//   relcheck --fabric DIR --members N [--member-index I]
//            [--serve ADDR,ADDR,...] [--workers N]
// Networked audit against a running server or fabric:
//   relcheck --connect ADDR[,ADDR,...] <spec-file> [--deadline-ms N]
//
// ADDR is "unix:<path>" or "tcp:<ipv4>:<port>" (port 0 = ephemeral,
// the bound address is printed).
//
// --fabric DIR --members N serves an N-shard fabric rooted at DIR
// (shard s in DIR/shard-<s>). Member endpoints default to
// unix:DIR/member-<i>.sock; pass --serve with a comma-separated list
// to override (every member of one fabric must be given the SAME
// list — it is the placement contract). With --member-index I the
// process runs exactly member I (one process per member, so a kill
// test can SIGKILL a real server); without it, all N members run in
// this process. A killed-and-restarted member recovers its shard's
// in-flight jobs from the job records in its store directory and
// rejoins under a bumped ring epoch.
//
// --connect with one endpoint speaks to that server directly. With a
// comma-separated list the client bootstraps the consistent-hash ring
// from any reachable endpoint, routes each query to its shard owner,
// and fails over to the remaining endpoints (re-fetching the ring) on
// connection loss — against standalone servers each endpoint answers
// a singleton ring, so the same invocation works without a fabric.
//
// Loads a textual spec (schemas, facts, containment constraints,
// queries — see src/spec/spec_parser.h for the syntax), verifies the
// database is partially closed, and for each query decides RCDP
// (is the database complete?). With --rcqp it also decides RCQP
// (could any database be complete?), and with --chase N it applies up
// to N counterexample rounds to complete the database.
//
// With --deadline-ms the RCDP search runs under a wall-clock budget,
// and with --max-steps under a decision-point budget (deterministic —
// the same spec exhausts at the same point on every machine); an
// exhausted search reports UNKNOWN with the exhaustion cause. With
// --resume-dir the search checkpoint is persisted to a durable
// CheckpointStore on exhaustion, and a later invocation with the same
// spec and directory resumes from it — the combined verdict is
// bit-for-bit the uninterrupted one (a durable audit across process
// lifetimes).
//
// With --resume-dir each decided query also persists a verdict
// certificate (instance fingerprints + evidence) to the store. A later
// run with --delta FILE applies the update batch in FILE (insert/
// delete/master insert/master delete lines; see
// src/spec/spec_parser.h) to the spec's instance and re-certifies each
// query incrementally: queries whose certificate still covers the
// updated content are re-served or resumed without a fresh search, and
// only the update-affected disjuncts re-run. Verdicts are bit-for-bit
// the from-scratch ones; the exit codes are unchanged.
//
// Exit codes (scriptable; the worst outcome across queries wins):
//   0  every audited query is COMPLETE
//   1  at least one query is INCOMPLETE (none worse)
//   2  at least one query is UNKNOWN — budget exhausted, cancelled, or
//      the decider does not support the query class
//   3  usage or internal error: bad flags, unreadable spec, database
//      not partially closed, store/transport failure
// --serve exits 0 after a graceful (SIGINT/SIGTERM) drain, 3 on setup
// failure.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "completeness/characterizations.h"
#include "completeness/incremental.h"
#include "completeness/rcdp.h"
#include "completeness/rcqp.h"
#include "constraints/constraint_check.h"
#include "eval/query_eval.h"
#include "fabric/fabric_client.h"
#include "fabric/member.h"
#include "fabric/rebalancer.h"
#include "net/client.h"
#include "net/server.h"
#include "service/checkpoint_store.h"
#include "service/decision_service.h"
#include "spec/spec_parser.h"
#include "util/str.h"

namespace {

// The exit-code ladder; MaxExit keeps the worst outcome seen so far.
constexpr int kExitComplete = 0;
constexpr int kExitIncomplete = 1;
constexpr int kExitUnknown = 2;
constexpr int kExitError = 3;

int Fail(const relcomp::Status& status) {
  std::cerr << "relcheck: " << status.ToString() << std::endl;
  return kExitError;
}

void Usage() {
  std::cerr
      << "usage: relcheck <spec-file> [--rcqp] [--chase N] [--explain]\n"
         "                [--deadline-ms N] [--max-steps N]\n"
         "                [--resume-dir DIR] [--delta FILE]\n"
         "       relcheck --serve ADDR --store-dir DIR [--workers N]\n"
         "       relcheck --fabric DIR --members N [--member-index I]\n"
         "                [--serve ADDR,ADDR,...] [--workers N]\n"
         "       relcheck --connect ADDR[,ADDR,...] <spec-file>\n"
         "                [--deadline-ms N]\n"
         "       relcheck --connect ADDR[,ADDR,...] --handoff SHARD:ADDR\n"
         "       relcheck --connect ADDR[,ADDR,...] --drain ADDR\n"
         "       relcheck --connect ADDR[,ADDR,...] --health\n"
         "ADDR: unix:<path> | tcp:<ipv4>:<port>\n"
         "--auth-key-file FILE arms frame authentication (serve, fabric\n"
         "and connect modes; every party needs the same key). Line 1 is\n"
         "the key; an optional line 2 is a second ACCEPTED key for\n"
         "rotation windows (outbound frames always use line 1)\n"
         "--handoff asks SHARD's owner for a planned live handoff to the\n"
         "named successor; --drain hands every shard owned by ADDR to\n"
         "the remaining members, one planned handoff at a time;\n"
         "--health prints each member's store-health report (exit 0 when\n"
         "every member is healthy, 1 otherwise)\n"
         "exit: 0 complete, 1 incomplete, 2 unknown/exhausted, 3 error"
      << std::endl;
}

/// The shared fabric secret(s): `primary` tags every outbound frame;
/// a non-empty `secondary` is additionally ACCEPTED on inbound frames
/// (the rotation window).
struct AuthKeys {
  std::string primary;
  std::string secondary;
};

/// Reads the shared fabric secret from `path`. Line 1 is the primary
/// key; an optional line 2 is the secondary accepted key. Two fleets
/// mid-rotation — each tagging with its own line 1, each accepting
/// the other's via line 2 — interoperate with zero denials.
relcomp::Result<AuthKeys> ReadAuthKeyFile(const std::string& path) {
  using namespace relcomp;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound(StrCat("cannot read auth key file: ", path));
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  auto chomp = [](std::string line) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    return line;
  };
  AuthKeys keys;
  const size_t eol = text.find('\n');
  if (eol == std::string::npos) {
    keys.primary = chomp(text);
  } else {
    keys.primary = chomp(text.substr(0, eol));
    std::string rest = text.substr(eol + 1);
    const size_t eol2 = rest.find('\n');
    keys.secondary =
        chomp(eol2 == std::string::npos ? rest : rest.substr(0, eol2));
  }
  if (keys.primary.empty()) {
    return Status::InvalidArgument(
        StrCat("auth key file ", path, " is empty"));
  }
  return keys;
}

volatile std::sig_atomic_t g_stop_requested = 0;
void HandleStopSignal(int) { g_stop_requested = 1; }

/// Serve mode: a DecisionService over the store directory, fronted by
/// a NetServer, running until SIGINT/SIGTERM, then drained.
int RunServer(const std::string& address, const std::string& store_dir,
              size_t workers, const AuthKeys& keys) {
  using namespace relcomp;
  DecisionServiceOptions options;
  options.num_workers = workers;
  // A long-lived server keeps a durable verdict cache: a resubmitted
  // instance whose content fingerprint matches a decided verdict is
  // answered without re-running the search, across restarts.
  options.enable_verdict_cache = true;
  auto service = DecisionService::Start(store_dir, options);
  if (!service.ok()) return Fail(service.status());
  for (const std::string& id : (*service)->RecoveredJobs()) {
    std::cout << "recovered in-flight job: " << id << "\n";
  }
  NetServerOptions server_options;
  server_options.auth_key = keys.primary;
  server_options.auth_key2 = keys.secondary;
  auto server = NetServer::Start(service->get(), address, server_options);
  if (!server.ok()) return Fail(server.status());
  std::cout << "relcheck serving on " << (*server)->address()
            << " (store: " << store_dir << ", workers: " << workers
            << ")\n"
            << std::flush;
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  while (g_stop_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::cout << "draining...\n";
  (*server)->Shutdown();
  NetServerStats stats = (*server)->stats();
  std::cout << "served " << stats.frames_received << " requests ("
            << stats.submits_admitted << " admitted, "
            << stats.submits_deduped << " deduped, " << stats.submits_shed
            << " shed)\n";
  return kExitComplete;
}

/// Splits a comma-separated endpoint list (empty segments dropped).
std::vector<std::string> SplitEndpoints(const std::string& list) {
  std::vector<std::string> out;
  std::string current;
  for (char c : list) {
    if (c == ',') {
      if (!current.empty()) out.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) out.push_back(current);
  return out;
}

/// Fabric serve mode: one or all members of an N-shard fabric rooted
/// at `fabric_root`, running until SIGINT/SIGTERM, then drained (the
/// ring departure is journaled before the listeners close).
int RunFabric(const std::string& fabric_root, long members,
              long member_index, const std::string& serve_list,
              size_t workers, const AuthKeys& keys) {
  using namespace relcomp;
  if (members < 1) {
    Usage();
    return kExitError;
  }
  std::vector<std::string> endpoints;
  if (!serve_list.empty()) {
    endpoints = SplitEndpoints(serve_list);
    if (endpoints.size() != static_cast<size_t>(members)) {
      return Fail(Status::InvalidArgument(
          StrCat("--serve names ", endpoints.size(), " endpoints but "
                 "--members asks for ", members)));
    }
  } else {
    for (long i = 0; i < members; ++i) {
      endpoints.push_back(StrCat("unix:", fabric_root, "/member-", i,
                                 ".sock"));
    }
  }
  std::vector<size_t> indexes;
  if (member_index >= 0) {
    if (member_index >= members) {
      return Fail(Status::InvalidArgument(
          StrCat("--member-index ", member_index, " out of range for ",
                 members, " members")));
    }
    indexes.push_back(static_cast<size_t>(member_index));
  } else {
    for (long i = 0; i < members; ++i) {
      indexes.push_back(static_cast<size_t>(i));
    }
  }

  std::vector<std::unique_ptr<FabricMember>> running;
  for (size_t index : indexes) {
    FabricMemberOptions options;
    options.fabric_root = fabric_root;
    options.member_index = index;
    options.endpoints = endpoints;
    options.service_options.num_workers = workers;
    // Fabric members keep the durable verdict cache for the same
    // reason a standalone server does: a resubmitted instance (e.g.
    // after a kill landed between completion and the client's poll) is
    // answered from the journaled verdict, bit-for-bit.
    options.service_options.enable_verdict_cache = true;
    options.server_options.auth_key = keys.primary;
    options.server_options.auth_key2 = keys.secondary;
    // A production member watches its own disk: a shard store that
    // stays sick through a live re-probe is handed to a healthy peer.
    options.health_probe_interval = std::chrono::milliseconds(2000);
    // And its services self-heal from transient faults on their own.
    options.service_options.store_probe_interval =
        std::chrono::milliseconds(500);
    auto member = FabricMember::Start(options);
    if (!member.ok()) return Fail(member.status());
    for (size_t shard : (*member)->owned_shards()) {
      DecisionService* service = (*member)->shard_service(shard);
      if (service == nullptr) continue;
      for (const std::string& id : service->RecoveredJobs()) {
        std::cout << "member " << index << " recovered in-flight job: "
                  << id << "\n";
      }
    }
    std::cout << "fabric member " << index << " serving on "
              << (*member)->address() << " (root: " << fabric_root
              << ", shards: " << members << ", ring epoch "
              << (*member)->ring().epoch << ")\n"
              << std::flush;
    running.push_back(std::move(*member));
  }
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  while (g_stop_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::cout << "draining...\n";
  for (auto& member : running) member->Shutdown();
  running.clear();
  return kExitComplete;
}

/// Connect mode: submit every query of the spec as a job keyed by a
/// fingerprint-derived idempotency key, await the verdicts. Re-running
/// the same spec against the same server (even across server restarts)
/// reattaches to the same jobs instead of resubmitting.
int RunClient(const std::string& address, const std::string& spec_path,
              long deadline_ms, const AuthKeys& keys) {
  using namespace relcomp;
  std::ifstream in(spec_path);
  if (!in) {
    return Fail(Status::NotFound(StrCat("cannot read spec: ", spec_path)));
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string spec_text = buffer.str();
  // Parse locally first: a malformed spec should be a fast local error,
  // not N server round trips, and we need the query count.
  auto spec = ParseCompletenessSpec(spec_text);
  if (!spec.ok()) return Fail(spec.status());

  char fp[17];
  std::snprintf(fp, sizeof(fp), "%016llx",
                static_cast<unsigned long long>(
                    FingerprintString(spec_text)));
  auto make_key = [&](size_t i) {
    return StrCat("relcheck-", fp, "-q", i + 1);
  };
  auto make_job = [&](size_t i) {
    JobSpec job;
    job.kind = JobKind::kRcdp;
    job.spec_text = spec_text;
    job.query_index = i;
    if (deadline_ms > 0) {
      job.deadline = std::chrono::milliseconds(deadline_ms);
    }
    return job;
  };
  int exit_code = kExitComplete;
  auto tally = [&](const WireReply& reply, size_t i) {
    std::cout << "query #" << i + 1 << ": "
              << VerdictToString(reply.verdict);
    if (!reply.evidence.empty()) {
      std::cout << " — " << reply.evidence;
    }
    if (!reply.exhaustion.empty()) {
      std::cout << " (" << reply.exhaustion << ")";
    }
    std::cout << " [attempts: " << reply.attempts << "]\n";
    switch (reply.verdict) {
      case Verdict::kComplete:
        break;
      case Verdict::kIncomplete:
        exit_code = std::max(exit_code, kExitIncomplete);
        break;
      case Verdict::kUnknown:
        exit_code = std::max(exit_code, kExitUnknown);
        break;
    }
  };

  const std::vector<std::string> endpoints = SplitEndpoints(address);
  if (endpoints.size() > 1) {
    // Multi-endpoint: route by the consistent-hash ring (a standalone
    // server answers a singleton ring, so this shape needs no fabric)
    // and survive the loss of any single member mid-audit.
    FabricClientOptions fabric_options;
    fabric_options.endpoint_options.auth_key = keys.primary;
    fabric_options.endpoint_options.auth_key2 = keys.secondary;
    FabricClient client(endpoints, fabric_options);
    for (size_t i = 0; i < spec->queries.size(); ++i) {
      Status submitted = client.Submit(make_key(i), make_job(i));
      if (!submitted.ok()) return Fail(submitted);
      std::cout << "query #" << i + 1 << " submitted as " << make_key(i)
                << "\n";
    }
    for (size_t i = 0; i < spec->queries.size(); ++i) {
      // SubmitAndAwait rather than a bare poll loop: if a kill landed
      // between a job's completion and this read, the resubmission
      // under the same key re-serves the cached verdict (or
      // recomputes it bit-for-bit).
      auto reply = client.SubmitAndAwait(make_key(i), make_job(i));
      if (!reply.ok()) return Fail(reply.status());
      tally(*reply, i);
    }
    if (client.stats().failovers > 0) {
      std::cout << "(fabric failovers: " << client.stats().failovers
                << ", ring refreshes: " << client.stats().ring_refreshes
                << ")\n";
    }
    return exit_code;
  }

  NetClientOptions client_options;
  client_options.auth_key = keys.primary;
  client_options.auth_key2 = keys.secondary;
  NetClient client(endpoints.empty() ? std::string() : endpoints.front(),
                   client_options);
  for (size_t i = 0; i < spec->queries.size(); ++i) {
    Status submitted = client.Submit(make_key(i), make_job(i));
    if (!submitted.ok()) return Fail(submitted);
    std::cout << "query #" << i + 1 << " submitted as " << make_key(i)
              << "\n";
  }
  for (size_t i = 0; i < spec->queries.size(); ++i) {
    auto reply = client.AwaitTerminal(make_key(i));
    if (!reply.ok()) return Fail(reply.status());
    tally(*reply, i);
  }
  if (client.stats().retries > 0) {
    std::cout << "(transport retries: " << client.stats().retries << ")\n";
  }
  return exit_code;
}

/// Fabric-operation mode: --handoff SHARD:ADDR asks the shard's owner
/// for one planned live handoff; --drain ADDR plans and executes the
/// handoff sequence that empties that member.
int RunFabricOp(const std::string& address, const std::string& handoff_arg,
                const std::string& drain_arg, const AuthKeys& keys) {
  using namespace relcomp;
  FabricClientOptions options;
  options.endpoint_options.auth_key = keys.primary;
  options.endpoint_options.auth_key2 = keys.secondary;
  FabricClient client(SplitEndpoints(address), options);
  Status refreshed = client.RefreshRing();
  if (!refreshed.ok()) return Fail(refreshed);

  if (!handoff_arg.empty()) {
    const size_t colon = handoff_arg.find(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= handoff_arg.size()) {
      return Fail(Status::InvalidArgument(
          StrCat("--handoff wants SHARD:ADDR, got \"", handoff_arg, "\"")));
    }
    char* end = nullptr;
    const unsigned long shard =
        std::strtoul(handoff_arg.substr(0, colon).c_str(), &end, 10);
    if (end == nullptr || *end != '\0') {
      return Fail(Status::InvalidArgument(
          StrCat("--handoff shard \"", handoff_arg.substr(0, colon),
                 "\" is not a number")));
    }
    const std::string successor = handoff_arg.substr(colon + 1);
    Status done = client.HandoffShard(shard, successor);
    if (!done.ok()) return Fail(done);
    std::cout << "shard " << shard << " handed off to " << successor
              << " (ring epoch " << client.ring().epoch << ")\n";
    return kExitComplete;
  }

  RebalancePlan plan = PlanDrain(client.ring(), drain_arg);
  if (plan.empty()) {
    std::cout << "nothing to drain: " << drain_arg
              << " owns no shards (or has no peer to take them)\n";
    return kExitComplete;
  }
  std::cout << "drain plan for " << drain_arg << ":\n" << plan.Describe();
  Status done = ExecutePlan(&client, plan);
  if (!done.ok()) return Fail(done);
  std::cout << plan.moves.size() << " shard(s) handed off (ring epoch "
            << client.ring().epoch << ")\n";
  return kExitComplete;
}

/// Health mode: --connect ADDR[,ADDR,...] --health sweeps every known
/// fabric endpoint and prints each member's relcomp-health/1 report.
/// Exit 0 only when every member answered "healthy".
int RunHealth(const std::string& address, const AuthKeys& keys) {
  using namespace relcomp;
  FabricClientOptions options;
  options.endpoint_options.auth_key = keys.primary;
  options.endpoint_options.auth_key2 = keys.secondary;
  FabricClient client(SplitEndpoints(address), options);
  bool all_healthy = true;
  const auto fleet = client.FleetHealth();
  if (fleet.empty()) {
    std::cerr << "relcheck: no fabric endpoint known\n";
    return kExitError;
  }
  for (const auto& [endpoint, report] : fleet) {
    all_healthy = all_healthy && HealthReportState(report) == "healthy";
    std::cout << endpoint << ":\n";
    // Indent the report so member boundaries survive a casual grep.
    size_t start = 0;
    while (start < report.size()) {
      size_t end = report.find('\n', start);
      if (end == std::string::npos) end = report.size();
      std::cout << "  " << report.substr(start, end - start) << "\n";
      start = end + 1;
    }
  }
  return all_healthy ? kExitComplete : kExitIncomplete;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace relcomp;
  std::string path;
  std::string resume_dir;
  std::string delta_path;
  std::string serve_address;
  std::string connect_address;
  std::string store_dir;
  std::string fabric_root;
  bool run_rcqp = false;
  bool explain = false;
  int chase_rounds = 0;
  long deadline_ms = 0;
  long max_steps = 0;
  long workers = 1;
  long members = 0;
  long member_index = -1;
  std::string auth_key_file;
  std::string handoff_arg;
  std::string drain_arg;
  bool health = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--rcqp") == 0) {
      run_rcqp = true;
    } else if (std::strcmp(argv[i], "--explain") == 0) {
      explain = true;
    } else if (std::strcmp(argv[i], "--chase") == 0 && i + 1 < argc) {
      chase_rounds = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0 && i + 1 < argc) {
      deadline_ms = std::atol(argv[++i]);
    } else if (std::strcmp(argv[i], "--max-steps") == 0 && i + 1 < argc) {
      max_steps = std::atol(argv[++i]);
    } else if (std::strcmp(argv[i], "--resume-dir") == 0 && i + 1 < argc) {
      resume_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--delta") == 0 && i + 1 < argc) {
      delta_path = argv[++i];
    } else if (std::strcmp(argv[i], "--serve") == 0 && i + 1 < argc) {
      serve_address = argv[++i];
    } else if (std::strcmp(argv[i], "--connect") == 0 && i + 1 < argc) {
      connect_address = argv[++i];
    } else if (std::strcmp(argv[i], "--store-dir") == 0 && i + 1 < argc) {
      store_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      workers = std::atol(argv[++i]);
    } else if (std::strcmp(argv[i], "--fabric") == 0 && i + 1 < argc) {
      fabric_root = argv[++i];
    } else if (std::strcmp(argv[i], "--members") == 0 && i + 1 < argc) {
      members = std::atol(argv[++i]);
    } else if (std::strcmp(argv[i], "--member-index") == 0 && i + 1 < argc) {
      member_index = std::atol(argv[++i]);
    } else if (std::strcmp(argv[i], "--auth-key-file") == 0 && i + 1 < argc) {
      auth_key_file = argv[++i];
    } else if (std::strcmp(argv[i], "--handoff") == 0 && i + 1 < argc) {
      handoff_arg = argv[++i];
    } else if (std::strcmp(argv[i], "--drain") == 0 && i + 1 < argc) {
      drain_arg = argv[++i];
    } else if (std::strcmp(argv[i], "--health") == 0) {
      health = true;
    } else if (argv[i][0] == '-') {
      Usage();
      return kExitError;
    } else {
      path = argv[i];
    }
  }

  AuthKeys auth_keys;
  if (!auth_key_file.empty()) {
    auto keys = ReadAuthKeyFile(auth_key_file);
    if (!keys.ok()) return Fail(keys.status());
    auth_keys = *std::move(keys);
  }

  if (!fabric_root.empty()) {
    if (!path.empty() || !store_dir.empty() || workers < 1 ||
        !connect_address.empty()) {
      Usage();
      return kExitError;
    }
    return RunFabric(fabric_root, members, member_index, serve_address,
                     static_cast<size_t>(workers), auth_keys);
  }
  if (!serve_address.empty()) {
    if (store_dir.empty() || !path.empty() || workers < 1) {
      Usage();
      return kExitError;
    }
    return RunServer(serve_address, store_dir,
                     static_cast<size_t>(workers), auth_keys);
  }
  if (!connect_address.empty()) {
    if (health) {
      if (!path.empty() || !handoff_arg.empty() || !drain_arg.empty()) {
        Usage();
        return kExitError;
      }
      return RunHealth(connect_address, auth_keys);
    }
    if (!handoff_arg.empty() || !drain_arg.empty()) {
      if (!path.empty() || (!handoff_arg.empty() && !drain_arg.empty())) {
        Usage();
        return kExitError;
      }
      return RunFabricOp(connect_address, handoff_arg, drain_arg, auth_keys);
    }
    if (path.empty()) {
      Usage();
      return kExitError;
    }
    return RunClient(connect_address, path, deadline_ms, auth_keys);
  }
  if (path.empty()) {
    Usage();
    return kExitError;
  }

  auto spec_or = LoadCompletenessSpec(path);
  if (!spec_or.ok()) return Fail(spec_or.status());
  CompletenessSpec spec = std::move(*spec_or);

  std::unique_ptr<CheckpointStore> store;
  if (!resume_dir.empty()) {
    auto opened = CheckpointStore::Open(resume_dir);
    if (!opened.ok()) return Fail(opened.status());
    store = std::move(*opened);
  }
  if (!delta_path.empty() && store == nullptr) {
    std::cerr << "relcheck: --delta requires --resume-dir (the verdict "
                 "certificates live in the store)\n";
    Usage();
    return kExitError;
  }

  std::cout << "database schema:\n" << spec.db_schema->ToString()
            << "master schema:\n" << spec.master_schema->ToString()
            << "constraints (" << spec.constraints.size() << "):\n"
            << spec.constraints.ToString() << "\n";

  // Delta mode: fingerprint the pre-update instance per query and pull
  // the certificates a prior run persisted, then apply the batch once.
  // Partial closure of the updated instance is established inside the
  // re-certifier (targeted recheck on the incremental path, the full
  // decider check on the fallback), not by an upfront full pass.
  std::optional<DeltaBatch> delta;
  std::vector<uint64_t> pre_fps;
  std::vector<std::optional<RcdpCertificate>> certs(spec.queries.size());
  DeltaApplyReport report;
  if (!delta_path.empty()) {
    auto batch = LoadDeltaBatch(delta_path);
    if (!batch.ok()) return Fail(batch.status());
    delta = std::move(*batch);
    for (const AnyQuery& q : spec.queries) {
      pre_fps.push_back(FingerprintRcdpInstance(q, spec.db, spec.master,
                                                spec.constraints));
    }
    for (size_t i = 0; i < spec.queries.size(); ++i) {
      auto payload = store->LoadVerdict(StrCat("q", i + 1));
      if (!payload.ok()) continue;
      auto cert = RcdpCertificate::Deserialize(*payload);
      if (cert.ok()) certs[i] = std::move(*cert);
    }
    auto applied = ApplyDeltaBatch(*delta, &spec.db, &spec.master);
    if (!applied.ok()) return Fail(applied.status());
    report = std::move(*applied);
    std::cout << "delta applied: " << report.ToString() << "\n";
  } else {
    auto closed = CheckConstraints(spec.constraints, spec.db, spec.master);
    if (!closed.ok()) return Fail(closed.status());
    if (!closed->satisfied) {
      // The model's precondition fails: no completeness question is
      // even well-posed, so this is an input error, not a verdict.
      std::cout << "NOT PARTIALLY CLOSED: " << closed->ToString() << "\n";
      return kExitError;
    }
    std::cout << "partially closed: yes\n";
  }

  int exit_code = kExitComplete;
  for (size_t i = 0; i < spec.queries.size(); ++i) {
    const AnyQuery& query = spec.queries[i];
    const std::string request_id = StrCat("q", i + 1);
    std::cout << "\n=== query #" << i + 1 << ": " << query.ToString()
              << "\n";
    auto answer = Evaluate(query, spec.db);
    if (!answer.ok()) return Fail(answer.status());
    std::cout << "answer: " << answer->ToString() << "\n";

    ExecutionBudget budget;
    if (deadline_ms > 0) {
      budget.set_timeout(std::chrono::milliseconds(deadline_ms));
    }
    if (max_steps > 0) {
      budget.set_max_steps(static_cast<size_t>(max_steps));
    }
    RcdpOptions options;
    if (budget.active()) options.budget = &budget;
    std::optional<SearchCheckpoint> resume;
    if (store != nullptr && !delta.has_value()) {
      // A raw search checkpoint only resumes the identical instance; in
      // delta mode the instance just changed, so resumption (when the
      // update left the frontier clean) goes through the certificate.
      auto persisted = store->LoadLatestCheckpoint(request_id);
      if (persisted.ok()) {
        resume = std::move(persisted->checkpoint);
        options.resume = &*resume;
        std::cout << "resuming from " << persisted->path << " (generation "
                  << persisted->generation << ")\n";
      }
    }

    std::optional<RcdpCertificate> new_cert;
    auto verdict = [&]() -> Result<RcdpResult> {
      if (store == nullptr) {
        return DecideRcdp(query, spec.db, spec.master, spec.constraints,
                          options);
      }
      Result<RcdpCertified> certified = [&]() -> Result<RcdpCertified> {
        if (delta.has_value() && certs[i].has_value() &&
            certs[i]->instance_fp == pre_fps[i]) {
          std::cout << "re-certifying incrementally from the stored "
                       "certificate\n";
          return RecertifyRcdp(query, spec.db, spec.master,
                               spec.constraints, *certs[i], report, options);
        }
        if (delta.has_value()) {
          std::cout << "no certificate for the pre-update instance: "
                       "re-certifying from scratch\n";
        }
        return CertifyRcdp(query, spec.db, spec.master, spec.constraints,
                           options);
      }();
      if (!certified.ok()) return certified.status();
      new_cert = std::move(certified->certificate);
      return std::move(certified->result);
    }();
    if (!verdict.ok()) {
      if (verdict.status().code() == StatusCode::kUnsupported) {
        // Can't decide this query class: the audit is inconclusive for
        // it, which is an UNKNOWN outcome, not an error.
        std::cout << "RCDP: " << verdict.status().ToString() << "\n";
        exit_code = std::max(exit_code, kExitUnknown);
        continue;
      }
      return Fail(verdict.status());
    }
    if (verdict->verdict == Verdict::kUnknown) {
      // An exhausted search is not a decision: surface the cause and,
      // when a resume directory is given, the durable checkpoint a
      // re-run will continue from.
      std::cout << "RCDP: UNKNOWN — search exhausted ("
                << verdict->exhaustion.ToString() << ")\n";
      if (verdict->checkpoint.has_value() && store != nullptr) {
        auto generation =
            store->PersistCheckpoint(request_id, *verdict->checkpoint);
        if (!generation.ok()) return Fail(generation.status());
        std::cout << "checkpoint persisted: " << store->directory() << "/"
                  << request_id << ".g" << *generation << ".ckpt\n"
                  << "re-run with the same spec and --resume-dir "
                  << store->directory() << " to continue\n";
        if (new_cert.has_value()) {
          // The certificate embeds the same frontier plus the content
          // fingerprints, so a later --delta run can resume it too.
          auto persisted =
              store->PersistVerdict(request_id, new_cert->Serialize());
          if (!persisted.ok()) return Fail(persisted);
        }
      } else if (verdict->checkpoint.has_value()) {
        std::cout << "checkpoint available at disjunct "
                  << verdict->checkpoint->disjunct << ", rank "
                  << verdict->checkpoint->rank
                  << "; pass --resume-dir DIR to persist it\n";
      }
      exit_code = std::max(exit_code, kExitUnknown);
      continue;
    }
    std::cout << "RCDP: " << verdict->ToString() << "\n";
    if (store != nullptr) {
      auto forgotten = store->Forget(request_id);
      if (!forgotten.ok()) return Fail(forgotten);
      if (new_cert.has_value()) {
        // Decided: drop any stale checkpoint, keep the certificate so a
        // later --delta run re-certifies incrementally.
        auto persisted =
            store->PersistVerdict(request_id, new_cert->Serialize());
        if (!persisted.ok()) return Fail(persisted);
        std::cout << "certificate persisted for incremental re-audits\n";
      }
    }
    if (!verdict->complete) {
      exit_code = std::max(exit_code, kExitIncomplete);
    }

    if (explain && !verdict->complete) {
      auto report = CheckBoundedDatabase(query, spec.db, spec.master,
                                         spec.constraints);
      if (report.ok()) {
        std::cout << "explanation: " << report->ToString() << "\n";
      }
    }

    if (run_rcqp) {
      auto rcqp = DecideRcqp(query, spec.db_schema, spec.master,
                             spec.constraints);
      if (!rcqp.ok()) {
        std::cout << "RCQP: " << rcqp.status().ToString() << "\n";
      } else if (rcqp->verdict == Verdict::kUnknown) {
        std::cout << "RCQP: UNKNOWN — search exhausted ("
                  << rcqp->exhaustion.ToString() << ")\n";
      } else {
        std::cout << "RCQP: " << rcqp->ToString() << "\n";
      }
    }

    if (chase_rounds > 0 && !verdict->complete) {
      auto completed =
          ChaseToCompleteness(query, spec.db, spec.master, spec.constraints,
                              static_cast<size_t>(chase_rounds));
      if (!completed.ok()) {
        std::cout << "chase: " << completed.status().ToString() << "\n";
      } else if (completed->verdict != Verdict::kComplete) {
        std::cout << "chase: UNKNOWN after " << completed->rounds
                  << " rounds (" << completed->exhaustion.ToString()
                  << ")\n";
      } else {
        auto final_answer = Evaluate(query, completed->db);
        if (!final_answer.ok()) return Fail(final_answer.status());
        std::cout << "chase: complete after adding "
                  << completed->db.TotalTuples() - spec.db.TotalTuples()
                  << " tuples; answer becomes " << final_answer->ToString()
                  << "\n";
      }
    }
  }
  return exit_code;
}
