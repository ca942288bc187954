#!/usr/bin/env bash
# Full local gate: configure + build + test the default preset, then the
# asan preset (Debug, ASan+UBSan, recover disabled), then the tsan
# preset (ThreadSanitizer over the concurrency-sensitive suites — the
# parallel-search determinism sweep, the budget-exhaustion matrix, the
# fault-injection sweep, the eval equivalence tests, the decision
# service's kill sweeps (rolling persists run while the search threads
# search), the
# network front end's wire/socket suites and the concurrent
# verdict-cache hammer; the tsan test preset carries the filter), then
# the standalone ubsan preset (pure UBSan over the full suite). Later
# stages re-run labelled suites under a sanitizer and finish with the
# benchmark's known-answer selftest, a short run of every benchmark
# workload and two traced runs that pin the shape of a cache hit and of
# a fresh audit. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

# Every ctest stage writes its scratch files into one private directory,
# so the gate does not depend on what earlier runs left under /tmp. It
# is removed when every stage passes and kept for inspection otherwise.
TEST_TMPDIR="$(mktemp -d)"
export TEST_TMPDIR
echo "== TEST_TMPDIR=$TEST_TMPDIR"

run() {
  echo "== $*"
  "$@"
}

for preset in default asan tsan ubsan; do
  run cmake --preset "$preset"
  run cmake --build --preset "$preset" -j "$(nproc)"
  run ctest --preset "$preset"
done

# Crash-recovery stage: the durable-store and decision-service suites
# (ctest label "recovery": the store's corruption corpus, its fsync
# count per operation, a directory written by the earlier journaled
# store, and the kill/restart sweeps, RCQP witness construction
# included) once more under the asan build — they must be clean, not
# just green.
run ctest --test-dir build-asan -L recovery --output-on-failure

# Network stage: the wire-format hostile corpus and the live-socket
# end-to-end suites (ctest label "net") once more under the tsan build
# — the poll(2) event loop, the client retry path and the kill/restart
# sweeps must be race-free, not just green.
run ctest --test-dir build-tsan -L net --output-on-failure

# Fabric stage: the sharded-fabric suites (ctest label "fabric") once
# more under the asan build — the kill-any-single-server sweeps, shard
# adoption, and the ring codec churn sockets, threads, and stores at
# once, so they must be clean, not just green.
run ctest --test-dir build-asan -L fabric --output-on-failure

# Chaos stage: the planned-handoff harness (ctest label "chaos") once
# more under the asan build — kills at every handoff stage, torn
# frames, stalled successors, and the handoff/adopt race reopen stores
# and sockets mid-protocol, so they must be clean, not just green.
# (The tsan preset's name filter already covers the Fabric* suites.)
run ctest --test-dir build-asan -L chaos --output-on-failure

# Storage-fault stage: the kill-the-disk harness (ctest label
# "storagefault") once more under the asan build — every fault kind at
# every store-op ordinal tears temp files, record writes, renames and
# directory fsyncs, and the store recovers from its record files alone
# (the directory is its own index), so recovery must be clean, not
# just green. (The tsan preset's name filter covers the
# StorageFaultConcurrency suite.)
run ctest --test-dir build-asan -L storagefault --output-on-failure

# Incremental stage: the delta/fingerprint/certificate suites and the
# verdict cache (ctest label "incremental") once more under the asan
# build — the certificate codec parses untrusted store bytes and the
# recertify ≡ from-scratch sweeps churn overlay/arena memory, so they
# must be clean, not just green.
run ctest --test-dir build-asan -L incremental --output-on-failure

# Codec stage: the hostile-input suite of util/codec.h (ctest label
# "codec") once more under the asan build — the cursor and every text
# format read from outside the process, swept with a truncation at
# every byte and a bit flip at every position, must be clean, not just
# green.
run ctest --test-dir build-asan -L codec --output-on-failure

# Id-plane core stage: the relational/eval substrate suites (ctest
# label "core") — arena allocator, byte-cap exhaustion, the matcher
# equivalence fuzzers, id-row staging and the allocation-free check —
# once more on the default build as a fast smoke of the ablation
# toggles' shared plumbing, and under ASan, since the overlay owns the
# staged id buffers and the synthetic-id table the matcher reads in
# place.
run ctest --test-dir build -L core --output-on-failure
run ctest --test-dir build-asan -L core --output-on-failure

# Benchmark known-answer stage: the smallest instance of each perfbench
# workload decided by DecideRcdp/DecideRcqp and checked against the
# BruteForceRcdp/BruteForceRcqp oracles, including master_design's RCQP
# witness path. run.py builds perfbench as Release under .bench_build/
# on first use.
run python3 perfbench/run.py --selftest

# Benchmark smoke stage: a 3 s run of every workload BENCHMARK.json
# declares must end correct with no failed audit. perfbench calls a run
# incorrect when a count it requires moves (cache hits and verdicts
# served from the cache equal to the audit count on repeat_audits, one
# cache insertion per fresh audit), so a service change that breaks one
# fails here rather than in a full benchmark run.
smoke() {
  local result
  result="$(python3 perfbench/run.py --workload "$1" --seconds 3 | tail -n 1)"
  python3 - "$1" "$result" <<'PY'
import json, sys
workload, line = sys.argv[1], sys.argv[2]
result = json.loads(line)
if result.get("correct") is not True or result.get("failed") != 0:
    sys.exit("perfbench smoke: %s is not correct: %s" % (workload, line[:300]))
print("perfbench smoke: %s correct, %s audits" % (workload, result["attempted"]))
PY
}
for workload in $(python3 -c 'import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do
  run smoke "$workload"
done

# Hit-shape stage: one traced repeat_audits run, where every audit is a
# verdict-cache hit. A hit is answered in its submit reply, so it costs
# one round trip and one server frame, writes nothing durable and is
# served from the cache. The untraced smoke above cannot tell a hit
# that quietly falls back to polling from one that does not; these
# exact per-audit counts can.
hit_shape() {
  local result
  result="$(python3 perfbench/run.py --workload repeat_audits --seconds 3 --trace 1 | tail -n 1)"
  python3 - "$result" <<'PY'
import json, sys
line = sys.argv[1]
result = json.loads(line)
if result.get("correct") is not True or result.get("failed") != 0:
    sys.exit("hit shape: repeat_audits is not correct: %s" % line[:300])
want = {"net.round_trips": 1, "counters.server_frames": 1,
        "service.store_fsyncs": 0, "counters.served_from_cache": 1}
metrics = result["metrics"]
wrong = ["%s = %s, expected %s" % (name, metrics[name]["value"], value)
         for name, value in want.items() if metrics[name]["value"] != value]
if wrong:
    sys.exit("hit shape: " + "; ".join(wrong))
print("hit shape: %s audits, %s" % (result["attempted"], ", ".join(
    "%s %s" % (name, value) for name, value in want.items())))
PY
}
run hit_shape

# Fresh-shape stage: one traced fresh_audits run, where every audit
# misses the cache and runs a 2-thread search. Its rolling checkpoints
# are reported to the job's worker thread, which persists them; a
# change to that delivery that silently dropped every report would
# still end correct, so the persists are counted here, with the one
# cache insertion each decided audit makes.
fresh_shape() {
  local result
  result="$(python3 perfbench/run.py --workload fresh_audits --seconds 3 --trace 1 | tail -n 1)"
  python3 - "$result" <<'PY'
import json, sys
line = sys.argv[1]
result = json.loads(line)
if result.get("correct") is not True or result.get("failed") != 0:
    sys.exit("fresh shape: fresh_audits is not correct: %s" % line[:300])
metrics = result["metrics"]
persisted = metrics["counters.checkpoints_persisted"]["value"]
inserted = metrics["counters.cache_insertions"]["value"]
wrong = []
if not persisted > 0:
    wrong.append("counters.checkpoints_persisted = %s, expected > 0" % persisted)
if inserted != 1:
    wrong.append("counters.cache_insertions = %s, expected 1" % inserted)
if wrong:
    sys.exit("fresh shape: " + "; ".join(wrong))
print("fresh shape: %s audits, counters.checkpoints_persisted %s, "
      "counters.cache_insertions %s" % (result["attempted"], persisted,
                                        inserted))
PY
}
run fresh_shape

rm -rf "$TEST_TMPDIR"
echo "All checks passed."
