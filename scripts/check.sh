#!/usr/bin/env bash
# Full local gate: configure + build + test the default preset, then the
# asan preset (Debug, ASan+UBSan, recover disabled), then the tsan
# preset (ThreadSanitizer over the concurrency-sensitive suites — the
# parallel-search determinism sweep, the budget-exhaustion matrix, the
# fault-injection sweep, the eval equivalence tests, the decision
# service's kill sweeps (rolling persists run on search threads), the
# network front end's wire/socket suites and the concurrent
# verdict-cache hammer; the tsan test preset carries the filter), then
# the standalone ubsan preset (pure UBSan over the full suite). Later
# stages re-run labelled suites under a sanitizer and finish with the
# benchmark's known-answer selftest. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

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
# (ctest label "recovery") once more under the asan build — the
# kill/restart sweeps must be clean not just green.
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
# every store-op ordinal tears temp files, journals, and renames, so
# recovery must be clean, not just green. (The tsan preset's name
# filter covers the StorageFaultConcurrency suite.)
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
# label "core") — arena allocator, byte-cap exhaustion, and the matcher
# equivalence fuzzers — once more on the default build as a fast smoke
# of the ablation toggles' shared plumbing.
run ctest --test-dir build -L core --output-on-failure

# Benchmark known-answer stage: the smallest instance of each perfbench
# workload decided by DecideRcdp/DecideRcqp and checked against the
# BruteForceRcdp/BruteForceRcqp oracles, including master_design's RCQP
# witness path. run.py builds perfbench as Release under .bench_build/
# on first use.
run python3 perfbench/run.py --selftest

echo "All checks passed."
