#!/usr/bin/env bash
# CI bench gate: build, run the tier-1 test suite and the dead-API lint
# (tools/dead_api.sh on the `lint` preset).
#
# Tier-1 includes the claims benches, which judge their own results: the
# `paper` label's seven benches, serve_throughput (session bit-identity, zero
# desyncs, hot swaps and multi-session scaling) and pipeline_smoke, the
# reduced-size run of bench/pipeline, whose ledger carries the per-layer
# throughput metrics (stats.words_per_s, core.evals_per_s, streams.open_s,
# noc.mflits_per_s, serve.words_per_s; see bench/pipeline/README.md). The
# NoC's correctness checks (engine equals the reference model, bit-identity
# across thread counts, coded-fabric transparency and exact vertical-link
# toggle totals) are ctest assertions in test_noc.
#
# Point BUILD_DIR at an existing build tree to skip the configure step.
set -euo pipefail

REPO="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${BUILD_DIR:-$REPO/build}"

if [ ! -f "$BUILD/CMakeCache.txt" ]; then
  cmake -B "$BUILD" -S "$REPO" -DCMAKE_BUILD_TYPE=Release
fi
cmake --build "$BUILD" -j

echo "== tier-1 tests =="
ctest --test-dir "$BUILD" --output-on-failure -j"$(nproc)"

echo
echo "== dead-API lint =="
# A separate -O0 section-GC build (build-lint/): every library function
# that no tool, bench or example calls must be listed in tools/dead_api.allow.
(cd "$REPO" && cmake --preset lint && cmake --build --preset lint -j && ctest --preset lint)

echo
echo "ci_bench_gate: ok"
