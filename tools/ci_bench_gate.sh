#!/usr/bin/env bash
# CI bench gate: build, run the tier-1 test suite and the dead-API lint
# (tools/dead_api.sh on the `lint` preset), re-run the quick serve bench
# configuration and diff it against the committed BENCH_serve.json baseline
# with tsvcod_benchdiff.
#
# Tier-1 includes pipeline_smoke, the reduced-size run of bench/pipeline,
# whose ledger carries the per-layer throughput metrics (stats.words_per_s,
# core.evals_per_s, streams.open_s, noc.mflits_per_s; see
# bench/pipeline/README.md). The NoC's correctness checks (engine equals the
# reference model, bit-identity across thread counts, coded-fabric
# transparency and exact vertical-link toggle totals) are ctest assertions in
# test_noc.
#
# The serve tolerance is deliberately generous (default 75%): the committed
# baseline was measured on one specific host, so the gate is meant to catch
# order-of-magnitude regressions and broken determinism (bit_identical /
# ok flipping to false or vanishing), not small scheduling noise. Override
# with TSVCOD_GATE_TOLERANCE=<pct> (a finite number >= 0), and point
# BUILD_DIR at an existing build tree to skip the configure step.
set -euo pipefail

REPO="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${BUILD_DIR:-$REPO/build}"
TOLERANCE="${TSVCOD_GATE_TOLERANCE:-75}"
TMP="$(mktemp -d /tmp/tsvcod_gate.XXXXXX)"
trap 'rm -rf "$TMP"' EXIT

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
echo "== quick serve bench rerun =="
# The bench's own acceptance gate (exit 1 on a failed bar) is not fatal here:
# the written JSON carries the ok/bit_identical booleans, and the benchdiff
# boolean gate below flags any true -> false flip as a regression.
"$BUILD/bench/serve_throughput" --words 65536 --reps 2 --out "$TMP/serve.json" || true

echo
echo "== regression gates (tolerance ${TOLERANCE}%) =="
fail=0
gate() {
  local name="$1" base="$2" cand="$3"
  shift 3
  echo "-- $name"
  if [ ! -f "$cand" ]; then
    echo "RESULT: REGRESSION ($name produced no output)"
    fail=1
    return
  fi
  if ! "$BUILD/tools/tsvcod_benchdiff" "$base" "$cand" --tolerance "$TOLERANCE" "$@"; then
    fail=1
  fi
  echo
}
# Per-metric overrides loosen the most machine-sensitive numbers further.
# swap_latency_ms depends on the annealing budget *and* host scheduling, so it
# only gates order-of-magnitude blowups; the booleans (desyncs stays 0,
# bit_identical stays true) are the real invariants and gate exactly.
gate serve "$REPO/BENCH_serve.json" "$TMP/serve.json" \
  --metric-tolerance swap_latency_ms=95

if [ "$fail" -ne 0 ]; then
  echo "ci_bench_gate: FAILED"
  exit 1
fi
echo "ci_bench_gate: ok"
