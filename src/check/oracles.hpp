#pragma once
// The seven differential oracles of the correctness harness.
//
// Each oracle is an independent property run through check_property(): a
// structured generator, a checker that compares two implementations of the
// same mathematics (or an algebraic invariant), and a shrinker that minimizes
// failing inputs. The pairings:
//
//   codec_roundtrip   decode(unassign(assign(encode(w)))) == w for every codec
//                     family x width x traffic regime, across atomic resets,
//                     and after recovery from a deliberate one-sided desync.
//   evaluator_drift   incremental PowerEvaluator move chains vs the dense
//                     O(N^2) assignment_power(), drift bounded at the scale of
//                     float epsilon times the absolute term mass.
//   stats_reference   bit-plane StatsAccumulator vs a naive O(N * w^2)
//                     recomputation (exact: both sums are integer-valued),
//                     plus a ChunkFolder fold at random chunk sizes (0 and 1
//                     included) and random window resets, and chunked
//                     parallel compute_stats at several thread counts
//                     (bitwise identical, block tails included), at every
//                     SIMD dispatch level up to the host's.
//   field_consistency Jacobi- vs multigrid-preconditioned BiCGStab vs a dense
//                     complex LU factorization of the same operator, on random
//                     conductor layouts; half the grids are large enough that
//                     the multigrid request must run the V-cycle.
//   io_roundtrip      save -> load -> save byte identity for trace/model/
//                     assignment files, plus byte-mutation fuzzing of the
//                     parsers (only std::runtime_error may escape).
//   binary_roundtrip  .tsvb save -> parse -> save byte identity, text/binary
//                     pipeline equivalence, plus byte-mutation fuzzing of the
//                     header and payload (same escape contract).
//   noc_coded         a 3D-mesh NoC with per-vertical-link coding attached vs
//                     the same mesh uncoded, across random codec families,
//                     mesh shapes and traffic regimes: delivery streams must
//                     be byte-identical (payloads AND latencies, via the
//                     ejection digest), link utilization unchanged, flits
//                     conserved, the coded run bit-identical at 1 vs 2
//                     threads, and bus-invert's coded line toggles bounded by
//                     the uncoded payload toggles on every vertical link.

#include "check/check.hpp"

namespace tsvcod::check {

Report oracle_codec_roundtrip(const RunOptions& opt);
Report oracle_evaluator_drift(const RunOptions& opt);
Report oracle_stats_reference(const RunOptions& opt);
Report oracle_field_consistency(const RunOptions& opt);
Report oracle_io_roundtrip(const RunOptions& opt);
Report oracle_binary_roundtrip(const RunOptions& opt);
Report oracle_noc_coded(const RunOptions& opt);

/// Run every oracle with per-oracle iteration budgets scaled from
/// `opt.iterations` (field solves are expensive, codec round-trips cheap).
std::vector<Report> run_all_oracles(const RunOptions& opt);

}  // namespace tsvcod::check
