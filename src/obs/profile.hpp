#pragma once
// Span-tree profiler: aggregates the `obs::Span` stream into a hierarchical
// profile instead of (or in addition to) emitting per-event trace records.
// Each distinct span *path* (stack of span names) owns one tree node holding
// a call count, accumulated wall time, optional hardware-counter totals
// (obs/perf_counters.hpp) and named work counters attached via
// `profile_work`.
//
// Determinism contract: the tree shape, per-node call counts and work
// counters depend only on the logical call structure — `opt::parallel_for`
// propagates the submitting span as the logical parent onto workers
// (`ProfileTaskScope` in obs.hpp), so the same run produces a bit-identical
// *deterministic* projection (`ProfileFields::deterministic`) at every
// thread count. Timing fields and hardware counters are measurement noise by
// nature and live only in the `full` projection; tests assert on the
// deterministic one.
//
// Exports: `profile_to_json` (schema `tsvcod.profile.v1`, children and work
// maps sorted by name) and `profile_to_collapsed` (collapsed-stack /
// "folded" text — `a;b;c <self_ns>` — loadable by flamegraph.pl / speedscope
// / inferno).

#include <cstdint>
#include <string>

#include "obs/obs.hpp"

namespace tsvcod::obs {

enum class ProfileFields {
  /// name / count / work counters / children only — bit-identical across
  /// thread counts for the same logical run.
  deterministic,
  /// Adds total_ns / self_ns and per-node hardware counters plus the
  /// process-wide perf-availability block (flagged fallback, never an error).
  full,
};

/// Add to a named work counter on the calling thread's innermost open
/// profiled span (commutative integer add → thread-count invariant). No-op
/// when profiling is disabled or no profiled span is open.
void profile_work(const char* name, std::uint64_t amount);

/// Render the span tree. Safe while spans run (it takes the tree mutex and
/// reads only atomics); only `reset_profile` needs quiescence.
std::string profile_to_json(ProfileFields fields);

/// Collapsed-stack text: one `path;to;span <self_ns>` line per node, paths in
/// depth-first name-sorted order.
std::string profile_to_collapsed();

/// Drop the whole tree (the next span re-grows it). Quiescent points only.
void reset_profile();

}  // namespace tsvcod::obs
