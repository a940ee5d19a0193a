#pragma once
// Span-tree profiler: aggregates the `obs::Span` stream into a hierarchical
// profile instead of (or in addition to) emitting per-event trace records.
// Each distinct span *path* (stack of span names) owns one tree node holding
// a call count, accumulated wall time, the opening threads' accumulated CPU
// time (`CLOCK_THREAD_CPUTIME_ID`) and named work counters attached via
// `profile_work`. The same counters, per span instead of per path, are the
// args of the trace's events (obs.hpp), so a traced and profiled run sums
// to the same work in both.
//
// Determinism contract: the tree shape, per-node call counts and work
// counters depend only on the logical call structure — `opt::parallel_for`
// propagates the submitting span as the logical parent onto workers
// (`ProfileTaskScope` in obs.hpp), so the same run produces a bit-identical
// *deterministic* projection (`ProfileFields::deterministic`) at every
// thread count. Timing fields are measurement noise by nature and live only
// in the `full` projection; tests assert on the deterministic one.
//
// Exports: `profile_to_json` (schema `tsvcod.profile.v2`, children and work
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
  /// Adds total_ns / self_ns (wall) and cpu_ns: the CPU time of the thread
  /// that opened each span, summed over the node's spans. Work a span hands
  /// to other threads is counted on their spans, not on it.
  full,
};

/// Add to a named work counter on the calling thread's innermost open
/// profiled span (commutative integer add → thread-count invariant), and to
/// the same-named arg of its innermost open traced span. The two are the
/// same span whenever the work is recorded inside a span the calling thread
/// opened, as every call site in the library does (work recorded directly
/// in a `ProfileTaskScope` body counts on the adopted parent in the profile
/// but on the running thread's own open span in the trace). No-op for a
/// layer that is disabled or has no span open.
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
