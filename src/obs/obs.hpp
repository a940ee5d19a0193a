#pragma once
// Structured observability layer: Chrome-trace-event tracing and a span-tree
// profiler (obs/profile.hpp), runtime-toggled and compiled so that the
// *disabled* path is a relaxed atomic load and a branch — cheap enough to
// leave in every hot loop (bench/obs_overhead measures it).
//
// Tracing (`Span`) appends one complete ("X") event per span to per-thread
// buffers: a worker only ever touches its own buffer (one uncontended
// per-buffer mutex, never shared between workers), so tracing composes with
// `opt::parallel_for` without serializing the pool. `trace_to_json()` merges
// the buffers into a `chrome://tracing` / Perfetto-loadable JSON document;
// call it from a quiescent point (no parallel section in flight).
//
// Counting is the profiler's job: every count a subsystem records is either
// the call count of a span path or a named work counter on one
// (`profile_work`), so traces, profiles and snapshots (obs/snapshot.hpp)
// describe a run in one vocabulary. A trace event's `args` are exactly the
// work counters recorded on its span, summed per name; the trace has no
// other args and no counter tracks.
//
// Enablement: `TSVCOD_TRACE=<file>` / `TSVCOD_PROFILE=<file>` environment
// variables (picked up by `init_from_env`, which the CLI calls) or the CLI's
// `--trace-out` / `--profile-out` flags; programs can also toggle directly
// via `enable_tracing` / `enable_profiling`.

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

namespace tsvcod::obs {

namespace detail {
/// The enabled layers, one bit each, in one word: a call site with both
/// layers off costs a single relaxed load.
inline constexpr unsigned kTraceLayer = 1u;
inline constexpr unsigned kProfileLayer = 2u;
extern std::atomic<unsigned> g_layers;
void set_layer(unsigned layer, bool on);

struct ProfileNode;  // span-tree node (obs/profile.cpp)

/// Per-span profiler state carried inside `Span`: the tree node the span
/// accumulates into, the steady-clock start and the calling thread's CPU
/// clock at begin.
struct ProfileHandle {
  ProfileNode* node = nullptr;
  std::int64_t t0_ns = 0;
  std::int64_t cpu0_ns = 0;
};
void profile_span_begin(const char* name, ProfileHandle& h);
void profile_span_end(ProfileHandle& h);
ProfileNode* profile_adopt(ProfileNode* parent);  // returns the previous current
void profile_restore(ProfileNode* previous);
/// Add to the calling thread's innermost open traced span (no-op when none).
void trace_work(const char* name, std::uint64_t amount);
inline unsigned enabled_layers() { return g_layers.load(std::memory_order_relaxed); }
}  // namespace detail

inline bool trace_enabled() { return (detail::enabled_layers() & detail::kTraceLayer) != 0; }
inline bool profiling_enabled() {
  return (detail::enabled_layers() & detail::kProfileLayer) != 0;
}

void enable_tracing(bool on = true);
void enable_profiling(bool on = true);  // defined in obs/profile.cpp

/// Read TSVCOD_TRACE / TSVCOD_PROFILE / TSVCOD_SNAPSHOT
/// (+ TSVCOD_SNAPSHOT_INTERVAL): a non-empty value enables the layer and
/// remembers the output path for `flush_outputs` (snapshots start their
/// background exporter immediately — see obs/snapshot.hpp).
void init_from_env();

/// Output paths ("" = none). Setting a non-empty path enables the layer.
void set_trace_path(std::string path);
void set_profile_path(std::string path);
std::string trace_path();
std::string profile_path();

/// Write the trace / profile JSON to their configured paths (no-op
/// for the unset ones; the profile additionally gets a `<path>.folded`
/// collapsed-stack file). Returns true if anything was written. Every
/// written JSON document carries a top-level `"clean_exit"` marker: pass
/// false from error paths (the CLI's RAII flusher does) so partial outputs
/// are still usable but flagged.
bool flush_outputs(bool clean_exit = true);

// ---------------------------------------------------------------------------
// Cross-thread logical parenting for the span-tree profiler
// ---------------------------------------------------------------------------

/// Opaque handle to the calling thread's current profile node (nullptr when
/// profiling is disabled or no span is open). Capture it where a task is
/// *submitted* and wrap the task body in a `ProfileTaskScope` so spans opened
/// on a worker aggregate under the submitting span — the span tree then
/// depends only on the logical call structure, never on which thread ran an
/// item (`opt::parallel_for` does this automatically).
using ProfileToken = detail::ProfileNode*;
ProfileToken profile_current();

/// Adopts `parent` for the scope, a null token included: a job submitted
/// outside any span stays a root even when a thread that has a span open
/// (say, a caller helping to drain the pool) happens to run it.
class ProfileTaskScope {
 public:
  explicit ProfileTaskScope(ProfileToken parent) : previous_(detail::profile_adopt(parent)) {}
  ~ProfileTaskScope() { detail::profile_restore(previous_); }
  ProfileTaskScope(const ProfileTaskScope&) = delete;
  ProfileTaskScope& operator=(const ProfileTaskScope&) = delete;

 private:
  detail::ProfileNode* previous_;
};

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// Render a double as a JSON number (nonfinite values become null).
std::string json_number(double v);

/// Escape `s` for use inside a JSON string literal (quotes not included).
std::string json_escape(std::string_view s);

/// RAII scoped span: records a Chrome "X" (complete) event on destruction
/// when tracing is enabled, and aggregates into the span-tree profiler when
/// profiling is enabled. The event's args are the work counters
/// (`profile_work`) recorded while it was the thread's innermost traced
/// span. A span constructed while both are disabled is fully inert: one
/// relaxed load and a branch.
class Span {
 public:
  explicit Span(const char* name) {
    if (const unsigned layers = detail::enabled_layers()) begin(name, layers);
  }
  ~Span() {
    if (traced_ || prof_.node != nullptr) end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void begin(const char* name, unsigned layers);
  void end();

  detail::ProfileHandle prof_;
  bool traced_ = false;
};

/// Merge every thread's buffer into one Chrome trace JSON document. Must be
/// called from a quiescent point; events of spans still open are not
/// included.
std::string trace_to_json();

/// Drop all buffered events and restart the trace clock.
void reset_trace();

}  // namespace tsvcod::obs
