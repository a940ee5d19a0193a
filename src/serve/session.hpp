#pragma once
// One streaming session: a bus (tenant) whose word stream arrives in chunks.
//
// Every ingested word does two things:
//   1. Traffic: it is round-tripped through a CodedLink (encode -> assign ->
//      lines -> unassign -> decode) and decode-verified — a desync counter
//      records any word that fails to come back, which is the observable the
//      hot-swap guarantee is stated in terms of.
//   2. Statistics: it is folded into a windowed ChunkFolder (tumbling window
//      of `DriftOptions::window_words`, seam carried across windows); at each
//      boundary the finished window's exact integer counts merge into the
//      long-run total, so the long-run statistics are bit-identical to batch
//      `compute_stats` over the same *payload* words — regardless of codec
//      choice, chunk sizes, or when a swap landed — without folding any word
//      twice.
//
// At every window boundary the session compares the finished window against
// the long-run statistics with `drift_metric` (mean absolute shift of the
// per-line toggle rates, pairwise coupling rates and one-probabilities). When
// the drift exceeds the threshold — and no re-anneal is already in flight and
// the cooldown since the last swap has elapsed — ingest() reports a trip; the
// server schedules `optimize_assignment` on the shared pool against the
// window's statistics and, when it finishes, installs the winner atomically
// via `CodedLink::reset(next)`. Concurrent traffic observes zero desyncs
// across the swap.
//
// Thread safety: ingest() holds the session mutex for the whole chunk, so
// concurrent calls on one session fold one chunk after another, in the order
// they take the lock (the server calls it on the thread that hands in the
// batch); install() and snapshot() may race ingest() and take the same mutex.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>

#include "coding/factory.hpp"
#include "core/coded_link.hpp"
#include "core/optimize.hpp"
#include "stats/ingest.hpp"
#include "tsv/linear_model.hpp"

namespace tsvcod::serve {

struct DriftOptions {
  /// Tumbling-window length in words; the drift check runs once per window.
  /// Must be >= 2 (a window needs two words to have a transition).
  std::uint64_t window_words = 4096;
  /// Trip level for drift_metric(); must be finite and >= 0, and 0 disables
  /// drift detection entirely.
  double threshold = 0.25;
  /// Minimum words between the end of one swap and the next trip. 0 = one
  /// window length.
  std::uint64_t cooldown_words = 0;
};

struct SessionConfig {
  /// Line width == payload width (the service accepts width-preserving
  /// codecs only, so a hot-swapped assignment never changes the line count).
  std::size_t width = 8;
  /// Codec for the link; name "" or "none" = uncoded (assignment only).
  /// Expanding codecs (bus-invert, fibonacci) are rejected with an error
  /// naming the codec and both widths.
  coding::CodecSpec codec{};
  /// Capacitance model the re-anneal optimizes against; size() must equal
  /// `width`.
  tsv::LinearCapacitanceModel model;
  DriftOptions drift{};
  /// Re-anneal budget (iterations, chains, seed, threads).
  core::OptimizeOptions optimize{};
  /// Threads for the per-chunk statistics reduction (0 = TSVCOD_THREADS).
  int stats_threads = 1;
};

/// Point-in-time copy of a session's counters and long-run statistics.
struct SessionSnapshot {
  std::uint64_t id = 0;
  std::size_t width = 0;
  std::uint64_t words = 0;
  std::uint64_t batches = 0;
  std::uint64_t windows = 0;
  std::uint64_t desyncs = 0;
  std::uint64_t trips = 0;  ///< drift trips reported (re-anneals requested)
  std::uint64_t swaps = 0;  ///< assignments actually installed
  double last_drift = 0.0;  ///< metric at the most recent window boundary
  stats::SwitchingCounts longrun;  ///< exact whole-stream counts

  std::string to_json() const;
};

/// Mean absolute shift between two finalized statistics of equal width:
/// per-line toggle rates (self), one-probabilities, and the i<j coupling
/// rates, each averaged over its own entry count, summed. Dimensionless,
/// in [0, ~4]; identical statistics give exactly 0.
double drift_metric(const stats::SwitchingStats& window, const stats::SwitchingStats& longrun);

class Session {
 public:
  /// Validates the config (width 1..64, model size, codec width-preserving,
  /// window >= 2, threshold finite and >= 0, OptimizeOptions::validate)
  /// with errors naming the offending field. The link starts on the
  /// identity assignment.
  Session(std::uint64_t id, SessionConfig config);

  std::uint64_t id() const { return id_; }
  const tsv::LinearCapacitanceModel& model() const { return config_.model; }
  const core::OptimizeOptions& optimize_options() const { return config_.optimize; }

  struct IngestResult {
    bool tripped = false;  ///< schedule a re-anneal against `window_stats`
    double drift = 0.0;
    stats::SwitchingStats window_stats;   ///< set when tripped
    core::SignedPermutation current{1};   ///< assignment at the trip
    std::uint64_t words_at_trip = 0;      ///< session word count at the trip
    std::uint64_t new_desyncs = 0;        ///< desyncs added by this chunk
  };

  /// Fold one chunk: traffic every word through the link (counting desyncs)
  /// and accumulate statistics. Any chunk size is fine, including empty.
  /// Returns at most one trip per call (the first boundary that trips wins;
  /// later windows in the same chunk still update drift bookkeeping).
  IngestResult ingest(std::span<const std::uint64_t> words);

  /// Install a re-annealed assignment: atomic hot-swap on the link, then
  /// clear the in-flight flag. Returns false and installs nothing when no
  /// re-anneal is in flight (never tripped, or abandoned), so a result that
  /// lands after abandon_reanneal() is dropped.
  bool install(const core::SignedPermutation& next);

  /// Drop the in-flight flag without installing (anneal failed).
  void abandon_reanneal();

  SessionSnapshot snapshot() const;

 private:
  // Callers hold mu_.
  bool window_boundary_locked(IngestResult& out);

  std::uint64_t id_;
  SessionConfig config_;

  mutable std::mutex mu_;
  core::CodedLink link_;
  stats::SwitchingCounts longrun_;  ///< finished windows, merged exactly
  stats::ChunkFolder window_;       ///< current (partial) tumbling window
  std::uint64_t words_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t windows_ = 0;
  std::uint64_t desyncs_ = 0;
  std::uint64_t trips_ = 0;
  std::uint64_t swaps_ = 0;
  double last_drift_ = 0.0;
  bool reanneal_inflight_ = false;
  std::uint64_t words_at_last_swap_ = 0;
};

}  // namespace tsvcod::serve
