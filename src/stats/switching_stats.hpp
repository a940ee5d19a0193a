#pragma once
// Bit-level switching statistics of a word stream (paper Sec. 3, Eq. 1-3).
//
// For an N-bit stream the power model needs three quantities per line/pair:
//   * self switching        E{db_i^2}      (db in {-1, 0, +1})
//   * switching correlation E{db_i db_j}
//   * 1-bit probability     E{b_i}         (drives the MOS capacitance)
// `StatsAccumulator` (stats/bitplane.hpp) measures them in one pass with a
// block-transposed popcount kernel whose integer counters make `finish()`
// bit-identical to the historical per-word double-precision loop at every
// width and stream length; `SwitchingStats` packages them and builds the T
// matrix of Eq. 3.

#include <cstdint>
#include <span>

#include "stats/bitplane.hpp"
#include "stats/switching_types.hpp"

namespace tsvcod::stats {

/// One-shot statistics of a word sequence. `threads` follows the repo-wide
/// convention (0 = TSVCOD_THREADS env, else serial); the trace is chunked
/// across the shared pool and merged exactly, so the result is bit-identical
/// at every thread count.
SwitchingStats compute_stats(std::span<const std::uint64_t> words, std::size_t width,
                             int threads = 0);

}  // namespace tsvcod::stats
