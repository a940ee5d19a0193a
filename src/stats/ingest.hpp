#pragma once
// WordSource -> switching statistics: the zero-copy ingestion entry point.
//
// Chunks from the source feed the chunked bit-plane reduction directly —
// an mmap'd binary trace goes file pages -> kernel with no intermediate
// vector. Consecutive chunks are seam-chained through stats::ChunkFolder
// (stats/bitplane.hpp, re-exported by this header), the same folder the
// per-session accumulators in src/serve use, so the result is bit-identical
// to materializing the trace and calling compute_stats on it, at every width
// and thread count.
//
// Observability (when enabled): a stats.ingest span with `words` and `bytes`
// work counters.

#include <span>

#include "stats/bitplane.hpp"
#include "stats/switching_types.hpp"
#include "streams/word_source.hpp"

namespace tsvcod::stats {

/// Exact counts of the whole source. The source is reset first. Per the
/// WordSource contract an empty chunk marks exhaustion; the per-chunk seam
/// bookkeeping itself is ChunkFolder's and tolerates any chunk size.
SwitchingCounts compute_counts(streams::WordSource& source, std::size_t width, int threads = 1);

/// finalize()d counts; needs >= 2 words in the source.
SwitchingStats compute_stats(streams::WordSource& source, std::size_t width, int threads = 1);

}  // namespace tsvcod::stats
