#include "stats/ingest.hpp"

#include "obs/obs.hpp"
#include "obs/profile.hpp"

namespace tsvcod::stats {

SwitchingCounts compute_counts(streams::WordSource& source, std::size_t width, int threads) {
  obs::Span span("stats.ingest");

  source.reset();
  ChunkFolder folder(width, threads);
  // WordSource contract: an empty chunk appears exactly once, at
  // exhaustion. The folder itself also tolerates empty chunks (no seam
  // update), so a source that hands one out early merely truncates instead
  // of corrupting the seam chain.
  for (auto chunk = source.next_chunk(); !chunk.empty(); chunk = source.next_chunk()) {
    folder.fold(chunk);
  }
  obs::profile_work("words", folder.words());
  obs::profile_work("bytes", source.bytes());
  return folder.counts();
}

SwitchingStats compute_stats(streams::WordSource& source, std::size_t width, int threads) {
  return compute_counts(source, width, threads).finalize();
}

}  // namespace tsvcod::stats
