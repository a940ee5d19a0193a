#include "stats/ingest.hpp"

#include <chrono>
#include <sstream>

#include "obs/obs.hpp"
#include "obs/profile.hpp"

namespace tsvcod::stats {

SwitchingCounts compute_counts(streams::WordSource& source, std::size_t width, int threads) {
  obs::Span span("stats.ingest");
  const auto t0 = std::chrono::steady_clock::now();

  source.reset();
  ChunkFolder folder(width, threads);
  // WordSource contract: an empty chunk appears exactly once, at
  // exhaustion. The folder itself also tolerates empty chunks (no seam
  // update), so a source that hands one out early merely truncates instead
  // of corrupting the seam chain.
  for (auto chunk = source.next_chunk(); !chunk.empty(); chunk = source.next_chunk()) {
    folder.fold(chunk);
  }
  const std::uint64_t words_total = folder.words();

  if (span.traced()) {
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    if (secs > 0.0) {
      obs::counter("trace.ingest.words_per_sec", static_cast<double>(words_total) / secs);
      obs::counter("trace.ingest.bytes_per_sec", static_cast<double>(source.bytes()) / secs);
    }
    std::ostringstream os;
    os << "\"source\":\"" << obs::json_escape(source.source()) << "\",\"words\":" << words_total
       << ",\"width\":" << width;
    span.set_args(os.str());
  }
  obs::profile_work("words", words_total);
  obs::profile_work("bytes", source.bytes());
  return folder.counts();
}

SwitchingStats compute_stats(streams::WordSource& source, std::size_t width, int threads) {
  return compute_counts(source, width, threads).finalize();
}

}  // namespace tsvcod::stats
