#include "stats/switching_stats.hpp"

namespace tsvcod::stats {

std::vector<double> SwitchingStats::eps() const {
  std::vector<double> e(width);
  for (std::size_t i = 0; i < width; ++i) e[i] = prob_one[i] - 0.5;
  return e;
}

SwitchingStats compute_stats(std::span<const std::uint64_t> words, std::size_t width,
                             int threads) {
  return compute_counts(words, width, threads).finalize();
}

}  // namespace tsvcod::stats
