#pragma once
// Shared helpers for the experiment harnesses: consistent study options,
// stable-line handling, table printing and the claim verdict.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/link.hpp"
#include "opt/parallel.hpp"
#include "streams/word_stream.hpp"

namespace tsvcod::bench {

/// Study options with a reproducible, adequately sized annealing budget. The
/// annealer runs on the TSVCOD_THREADS worker count, else 1; results are
/// bit-identical at every thread count, so sweeps can be sped up freely
/// without invalidating any figure.
inline core::StudyOptions default_study(unsigned seed = 1) {
  core::StudyOptions so;
  so.random_samples = 300;
  so.optimize.schedule.iterations = 15000;
  so.optimize.schedule.restarts = 3;
  so.optimize.seed = seed;
  so.optimize.threads = opt::default_threads();
  return so;
}

/// Per-bit inversion permissions for a payload stream of `payload_width`
/// followed by stable lines (power/ground lines must not be inverted).
inline std::vector<std::uint8_t> invert_mask(std::size_t payload_width,
                                             const std::vector<streams::StableLine>& lines) {
  std::vector<std::uint8_t> mask(payload_width, 1);
  for (const auto& l : lines) mask.push_back(l.invertible ? 1 : 0);
  return mask;
}

inline void print_header(const std::string& title, const std::string& paper_note) {
  std::printf("\n=== %s ===\n", title.c_str());
  if (!paper_note.empty()) std::printf("paper: %s\n", paper_note.c_str());
}

/// The claims a bench's table backs, checked on every run: each failed one
/// is printed as it is judged, and `verdict()` prints one line and returns
/// the bench's exit status, 1 if any claim failed. The claims and their
/// margins are recorded in EXPERIMENTS.md (the paper benches) or DESIGN.md
/// (serve_throughput, §5j).
class Claims {
 public:
  explicit Claims(std::string bench) : bench_(std::move(bench)) {}

  void operator()(bool ok, const std::string& what) {
    ++checked_;
    if (!ok) {
      ++failed_;
      std::printf("CHECK FAILED: %s\n", what.c_str());
    }
  }

  int verdict() const {
    if (failed_ == 0) {
      std::printf("%s claims: all %d hold\n", bench_.c_str(), checked_);
      return 0;
    }
    std::printf("%s claims: FAILED (%d of %d)\n", bench_.c_str(), failed_, checked_);
    return 1;
  }

 private:
  std::string bench_;
  int checked_ = 0;
  int failed_ = 0;
};

}  // namespace tsvcod::bench
