// Quickstart — the 60-second tour of tsvcod:
//  1. describe a TSV array,
//  2. measure the bit statistics of your data,
//  3. ask for the power-optimal bit-to-TSV assignment,
//  4. read off the savings and the wiring plan.
#include <cstdio>

#include "core/link.hpp"
#include "streams/random_streams.hpp"

using namespace tsvcod;

int main() {
  // A 4x4 TSV array with the relaxed ITRS-2018 geometry (r = 2 um, d = 8 um).
  const auto geom = phys::TsvArrayGeometry::itrs2018_relaxed(4, 4);
  const core::Link link(geom);  // fits the capacitance model internally

  // The data crossing the 3D interface: a 16-bit correlated DSP signal.
  streams::GaussianAr1Stream data(16, /*sigma=*/1500.0, /*rho=*/0.6, /*seed=*/1);
  const auto stats = link.measure(data, 50000);

  // Evaluate every assignment variant the paper discusses.
  const auto study = core::study_assignments(link, stats);

  // Power change versus the random mean: negative is a saving.
  std::printf("normalized power (aF units):\n");
  std::printf("  random assignment (mean) : %8.1f\n", study.random_mean * 1e18);
  std::printf("  Spiral (systematic)      : %8.1f  (%+.1f %%)\n", study.spiral * 1e18,
              -study.reduction_spiral());
  std::printf("  Sawtooth (systematic)    : %8.1f  (%+.1f %%)\n", study.sawtooth * 1e18,
              -study.reduction_sawtooth());
  std::printf("  optimal (Eq. 10)         : %8.1f  (%+.1f %%)\n", study.optimal * 1e18,
              -study.reduction_optimal());

  // The wiring plan: which bit drives which TSV, and which are inverted.
  std::printf("\noptimal bit-to-TSV assignment (rows x cols, entries = bit index,\n"
              "'~' = transmitted inverted):\n");
  for (std::size_t r = 0; r < geom.rows; ++r) {
    for (std::size_t c = 0; c < geom.cols; ++c) {
      const std::size_t bit = study.optimal_map.bit_of_line(geom.index(r, c));
      std::printf("  %s%2zu", study.optimal_map.inverted(bit) ? "~" : " ", bit);
    }
    std::printf("\n");
  }
  return 0;
}
