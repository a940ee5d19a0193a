#pragma once
// The packaged switching-statistics result type (paper Sec. 3, Eq. 1-3),
// produced by the accumulator (bitplane.hpp).

#include <cstdint>
#include <vector>

#include "phys/matrix.hpp"

namespace tsvcod::stats {

struct SwitchingStats {
  std::size_t width = 0;
  std::size_t transitions = 0;          ///< number of pattern transitions observed
  std::vector<double> self;             ///< E{db_i^2}
  std::vector<double> prob_one;         ///< E{b_i}
  phys::Matrix coupling;                ///< E{db_i db_j}; diagonal equals `self`

  /// Shifted probabilities eps_i = E{b_i} - 1/2 (Eq. 8).
  std::vector<double> eps() const;
};

}  // namespace tsvcod::stats
