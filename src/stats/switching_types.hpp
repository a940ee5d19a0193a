#pragma once
// The packaged switching-statistics result type (paper Sec. 3, Eq. 1-3),
// shared by the accumulator (bitplane.hpp) and the analytic DBT model.

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

  /// T = T_s * 1_{NxN} - T_c (Eq. 3): T_ii = self_i, T_ij = self_i - coupling_ij.
  phys::Matrix t_matrix() const;
};

}  // namespace tsvcod::stats
