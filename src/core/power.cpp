#include "core/power.hpp"

#include <stdexcept>

namespace tsvcod::core {

double normalized_power(const stats::SwitchingStats& line_stats, const phys::Matrix& c) {
  const std::size_t n = line_stats.width;
  if (c.rows() != n || c.cols() != n) {
    throw std::invalid_argument("normalized_power: capacitance matrix size mismatch");
  }
  // <T, C> with T_ii = self_i and T_ij = self_i - coupling_ij, expanded
  // directly to avoid materializing T.
  double p = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    p += line_stats.self[i] * c(i, i);
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      p += (line_stats.self[i] - line_stats.coupling(i, j)) * c(i, j);
    }
  }
  return p;
}

double assignment_power(const stats::SwitchingStats& bit_stats, const SignedPermutation& a,
                        const tsv::LinearCapacitanceModel& model) {
  if (model.size() != bit_stats.width) {
    throw std::invalid_argument("assignment_power: model/stats width mismatch");
  }
  const stats::SwitchingStats line_stats = a.apply(bit_stats);
  const phys::Matrix c = model.evaluate_eps(line_stats.eps());
  return normalized_power(line_stats, c);
}

}  // namespace tsvcod::core
