#pragma once
// The paper's interconnect power model (Eq. 1/2/10).
//
// Normalized mean dynamic power P_n = <T, C> (Frobenius inner product) with
// T from the line statistics (Eq. 3) and C the paper-form capacitance matrix
// (diagonal = ground caps, off-diagonal = coupling caps). The physical power
// is P = P_n * Vdd^2 * f / 2. `assignment_power` evaluates a candidate
// signed permutation end to end, including the probability-dependent MOS
// capacitances via the linear model of Eq. 7/9.

#include "core/assignment.hpp"
#include "phys/matrix.hpp"
#include "stats/switching_stats.hpp"
#include "tsv/linear_model.hpp"

namespace tsvcod::core {

/// <T, C> for statistics already expressed per line. Units: farads.
double normalized_power(const stats::SwitchingStats& line_stats, const phys::Matrix& c);

/// Power of a bit stream under an assignment, with MOS-aware capacitances
/// (C' of Eq. 9 via the linear model). This is the objective of Eq. 10.
double assignment_power(const stats::SwitchingStats& bit_stats, const SignedPermutation& a,
                        const tsv::LinearCapacitanceModel& model);

}  // namespace tsvcod::core
