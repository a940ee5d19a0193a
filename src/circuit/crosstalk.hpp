#pragma once
// Crosstalk bounce on a TSV link. The paper's related work fights TSV
// coupling with crosstalk-avoidance codes; this analysis quantifies the same
// physics on our 3-pi model: how hard a quiet victim is bounced by
// simultaneously switching aggressors. It also exposes the MOS-effect side
// benefit of the inversion trick: raising a line's 1-probability widens its
// depletion region and weakens its coupling.

#include "circuit/tsv_link_sim.hpp"

namespace tsvcod::circuit {

/// Worst |V| bounce [V] on TSV `victim` of the array, held at 0 while every
/// other TSV rises at t = period as a synchronized aggressor.
double victim_bounce(const phys::TsvArrayGeometry& geom, const phys::Matrix& cap,
                     std::size_t victim, const DriverParams& driver = {},
                     const SimOptions& options = {});

}  // namespace tsvcod::circuit
