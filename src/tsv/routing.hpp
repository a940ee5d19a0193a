#pragma once
// Local escape-routing overhead model (paper Sec. 3).
//
// The assignment only permutes bits *within* one TSV array; the cost is a
// slightly longer local metal route from each bit's arrival point at the
// array boundary to its assigned TSV. The paper quantifies this for a 3x3
// array in a 40 nm process: worst-case +0.4 % path parasitics, mean < 0.2 %,
// std < 0.1 % over all assignments. This module reproduces that study with a
// Manhattan wirelength model: bit i arrives at an entry point on the south
// edge of the array, one pitch below it, and is routed to TSV pi(i); the
// path parasitic is the TSV's total capacitance plus the wire capacitance of
// the route (0.2 fF/um) plus 40 fF of assignment-independent parasitics
// (the strength-6 output stage, receiver input, landing pads), which dilute
// the relative routing overhead just as they do in the paper's
// commercial-flow extraction.

#include <cstddef>
#include <span>
#include <vector>

#include "phys/tsv_geometry.hpp"

namespace tsvcod::tsv {

/// Evenly spaced bit entry points along the array's south edge.
std::vector<phys::Point2> entry_points(const phys::TsvArrayGeometry& geom);

/// Total Manhattan wirelength [m] of assignment `tsv_of_bit` (bit i routed to
/// TSV tsv_of_bit[i]).
double assignment_wirelength(const phys::TsvArrayGeometry& geom,
                             std::span<const std::size_t> tsv_of_bit);

struct OverheadStats {
  double worst_pct = 0.0;   ///< worst-case parasitic increase vs. optimum [%]
  double mean_pct = 0.0;
  double stddev_pct = 0.0;
  std::size_t assignments = 0;  ///< number of assignments evaluated
  bool exhaustive = false;
};

/// Parasitic-increase statistics over assignments, relative to the
/// minimum-parasitic assignment. Arrays up to 9 TSVs are enumerated
/// exhaustively (9! assignments); larger arrays are sampled (100,000
/// shuffles, fixed seed).
OverheadStats routing_overhead_stats(const phys::TsvArrayGeometry& geom,
                                     std::span<const double> tsv_total_cap);

}  // namespace tsvcod::tsv
