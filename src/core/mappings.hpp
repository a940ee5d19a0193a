#pragma once
// Systematic bit-to-TSV assignments for DSP signals (paper Sec. 4, Fig. 1).
//
//  * Spiral   — for temporally correlated, equally distributed patterns:
//    bits with the highest self-switching activity go to the array corners /
//    perimeter (lowest total capacitance), the calmest bits to the middle.
//    The TSV visit order is an outside-in ring walk starting at a corner.
//  * Sawtooth — for zero-mean normally distributed, temporally uncorrelated
//    patterns: the strongly cross-correlated MSBs are packed onto the most
//    strongly coupled TSV pairs (corner + adjacent edge): the first two rows
//    are filled column-by-column in a zigzag, the rest row by row. This is
//    the closed form of the paper's greedy rule (start at the largest
//    coupling capacitance, then keep picking the TSV with the largest
//    accumulated coupling to the chosen ones).
//
// Neither systematic assignment uses inversions (the targeted signals have
// balanced bit probabilities and positive correlations).

#include <vector>

#include "core/assignment.hpp"
#include "phys/tsv_geometry.hpp"

namespace tsvcod::core {

/// Raw outside-in ring walk over the array, starting at TSV (0,0), east.
std::vector<std::size_t> ring_order(const phys::TsvArrayGeometry& geom);

/// The paper's Spiral visit order: corners first, then edges, then middle
/// TSVs (ascending total capacitance class), each class traversed in
/// outside-in ring order. For the paper's arrays this traces the spiral of
/// Fig. 1.a while honouring the textual rule "highest self switching to the
/// corners, next highest to the edges, rest to the middle".
std::vector<std::size_t> spiral_order(const phys::TsvArrayGeometry& geom);

/// First two rows zigzag ((0,0),(1,0),(0,1),(1,1),...), then row-major.
std::vector<std::size_t> sawtooth_order(const phys::TsvArrayGeometry& geom);

/// Bits ranked by self-switching activity, descending (ties keep bit order).
std::vector<std::size_t> rank_by_self_switching(const stats::SwitchingStats& s);

/// Bits ranked by total positive switching correlation, descending ("MSB
/// first" for normally distributed data; ties keep descending bit order so
/// untied LSB regions stay in significance order).
std::vector<std::size_t> rank_by_correlation(const stats::SwitchingStats& s);

/// Spiral assignment: rank bits by self switching, place along spiral_order.
SignedPermutation spiral_assignment(const phys::TsvArrayGeometry& geom,
                                    const stats::SwitchingStats& s);

/// Sawtooth assignment: rank bits by correlation, place along sawtooth_order.
SignedPermutation sawtooth_assignment(const phys::TsvArrayGeometry& geom,
                                      const stats::SwitchingStats& s);

/// Assignment placing ranked bits along an arbitrary TSV order.
SignedPermutation assignment_from_orders(std::span<const std::size_t> bit_rank,
                                         std::span<const std::size_t> tsv_order);

}  // namespace tsvcod::core
