#pragma once
// Fast analytic capacitance model for TSV arrays.
//
// The finite-difference extractor (src/field) is the golden reference but
// costs seconds per geometry; experiment sweeps need thousands of matrix
// evaluations. This model reproduces the same three effects analytically:
//
//  * MOS effect      — per-TSV series oxide+depletion capacitance from the
//                      cylindrical deep-depletion solve (phys/depletion).
//  * pair coupling   — two-cylinder capacitance/conductance through the lossy
//                      substrate, evaluated as a complex admittance chain
//                      C_mos,i -- (G_si || C_si) -- C_mos,j at
//                      phys::admittance_frequency; the effective capacitance
//                      is Im{Y}/omega.
//  * E-field sharing — a direction-sampling partition: rays from each TSV are
//                      assigned to the nearest conductor (projected distance)
//                      or to the substrate ground; a pair's coupling scales
//                      with the angular fraction it owns, normalized so an
//                      isolated pair reproduces the plain two-cylinder value.
//
// Corner TSVs therefore own larger angular windows per neighbour (larger
// per-pair coupling, as in [Bamberg, Integration'18]) while middle TSVs have
// the largest total capacitance.

#include <span>

#include "phys/matrix.hpp"
#include "phys/tsv_geometry.hpp"

namespace tsvcod::tsv {

/// Paper-form capacitance matrix (diagonal = ground, off-diagonal = coupling,
/// units F) for the given per-TSV 1-bit probabilities.
phys::Matrix analytic_capacitance(const phys::TsvArrayGeometry& geom,
                                  std::span<const double> probabilities);

}  // namespace tsvcod::tsv
