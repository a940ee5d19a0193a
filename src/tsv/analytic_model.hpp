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
//                      C_mos,i -- (G_si || C_si) -- C_mos,j at the extraction
//                      frequency; the effective capacitance is Im{Y}/omega.
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

struct AnalyticModelParams {
  double frequency = 3e9;      ///< admittance evaluation frequency [Hz]
  double pair_cutoff = 2.2;    ///< include pairs with s <= cutoff * pitch
  double cos_min = 0.05;       ///< ray ownership: min cos(angle) towards a TSV
  /// Ray competition metric: effective distance s / cos(angle)^p. Penalizing
  /// oblique field paths hands diagonal neighbours a realistic angular wedge
  /// instead of starving them entirely, and strengthens the corner/edge/
  /// middle heterogeneity. p = 3 calibrates the corner-to-middle total-
  /// capacitance contrast to ~1.45x, which reproduces the reduction
  /// magnitudes the paper reports; p = 2 gives a flatter array.
  double obliqueness_power = 3.0;
  double ground_distance = 0.0;///< substrate contact distance [m]; 0 = 3 pitches
  int ray_count = 720;         ///< directions sampled per TSV
};

/// Paper-form capacitance matrix (diagonal = ground, off-diagonal = coupling,
/// units F) for the given per-TSV 1-bit probabilities.
phys::Matrix analytic_capacitance(const phys::TsvArrayGeometry& geom,
                                  std::span<const double> probabilities,
                                  const AnalyticModelParams& params = {});

}  // namespace tsvcod::tsv
