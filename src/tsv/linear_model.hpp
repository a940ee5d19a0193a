#pragma once
// Linear capacitance-vs-bit-probability model (paper Eq. 6/7).
//
// The exact probability -> capacitance relation (through the depletion-width
// Poisson solve and the field problem) is too expensive and too opaque for
// assignment optimization. The paper instead fits
//     C_ij = C_R,ij + DeltaC_ij * (eps_i + eps_j),   eps_i = E{b_i} - 1/2
// which keeps inversions representable as a sign flip of eps_i. The fit uses
// the two extreme extractions (all probabilities 0 / all 1):
//     DeltaC = (C(1) - C(0)) / 2,  C_R = (C(1) + C(0)) / 2.
// The paper reports a normalized RMS error below 2 % for this model; the
// tests measure the same figure against the analytic backend.

#include <functional>
#include <span>

#include "field/extractor.hpp"
#include "phys/matrix.hpp"
#include "phys/tsv_geometry.hpp"
#include "tsv/analytic_model.hpp"

namespace tsvcod::tsv {

/// A capacitance extractor: probabilities (one per TSV) -> paper-form matrix.
using CapacitanceBackend = std::function<phys::Matrix(std::span<const double>)>;

class LinearCapacitanceModel {
 public:
  LinearCapacitanceModel() = default;
  LinearCapacitanceModel(phys::Matrix c_ref, phys::Matrix delta_c);

  std::size_t size() const { return c_ref_.rows(); }

  /// C_R: capacitances at all bit probabilities = 1/2.
  const phys::Matrix& c_ref() const { return c_ref_; }
  /// DeltaC: sensitivity to eps_i + eps_j (negative for TSVs: the MOS
  /// depletion widens with probability and shrinks the capacitance).
  const phys::Matrix& delta_c() const { return delta_c_; }

  /// Evaluate for shifted probabilities eps_i = pr_i - 1/2 (signed: an
  /// inverted line simply negates its entry).
  phys::Matrix evaluate_eps(std::span<const double> eps) const;

 private:
  phys::Matrix c_ref_;
  phys::Matrix delta_c_;
};

/// Fit from any backend with two extractions (all-0 / all-1 probabilities).
LinearCapacitanceModel fit_linear_model(const CapacitanceBackend& backend, std::size_t n);

/// Fit using the fast analytic model.
LinearCapacitanceModel fit_from_analytic(const phys::TsvArrayGeometry& geom);

/// Aggregate per-conductor solver statistics of a field-backend fit, so
/// callers can report convergence behaviour instead of discarding it.
struct FieldFitStats {
  std::size_t solves = 0;        ///< field solves run across both fit points
  std::size_t mirrored = 0;      ///< conductors filled in by symmetry instead
  long long iterations = 0;      ///< total BiCGStab iterations
  std::size_t trivial = 0;       ///< zero-rhs (shielded-conductor) solves
  std::size_t nonconverged = 0;  ///< solves that missed the tolerance
  /// Preconditioner that actually ran (multigrid requests report jacobi when
  /// the grid was too small to coarsen); from the first non-trivial solve.
  field::Preconditioner preconditioner = field::Preconditioner::multigrid;
};

/// Fit using the finite-difference field extractor (slow; golden reference).
/// `stats`, if given, receives the aggregated solver statistics.
LinearCapacitanceModel fit_from_field(const phys::TsvArrayGeometry& geom,
                                      const field::ExtractionOptions& opts = {},
                                      FieldFitStats* stats = nullptr);

}  // namespace tsvcod::tsv
