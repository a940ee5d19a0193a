#pragma once
// Quasi-electrostatic capacitance extraction for TSV arrays (the repo's
// substitute for the paper's Ansys Q3D runs).
//
// For every TSV, the cross-section is rasterized as: copper core (conductor),
// SiO2 liner, depleted annulus (lossless silicon, width from the cylindrical
// deep-depletion Poisson solve at the signal's average voltage pr*Vdd) and
// the lossy p-substrate with complex permittivity
//     eps*_r = eps_r - j * sigma / (omega * eps0)
// at omega = 2*pi*phys::admittance_frequency. The substrate extends three
// pitches beyond the outermost TSV centres to a grounded boundary.
// One Dirichlet solve per conductor yields the complex charge matrix Q; the
// effective capacitance matrix at that frequency is C = Re{Q}
// (because Y = j*omega*Q = G + j*omega*C). Scaling by the TSV length turns
// the per-unit-length 2-D result into the array's lumped capacitances.
//
// For probability sweeps (model fitting, linearity studies), use
// CapacitanceExtractor: it keeps the rasterized Grid / FieldProblem /
// multigrid hierarchy alive across points — only the depletion annuli are
// repainted — and warm-starts every conductor's solve from the previous
// point's potential, so a sweep costs far less than points x cold
// extractions. Warm starts change iteration counts only; converged
// capacitances stay within solver tolerance of a cold start.
//
// Symmetric arrays: when flips or transposes of the square map the painted
// grid exactly onto itself (every TSV at the same probability, say), only
// the lowest conductor of each orbit is solved; the others' charge columns
// are its mirror images, and Q comes out exactly invariant under those
// symmetries. A grid without symmetry solves every conductor.

#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "field/solver.hpp"
#include "phys/matrix.hpp"
#include "phys/tsv_geometry.hpp"

namespace tsvcod::field {

/// Thrown when one or more per-conductor field solves fail to converge (or
/// break down) and the caller did not opt into partial results: the charge
/// matrix would silently carry garbage capacitances otherwise.
class ConvergenceError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct ExtractionOptions {
  double cell = 0.1e-6;  ///< grid cell edge [m]
  /// Worker threads for the per-conductor solves (one Dirichlet solve per
  /// solved TSV, all independent). 0 = TSVCOD_THREADS env override, else 1.
  /// Results are bit-identical at every thread count.
  int threads = 0;
  /// Accept non-converged solves and return whatever the solver reached
  /// (inspect `CapacitanceResult::stats`). Default: throw ConvergenceError.
  bool allow_nonconverged = false;
  SolverOptions solver{};

  /// Throws std::invalid_argument naming the field: `threads` below 0, a
  /// bad `solver` (SolverOptions::validate), or a `cell` that is not a
  /// finite positive length or so small that the rasterized cross-section
  /// of `geom` would need more cells than a grid can hold. Checked before
  /// any grid is allocated.
  void validate(const phys::TsvArrayGeometry& geom) const;
};

struct CapacitanceResult {
  /// Paper-form matrix: diagonal = ground capacitance C_ii, off-diagonal =
  /// coupling capacitance C_ij >= 0. Units: farads (lumped, length-scaled).
  phys::Matrix paper;
  /// Raw (symmetrized) Maxwell matrix Re{Q}*l for diagnostics.
  phys::Matrix maxwell;
  std::vector<SolveStats> stats;

  bool all_converged() const {
    for (const auto& s : stats)
      if (!s.converged) return false;
    return true;
  }
};

/// Rasterize the array cross-section; `probabilities` holds one 1-bit
/// probability per TSV (sets each depletion width).
Grid build_array_grid(const phys::TsvArrayGeometry& geom, std::span<const double> probabilities,
                      const ExtractionOptions& opts);

/// Full extraction: one field solve per TSV orbit under the grid's
/// symmetries (one per TSV when it has none).
CapacitanceResult extract_capacitance(const phys::TsvArrayGeometry& geom,
                                      std::span<const double> probabilities,
                                      const ExtractionOptions& opts = {});

/// Stateful extractor for repeated extractions of one array at different
/// probability points. The grid dimensions and conductor layout are
/// probability-independent, so the FieldProblem (Dirichlet mask, face
/// weights, multigrid hierarchy) is built once and only its coefficients are
/// refreshed per point; solves warm-start from the previous point.
class CapacitanceExtractor {
 public:
  CapacitanceExtractor(const phys::TsvArrayGeometry& geom, const ExtractionOptions& opts = {});

  // The FieldProblem holds a reference to the owned Grid.
  CapacitanceExtractor(const CapacitanceExtractor&) = delete;
  CapacitanceExtractor& operator=(const CapacitanceExtractor&) = delete;

  /// Extract at one probability point, reusing the cached setup. The first
  /// call equals `extract_capacitance` exactly; later calls warm-start.
  CapacitanceResult extract(std::span<const double> probabilities);

 private:
  void repaint(std::span<const double> probabilities);

  phys::TsvArrayGeometry geom_;
  ExtractionOptions opts_;
  Grid grid_;
  std::unique_ptr<FieldProblem> problem_;
  // Conductor permutations of the grid's symmetries, identity first.
  std::vector<std::vector<std::int32_t>> symmetries_;
  std::vector<double> last_widths_;             // per-TSV depletion widths on the grid
  std::vector<std::vector<Complex>> last_phi_;  // per-conductor warm-start potentials
};

}  // namespace tsvcod::field
