#pragma once
// Matrix-free complex BiCGStab solver for the variable-coefficient Laplace
// problem  div( eps* grad phi ) = 0  on a Grid.
//
// Conductor cells and the outer boundary are Dirichlet nodes; everything else
// is a free unknown. Face permittivities are harmonic means of the two
// adjacent cells, which is the standard conservative finite-volume choice for
// piecewise-constant coefficients.
//
// BiCGStab is preconditioned either by the Jacobi diagonal or (default) by a
// geometric multigrid V-cycle (multigrid.hpp), which keeps the iteration
// count essentially flat as the grid is refined. Grids too small to coarsen
// fall back to Jacobi automatically; `SolveStats::preconditioner` reports
// what actually ran.
//
// BiCGStab runs in grid space: every vector is full-grid, with Dirichlet
// cells held at zero, so the V-cycle reads and writes the Krylov vectors
// directly. The operator is a fixed-offset 5-point stencil whose diagonal is
// assembled once per coefficient set (update_coefficients) and also serves
// the Jacobi scaling; its interior rows run through the shared src/simd
// dispatch. Complex products in the operator and the BiCGStab vector updates
// are written out in real and imaginary parts in the order std::complex
// uses (vector lanes included: a product and a sign-flipped product are
// added, never fused), and each update shares a pass with the reductions
// over its result, which still accumulate in cell order. Dirichlet entries
// contribute only +-0 terms to sums that start at +0. For finite data the
// operator and the Krylov updates are therefore bit-identical, at every
// dispatch level, to the std::complex formulation over the packed free
// unknowns: no operation is reordered, none is contracted to an FMA
// (solver.cpp builds with -ffp-contract=off), and only the NaN-recovery
// call of std::complex multiplication is gone. Only the V-cycle's SIMD
// clones round differently per level.

#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "field/grid.hpp"
#include "field/multigrid.hpp"

namespace tsvcod::field {

enum class Preconditioner : std::uint8_t {
  jacobi,     ///< diagonal scaling (the pre-multigrid behaviour)
  multigrid,  ///< GMG V-cycle, Jacobi fallback on grids too small to coarsen
};

struct SolverOptions {
  double tolerance = 1e-9;  ///< relative (preconditioned) residual target
  int max_iterations = 50000;
  Preconditioner preconditioner = Preconditioner::multigrid;

  /// Throws std::invalid_argument naming the field: `tolerance` must be a
  /// finite number in (0, 1), `max_iterations` at least 1.
  void validate() const;
};

struct SolveStats {
  int iterations = 0;
  double residual = 0.0;  ///< final relative residual
  bool converged = false;
  /// True when the right-hand side was identically zero (e.g. the active
  /// conductor is fully shielded or absent): the exact solution is zero, no
  /// iterations run, and `converged` is asserted with `residual == 0`.
  bool trivial = false;
  /// The preconditioner that actually ran (multigrid requests report jacobi
  /// here when the grid was too small to coarsen).
  Preconditioner preconditioner = Preconditioner::jacobi;
  /// Extraction only: the conductor whose solve was mirrored onto this one
  /// by a symmetry of the painted grid, or -1 when this conductor was
  /// solved. A mirrored entry carries its source's fields but
  /// `iterations == 0`, so sums over the stats count only work done.
  std::int32_t image_of = -1;
};

class FieldProblem {
 public:
  explicit FieldProblem(const Grid& grid);

  /// Solve with conductor `active` held at 1 V, every other conductor and the
  /// outer boundary at 0 V. Returns the full-grid potential (Dirichlet cells
  /// included) and fills `stats`.
  std::vector<Complex> solve(std::int32_t active, const SolverOptions& opts,
                             SolveStats* stats = nullptr) const;

  /// Warm-started solve: `phi0` is a full-grid potential from a previous,
  /// nearby solve (same grid dimensions and conductor layout; typically the
  /// previous point of a probability sweep). Empty `phi0` = cold start.
  /// Warm starts change the iteration count, never the converged answer
  /// beyond the solver tolerance.
  std::vector<Complex> solve(std::int32_t active, const SolverOptions& opts,
                             std::span<const Complex> phi0, SolveStats* stats) const;

  /// Complex charge per unit length [F/m * V-normalized] on each conductor
  /// for a given full-grid potential. Multiply by eps0 (done here) so the
  /// result is directly in farads per metre.
  std::vector<Complex> conductor_charges(const std::vector<Complex>& phi) const;

  /// y = A x on full-grid vectors: the 5-point variable-coefficient operator
  /// over the free cells, with Dirichlet couplings folded into the
  /// right-hand side. `x` must be zero at Dirichlet cells; those rows of `y`
  /// come back +0. The operator BiCGStab iterates on; reference solvers
  /// (dense LU in the differential harness) assemble it column by column.
  void apply(const std::vector<Complex>& x, std::vector<Complex>& y) const;

  /// Full-grid right-hand side of A x = b with conductor `active` at 1 V and
  /// all other Dirichlet nodes at 0 V (+0 at Dirichlet cells).
  std::vector<Complex> rhs(std::int32_t active) const;

  /// Re-derive the face weights (and any built multigrid hierarchy) after
  /// the referenced Grid's permittivities changed in place. The conductor
  /// layout must be unchanged — extraction reuse repaints dielectrics only.
  void update_coefficients();

  /// Number of free (non-Dirichlet) cells: the size of the linear system.
  std::size_t unknowns() const { return free_count_; }

 private:
  /// The hierarchy for multigrid solves, built on first use and shared by
  /// concurrent per-conductor solves. Returns nullptr when the grid is not
  /// viable.
  const Multigrid* multigrid() const;

  const Grid& grid_;
  std::vector<std::uint8_t> dirichlet_;  // 1 at conductor cells
  std::size_t free_count_ = 0;
  // Face weights (relative permittivity harmonic means), east and north per cell.
  std::vector<Complex> w_east_;
  std::vector<Complex> w_north_;
  // Operator diagonal per cell, 0 at Dirichlet cells (also the Jacobi
  // preconditioner).
  std::vector<Complex> diag_;
  mutable std::mutex mg_mutex_;
  mutable std::unique_ptr<Multigrid> mg_;
  mutable bool mg_attempted_ = false;
};

}  // namespace tsvcod::field
