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
// The operator diagonal is assembled once per coefficient set
// (update_coefficients) and serves both `apply` and the Jacobi scaling;
// `apply` walks the grid row by row, so it needs no per-unknown index
// division. Complex products in `apply` and the BiCGStab vector updates are
// written out in real and imaginary parts in the order std::complex uses,
// and each update shares a pass with the reductions over its result, which
// still accumulate in index order. Results are therefore bit-identical to
// the std::complex formulation for finite data: no operation is reordered,
// none is contracted to an FMA (this file builds for baseline x86-64, which
// has none), and only the NaN-recovery call of std::complex multiplication
// is gone.

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

  /// y = A x over the free unknowns (packed, see `unknowns()`): the 5-point
  /// variable-coefficient operator with Dirichlet couplings folded into the
  /// right-hand side. Public for golden tests and diagnostics.
  void apply(const std::vector<Complex>& x, std::vector<Complex>& y) const;

  /// Right-hand side of A x = b with conductor `active` at 1 V and all other
  /// Dirichlet nodes at 0 V (packed over the free unknowns). Together with
  /// apply() this lets a reference solver (e.g. dense LU in the differential
  /// harness) reproduce exactly the system the iterative solve sees.
  std::vector<Complex> rhs(std::int32_t active) const;

  /// Re-derive the face weights (and any built multigrid hierarchy) after
  /// the referenced Grid's permittivities changed in place. The conductor
  /// layout must be unchanged — extraction reuse repaints dielectrics only.
  void update_coefficients();

  std::size_t unknowns() const { return free_index_.size() - dirichlet_count_; }

  /// Cell index of each packed unknown (the inverse of the packing used by
  /// apply()/rhs()); lets external reference solvers compare a packed solution
  /// against the full-grid potential returned by solve().
  const std::vector<std::size_t>& free_cells() const { return free_cells_; }

 private:
  /// The hierarchy for multigrid solves, built on first use and shared by
  /// concurrent per-conductor solves. Returns nullptr when the grid is not
  /// viable.
  const Multigrid* multigrid() const;

  const Grid& grid_;
  // For each cell: index into the unknown vector, or -1 for Dirichlet cells.
  std::vector<std::int64_t> free_index_;
  std::vector<std::size_t> free_cells_;  // cell index of each unknown
  std::size_t dirichlet_count_ = 0;
  // Face weights (relative permittivity harmonic means), east and north per cell.
  std::vector<Complex> w_east_;
  std::vector<Complex> w_north_;
  // Operator diagonal per unknown (also the Jacobi preconditioner).
  std::vector<Complex> diag_;
  mutable std::mutex mg_mutex_;
  mutable std::unique_ptr<Multigrid> mg_;
  mutable bool mg_attempted_ = false;
};

}  // namespace tsvcod::field
