#pragma once
// Geometric multigrid V-cycle for the variable-coefficient complex Laplace
// problem on a uniform Grid, used as a preconditioner around BiCGStab
// (see solver.hpp).
//
// The hierarchy coarsens the *cell* grid 2x per level (ceil division, so odd
// sizes are handled). A coarse cell is Dirichlet only if every fine child is
// Dirichlet, so a conductor keeps the coarse cells it fills and grows into no
// other (pinning on any child grew every conductor at every level, which
// spoiled the coarse correction around it and about doubled the BiCGStab
// iterations). A free coarse cell may have pinned children: restriction
// skips them and prolongation leaves them at zero. The grounded outer
// boundary keeps every level nonsingular even when no pinned cell is left.
// Coefficients restrict by averaging the child
// permittivities; coarse face weights are then rebuilt as harmonic means of
// the coarse cell permittivities, exactly the fine-level finite-volume
// discretization (the dimensionless 5-point operator is h-free in 2-D, so no
// extra scaling enters). Residuals restrict by summing over free children
// (the adjoint of piecewise-constant prolongation, which also carries the
// h^2 factor between rediscretized levels).
//
// The cycle is one fixed algorithm: one red-black Gauss-Seidel sweep before
// and one after the coarse correction, coarsening until at most 256 free
// cells remain (24 levels at most), and a dense complex LU solve on the
// coarsest level. With a zero initial guess per level the V-cycle is one
// fixed linear operator, which preconditioned BiCGStab requires.
//
// A V-cycle walks each level twice, row by row. A sweep updates red row
// iy+1 and then black row iy: a colour reads only the other colour, so this
// wavefront performs exactly the arithmetic of "all red cells, then all
// black cells". On the way down, the pre-sweep zeroes each row just before
// its first read, and behind it the residual of each finished row is
// restricted into the coarse right-hand side. On the way up, the post-sweep
// prolongs the coarse correction into each black row just before its first
// read (a red cell's prolonged value would be overwritten unread). Level 0
// works in the caller's vectors. The smoother
// and the residual run through the shared src/simd runtime dispatch:
// AVX2/AVX-512 stencil kernels cover interior rows (relying on x == 0 at
// Dirichlet cells, which the V-cycle maintains), scalar code covers
// boundaries and other hosts; every dispatch level computes the same linear
// operator up to eps-scale rounding.
//
// Thread-safety: `v_cycle` is const and re-entrant given a caller-owned
// Workspace, so the per-conductor extraction solves can run concurrently on
// one shared hierarchy.

#include <cstdint>
#include <vector>

#include "field/grid.hpp"

namespace tsvcod::field {

class Multigrid {
 public:
  /// True when a hierarchy is worth building for a fine grid of `nx` x `ny`
  /// cells with `free_count` non-Dirichlet cells; callers fall back to plain
  /// Jacobi preconditioning otherwise.
  static bool viable(std::size_t nx, std::size_t ny, std::size_t free_count);

  /// Build the hierarchy from the fine level: `dirichlet[i] != 0` marks
  /// pinned cells (conductors; the outer boundary is handled by the operator
  /// itself), `eps` the complex cell permittivities.
  Multigrid(std::size_t nx, std::size_t ny, const std::vector<std::uint8_t>& dirichlet,
            const std::vector<Complex>& eps);

  /// Recompute every level's coefficients (and the coarse factorization) for
  /// new fine-level permittivities. The Dirichlet structure must be the one
  /// the hierarchy was built with — extraction reuse repaints dielectrics
  /// only, never conductors.
  void update_coefficients(const std::vector<Complex>& eps);

  /// Per-solve scratch: a correction and a right-hand side for every level
  /// below the finest, one residual row, and the coarsest level's packed
  /// solve vector. Create one per concurrent solve; reuse across V-cycles.
  struct Workspace {
    std::vector<std::vector<Complex>> x, r;
    std::vector<Complex> row, packed;
  };
  Workspace make_workspace() const;

  /// z ~= A^-1 r for the homogeneous-Dirichlet fine problem: one V-cycle
  /// from a zero initial guess, read from `r` and written into `z` in place.
  /// Both are distinct full-grid (nx*ny) vectors; Dirichlet entries of `r`
  /// are ignored and come back zero (of either sign) in `z`.
  void v_cycle(const std::vector<Complex>& r, std::vector<Complex>& z, Workspace& ws) const;

  /// Apply `sweeps` red-black Gauss-Seidel passes to the finest level, in
  /// place on `x` (full-grid vectors). Dirichlet entries of `x` are zeroed on
  /// entry — the invariant the SIMD stencil kernels rely on, which v_cycle
  /// maintains internally. Exposed for the dispatch-equality tests.
  void apply_smoother(const std::vector<Complex>& rhs, std::vector<Complex>& x, int sweeps) const;
  /// Finest-level residual out = rhs - A x (Dirichlet rows come back zero).
  /// Dirichlet entries of `x` must already be zero.
  void apply_residual(const std::vector<Complex>& rhs, const std::vector<Complex>& x,
                      std::vector<Complex>& out) const;

 private:
  struct Level {
    std::size_t nx = 0, ny = 0;
    std::vector<std::uint8_t> dirichlet;
    std::vector<Complex> eps;      // cell coefficients (source for the next level)
    std::vector<Complex> w_east;   // harmonic-mean face weights
    std::vector<Complex> w_north;
    std::vector<Complex> diag;     // assembled operator diagonal (free cells)
    std::vector<Complex> inv_diag;
    std::size_t free_count = 0;
  };

  void rebuild_level_coefficients(Level& lv);
  void coarsen_eps(const Level& fine, Level& coarse) const;
  void factor_coarsest();
  void solve_coarsest(const Complex* rhs, Complex* x, std::vector<Complex>& packed) const;

  std::vector<Level> levels_;
  // Dense LU (partial pivoting) of the coarsest-level operator over its free
  // cells, row-major n x n; empty when the coarsest level is still too large
  // and is smoothed instead (degenerate geometries only).
  std::vector<Complex> lu_;
  std::vector<int> pivot_;
  std::vector<std::size_t> coarse_free_cells_;   // cell index per unknown
  std::vector<std::int64_t> coarse_free_index_;  // cell -> unknown (-1 = Dirichlet)
};

}  // namespace tsvcod::field
