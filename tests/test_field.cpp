// Unit tests for the finite-difference field extractor: grid rasterization,
// solver convergence, closed-form validation and Maxwell-matrix structure.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "field/export.hpp"
#include "field/extractor.hpp"
#include "field/grid.hpp"
#include "field/multigrid.hpp"
#include "field/solver.hpp"
#include "phys/constants.hpp"
#include "reference.hpp"
#include "simd/dispatch.hpp"
#include "tsv/linear_model.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <cpuid.h>
#endif

namespace {

using namespace tsvcod;
using namespace tsvcod::reference::literals;
using field::Complex;
using field::Grid;

bool same_bits(Complex a, Complex b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// XINUSE (XGETBV with ECX = 1), when the host reports it: bit 2 marks the
// upper YMM halves in use, bit 6 the upper ZMM halves.
std::optional<std::uint64_t> xinuse() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx) || !(ecx & bit_OSXSAVE)) return std::nullopt;
  if (!__get_cpuid_count(0xd, 1, &eax, &ebx, &ecx, &edx) || !(eax & 4)) return std::nullopt;
  std::uint32_t lo = 0, hi = 0;
  __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(1));
  return (std::uint64_t{hi} << 32) | lo;
#else
  return std::nullopt;
#endif
}

std::vector<Complex> random_complex(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<Complex> v(n);
  for (auto& c : v) c = Complex{u(rng), u(rng)};
  return v;
}

// Throws std::invalid_argument whose message contains `field`.
template <typename Call>
void expect_names(const std::string& field, Call&& call) {
  try {
    call();
    ADD_FAILURE() << "accepted; expected an error naming " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
  }
}

TEST(Grid, ConstructionAndIndexing) {
  Grid g(10_um, 5_um, 0.5_um);
  EXPECT_EQ(g.nx(), 20u);
  EXPECT_EQ(g.ny(), 10u);
  EXPECT_EQ(g.size(), 200u);
  EXPECT_DOUBLE_EQ(g.x_of(0), 0.25_um);
  EXPECT_THROW(Grid(1_um, 1_um, 0.5_um), std::invalid_argument);  // too few cells
  EXPECT_THROW(Grid(-1.0, 1.0, 0.1), std::invalid_argument);
}

TEST(Grid, PaintDiskAndAnnulus) {
  Grid g(10_um, 10_um, 0.1_um);
  g.fill(Complex{11.9, -50.0});
  g.paint_annulus(5_um, 5_um, 1_um, 1.2_um, Complex{3.9, 0.0});
  g.paint_disk(5_um, 5_um, 1_um, Complex{3.9, 0.0});
  g.paint_disk(5_um, 5_um, 1_um, Complex{3.9, 0.0}, 0);
  EXPECT_EQ(g.conductor_count(), 1);

  // Center cell is conductor 0; a cell inside the annulus is oxide; a far
  // cell is substrate.
  const auto center = g.index(50, 50);
  EXPECT_EQ(g.conductor(center), 0);
  const auto ring = g.index(50 + 11, 50);  // ~1.1 um to the east
  EXPECT_EQ(g.conductor(ring), field::kNoConductor);
  EXPECT_NEAR(g.eps(ring).real(), 3.9, 1e-12);
  const auto far = g.index(5, 5);
  EXPECT_NEAR(g.eps(far).imag(), -50.0, 1e-12);
}

// A centred conductor disk inside a grounded box behaves like a coaxial
// capacitor with an effective outer radius; the FD charge must be within a
// few percent of the closed form with the standard square-to-circle radius.
TEST(Solver, CoaxialClosedForm) {
  const double half = 8_um;
  Grid g(2 * half, 2 * half, 0.1_um);
  g.fill(Complex{1.0, 0.0});
  g.paint_disk(half, half, 1_um, Complex{1.0, 0.0}, 0);

  field::FieldProblem problem(g);
  field::SolverOptions opts;
  field::SolveStats stats;
  const auto phi = problem.solve(0, opts, &stats);
  EXPECT_TRUE(stats.converged);
  const auto q = problem.conductor_charges(phi);

  // Effective grounded-boundary radius of a square box ~ 1.08 * half-width
  // (standard conformal-mapping result for square coax).
  const double r_eff = 1.08 * half;
  const double expected = 2.0 * phys::pi * phys::eps0 / std::log(r_eff / 1_um);
  EXPECT_NEAR(q[0].real() / expected, 1.0, 0.08);
  EXPECT_NEAR(q[0].imag(), 0.0, 1e-12 * std::abs(q[0].real()));
}

// Two cylinders in a uniform lossless dielectric: coupling must approach the
// two-wire closed form C' = pi*eps/acosh(s/2a) when the box is large.
TEST(Solver, TwoCylinderClosedForm) {
  const double a = 1_um;
  const double s = 4_um;
  const double half = 14_um;
  Grid g(2 * half + s, 2 * half, 0.1_um);
  g.fill(Complex{1.0, 0.0});
  g.paint_disk(half, half, a, Complex{1.0, 0.0}, 0);
  g.paint_disk(half + s, half, a, Complex{1.0, 0.0}, 1);

  field::FieldProblem problem(g);
  field::SolverOptions opts;
  field::SolveStats stats;
  const auto phi = problem.solve(0, opts, &stats);
  ASSERT_TRUE(stats.converged);
  const auto q = problem.conductor_charges(phi);

  const double coupling = -q[1].real();  // off-diagonal Maxwell entry, negated
  const double expected = phys::pi * phys::eps0 / std::acosh(s / (2.0 * a));
  // The grounded box steals a substantial share of the field (the closed form
  // assumes an unbounded medium), so the FD coupling lands below the formula
  // but must stay in the same regime.
  EXPECT_GT(coupling / expected, 0.55);
  EXPECT_LT(coupling / expected, 1.05);
}

TEST(Extractor, MaxwellStructureSmallArray) {
  auto geom = phys::TsvArrayGeometry::itrs2018_min(2, 2);
  const std::vector<double> pr(geom.count(), 0.5);
  field::ExtractionOptions opts;
  opts.cell = 0.2_um;  // coarse but fast
  const auto res = field::extract_capacitance(geom, pr, opts);
  ASSERT_TRUE(res.all_converged());

  const auto& m = res.maxwell;
  const auto& c = res.paper;
  const std::size_t n = geom.count();
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_GT(m(i, i), 0.0);
    double row = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      row += m(i, j);
      EXPECT_NEAR(m(i, j), m(j, i), 1e-18);
      if (i != j) {
        EXPECT_LT(m(i, j), 0.0) << "Maxwell off-diagonals are negative";
        EXPECT_GT(c(i, j), 0.0) << "paper-form couplings are positive";
      }
    }
    EXPECT_GE(row, -1e-18) << "ground capacitance cannot be negative";
    EXPECT_NEAR(c(i, i), row, 1e-18);
  }
  // 2x2 symmetry: all four TSVs are corners, couplings along the two axes equal.
  EXPECT_NEAR(c(0, 1) / c(0, 2), 1.0, 0.05);
  // Diagonal pair couples less than a direct pair.
  EXPECT_LT(c(0, 3), c(0, 1));
}

TEST(Extractor, MosEffectReducesCapacitance) {
  auto geom = phys::TsvArrayGeometry::itrs2018_min(1, 2);
  field::ExtractionOptions opts;
  opts.cell = 0.15_um;
  const std::vector<double> pr0(2, 0.0);
  const std::vector<double> pr1(2, 1.0);
  const auto c0 = field::extract_capacitance(geom, pr0, opts);
  const auto c1 = field::extract_capacitance(geom, pr1, opts);
  ASSERT_TRUE(c0.all_converged());
  ASSERT_TRUE(c1.all_converged());
  EXPECT_LT(c1.paper(0, 1), c0.paper(0, 1));
  const double reduction = 1.0 - c1.paper(0, 1) / c0.paper(0, 1);
  // Paper: the MOS effect gives up to ~40 % lower capacitance values.
  EXPECT_GT(reduction, 0.10);
  EXPECT_LT(reduction, 0.60);
}

TEST(Extractor, RejectsBadProbabilityVector) {
  auto geom = phys::TsvArrayGeometry::itrs2018_min(2, 2);
  const std::vector<double> pr(3, 0.5);
  EXPECT_THROW(field::extract_capacitance(geom, pr, {}), std::invalid_argument);
}

// A bad cell size fails naming `cell` on every entry point, before a grid is
// allocated. A 1e-15 m cell needs ~1e20 cells: the size_t product wraps, and
// the unchecked grid used to die in std::vector instead.
TEST(Extractor, RejectsBadCellNamingTheField) {
  const auto geom = phys::TsvArrayGeometry::itrs2018_min(3, 3);
  const std::vector<double> pr(geom.count(), 0.5);
  for (const double cell : {0.0, -1e-6, std::nan(""), HUGE_VAL, 1e-15}) {
    field::ExtractionOptions opts;
    opts.cell = cell;
    const auto names_cell = [&](auto&& call) {
      try {
        call();
        ADD_FAILURE() << "cell " << cell << " accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("ExtractionOptions: cell"), std::string::npos)
            << e.what();
      }
    };
    names_cell([&] { opts.validate(geom); });
    names_cell([&] { field::build_array_grid(geom, pr, opts); });
    names_cell([&] { field::CapacitanceExtractor extractor(geom, opts); });
    names_cell([&] { field::extract_capacitance(geom, pr, opts); });
  }
  field::ExtractionOptions fine;
  fine.cell = 0.5_um;
  EXPECT_NO_THROW(fine.validate(geom));
}

// Regression for the BiCGStab breakdown path: an unreachable tolerance runs
// the solver into its guards (rho, r0.v and t.t near zero) and the iteration
// cap. The potentials must come back finite — never NaN-tainted — with the
// failure visible in the stats.
TEST(Solver, BreakdownAndNonConvergenceStayFinite) {
  Grid g(8_um, 8_um, 0.25_um);
  g.fill(Complex{1.0, 0.0});
  g.paint_disk(4_um, 4_um, 1_um, Complex{1.0, 0.0}, 0);
  field::FieldProblem problem(g);

  field::SolverOptions opts;
  opts.tolerance = 1e-300;  // unattainable: force breakdown or the iteration cap
  opts.max_iterations = 200;
  field::SolveStats stats;
  const auto phi = problem.solve(0, opts, &stats);
  EXPECT_FALSE(stats.converged);
  for (const auto& c : phi) {
    ASSERT_TRUE(std::isfinite(c.real()) && std::isfinite(c.imag()));
  }
  const auto q = problem.conductor_charges(phi);
  ASSERT_TRUE(std::isfinite(q[0].real()) && std::isfinite(q[0].imag()));
}

// An all-grounded (fully shielded) conductor has a zero right-hand side: the
// exact potential is zero everywhere outside it. The solver must report that
// honestly — converged, zero residual, zero iterations, trivial marker set.
TEST(Solver, ShieldedConductorSolvesTrivially) {
  Grid g(8_um, 8_um, 0.25_um);
  g.fill(Complex{1.0, 0.0});
  g.paint_disk(4_um, 4_um, 2_um, Complex{1.0, 0.0}, 0);  // grounded shield ring
  g.paint_disk(4_um, 4_um, 1_um, Complex{1.0, 0.0}, 1);  // fully enclosed core
  field::FieldProblem problem(g);
  field::SolveStats stats;
  const auto phi = problem.solve(1, {}, &stats);
  EXPECT_TRUE(stats.trivial);
  EXPECT_TRUE(stats.converged);
  EXPECT_EQ(stats.iterations, 0);
  EXPECT_DOUBLE_EQ(stats.residual, 0.0);
  for (std::size_t i = 0; i < g.size(); ++i) {
    const double expected = g.conductor(i) == 1 ? 1.0 : 0.0;
    ASSERT_DOUBLE_EQ(phi[i].real(), expected);
    ASSERT_DOUBLE_EQ(phi[i].imag(), 0.0);
  }
  // A non-trivial solve of the same problem must not set the marker.
  field::SolveStats outer;
  problem.solve(0, {}, &outer);
  EXPECT_FALSE(outer.trivial);
  EXPECT_TRUE(outer.converged);
  EXPECT_GT(outer.iterations, 0);
}

// Grids too small to coarsen must silently fall back to Jacobi and report it.
TEST(Solver, MultigridFallsBackToJacobiOnTinyGrids) {
  Grid g(2_um, 2_um, 0.25_um);  // 8x8 cells: below the coarsening threshold
  g.fill(Complex{1.0, 0.0});
  g.paint_disk(1_um, 1_um, 0.5_um, Complex{1.0, 0.0}, 0);
  field::FieldProblem problem(g);
  field::SolverOptions opts;
  opts.preconditioner = field::Preconditioner::multigrid;
  field::SolveStats stats;
  problem.solve(0, opts, &stats);
  EXPECT_TRUE(stats.converged);
  EXPECT_EQ(stats.preconditioner, field::Preconditioner::jacobi);
}

// Golden agreement on a small lossy TSV-like grid: the multigrid- and
// Jacobi-preconditioned solves and a dense LU reference must produce the
// same potentials to well within the solver tolerance headroom. The 24x24
// grid has 544 free cells, above the 256 at which coarsening stops, so the
// multigrid solve runs a real hierarchy (iteration count pinned at the
// scalar level).
TEST(Solver, MultigridMatchesJacobiAndDense) {
  simd::ScopedLevel scalar(simd::Level::scalar);
  Grid g(6_um, 6_um, 0.25_um);  // 24x24
  g.fill(Complex{11.9, -59.9});
  g.paint_annulus(3_um, 3_um, 0.75_um, 1_um, Complex{3.9, 0.0});
  g.paint_disk(3_um, 3_um, 0.75_um, Complex{3.9, 0.0});
  g.paint_disk(3_um, 3_um, 0.75_um, Complex{3.9, 0.0}, 0);
  field::FieldProblem problem(g);

  field::SolverOptions jac;
  jac.preconditioner = field::Preconditioner::jacobi;
  field::SolverOptions mgo;
  mgo.preconditioner = field::Preconditioner::multigrid;
  field::SolveStats sj, sm;
  const auto phi_j = problem.solve(0, jac, &sj);
  const auto phi_m = problem.solve(0, mgo, &sm);
  ASSERT_TRUE(sj.converged);
  ASSERT_TRUE(sm.converged);
  EXPECT_EQ(problem.unknowns(), 544u);
  EXPECT_EQ(sm.preconditioner, field::Preconditioner::multigrid);
  EXPECT_EQ(sm.iterations, 5);

  // Dense reference: assemble A column by column through the public grid
  // operator, restricted to the free cells, and solve with partial-pivoting
  // Gaussian elimination.
  const std::size_t nu = problem.unknowns();
  std::vector<std::size_t> cells;
  for (std::size_t i = 0; i < g.size(); ++i) {
    if (g.conductor(i) == field::kNoConductor) cells.push_back(i);
  }
  ASSERT_EQ(cells.size(), nu);
  std::vector<std::vector<Complex>> a(nu, std::vector<Complex>(nu));
  std::vector<Complex> e(g.size()), col(g.size());
  for (std::size_t c = 0; c < nu; ++c) {
    std::fill(e.begin(), e.end(), Complex{});
    e[cells[c]] = Complex{1.0, 0.0};
    problem.apply(e, col);
    for (std::size_t r = 0; r < nu; ++r) a[r][c] = col[cells[r]];
  }
  // Right-hand side b = A x for the converged Jacobi potential is not
  // available directly; recover it from the full solve: b = A * phi_free.
  std::vector<Complex> x_j(g.size()), ax(g.size());
  for (const std::size_t i : cells) x_j[i] = phi_j[i];
  problem.apply(x_j, ax);
  std::vector<Complex> b(nu);
  for (std::size_t k = 0; k < nu; ++k) b[k] = ax[cells[k]];
  for (std::size_t k = 0; k < nu; ++k) {
    std::size_t piv = k;
    for (std::size_t r = k + 1; r < nu; ++r) {
      if (std::abs(a[r][k]) > std::abs(a[piv][k])) piv = r;
    }
    std::swap(a[k], a[piv]);
    std::swap(b[k], b[piv]);
    for (std::size_t r = k + 1; r < nu; ++r) {
      const Complex m = a[r][k] / a[k][k];
      for (std::size_t c = k; c < nu; ++c) a[r][c] -= m * a[k][c];
      b[r] -= m * b[k];
    }
  }
  std::vector<Complex> x_d(nu);
  for (std::size_t k = nu; k-- > 0;) {
    Complex acc = b[k];
    for (std::size_t c = k + 1; c < nu; ++c) acc -= a[k][c] * x_d[c];
    x_d[k] = acc / a[k][k];
  }
  // b was built from the Jacobi iterate, so x_d == x_j up to dense round-off;
  // the real check is multigrid against that dense/Jacobi solution.
  std::size_t u = 0;
  for (std::size_t i = 0; i < g.size(); ++i) {
    if (g.conductor(i) != field::kNoConductor) continue;
    EXPECT_NEAR(phi_m[i].real(), x_d[u].real(), 2e-7);
    EXPECT_NEAR(phi_m[i].imag(), x_d[u].imag(), 2e-7);
    EXPECT_NEAR(phi_j[i].real(), x_d[u].real(), 2e-7);
    EXPECT_NEAR(phi_j[i].imag(), x_d[u].imag(), 2e-7);
    ++u;
  }
}

// The grid operator, gathered over the free cells, is the packed operator it
// replaced, bit for bit, at every dispatch level the host supports; its
// Dirichlet rows are +0. Grids: the flow-field cross-section, and an odd
// 37x29 grid whose conductors touch the west and north boundaries.
TEST(Solver, GridOperatorMatchesPackedReference) {
  const auto geom = phys::TsvArrayGeometry::itrs2018_relaxed(4, 4);
  field::ExtractionOptions fo;
  fo.cell = 0.5_um;
  const Grid flow = field::build_array_grid(geom, std::vector<double>(geom.count(), 0.5), fo);
  Grid edge(9.25_um, 7.25_um, 0.25_um);
  edge.fill(Complex{11.9, -59.9});
  edge.paint_disk(4_um, 3_um, 1.5_um, Complex{3.9, 0.0});
  edge.paint_disk(0.5_um, 3_um, 1_um, Complex{3.9, 0.0}, 0);
  edge.paint_disk(6_um, 7_um, 1_um, Complex{3.9, 0.0}, 1);
  ASSERT_EQ(edge.nx() % 2, 1u);
  ASSERT_EQ(edge.ny() % 2, 1u);

  const Grid* grids[] = {&flow, &edge};
  for (const Grid* g : grids) {
    const field::FieldProblem problem(*g);
    const reference::PackedFieldOperator packed(*g);
    const auto& cells = packed.free_cells();
    ASSERT_EQ(cells.size(), problem.unknowns());
    const std::vector<Complex> xu = random_complex(cells.size(), 7);
    std::vector<Complex> want(cells.size());
    packed.apply(xu, want);
    std::vector<Complex> x(g->size(), Complex{});
    for (std::size_t k = 0; k < cells.size(); ++k) x[cells[k]] = xu[k];

    for (const auto level : {simd::Level::scalar, simd::Level::avx2, simd::Level::avx512}) {
      if (level > simd::detected_level()) continue;
      simd::ScopedLevel guard(level);
      std::vector<Complex> y(g->size(), Complex{std::nan(""), std::nan("")});
      problem.apply(x, y);
      std::size_t mismatches = 0;
      for (std::size_t k = 0; k < cells.size(); ++k) {
        if (!same_bits(y[cells[k]], want[k])) ++mismatches;
      }
      for (std::size_t i = 0; i < g->size(); ++i) {
        if (g->conductor(i) != field::kNoConductor && !same_bits(y[i], Complex{})) ++mismatches;
      }
      EXPECT_EQ(mismatches, 0u) << g->nx() << "x" << g->ny() << " at "
                                << simd::level_name(level);
    }
  }
}

// A Jacobi-preconditioned solve is the grid operator plus the BiCGStab
// updates, and both round exactly like their scalar forms at every dispatch
// level (the AVX-512 updates vectorize only the products; every sum still
// adds one cell at a time). So the whole solve, warm start included, is
// bit-identical across levels. 33x25 cells: vector tails at every width.
TEST(Solver, JacobiSolveIsBitIdenticalAcrossLevels) {
  Grid g(8.25_um, 6.25_um, 0.25_um);
  g.fill(Complex{11.9, -59.9});
  g.paint_annulus(3_um, 3_um, 1_um, 1.25_um, Complex{3.9, 0.0});
  g.paint_disk(3_um, 3_um, 1_um, Complex{3.9, 0.0}, 0);
  g.paint_disk(6_um, 3.5_um, 0.75_um, Complex{3.9, 0.0}, 1);
  const field::FieldProblem problem(g);
  field::SolverOptions opts;
  opts.preconditioner = field::Preconditioner::jacobi;

  const auto run = [&](simd::Level level) {
    simd::ScopedLevel guard(level);
    field::SolveStats cold_stats, warm_stats;
    std::vector<Complex> phi = problem.solve(0, opts, &cold_stats);
    const std::vector<Complex> seed = problem.solve(1, opts, nullptr);
    const std::vector<Complex> warm = problem.solve(0, opts, seed, &warm_stats);
    EXPECT_TRUE(cold_stats.converged && warm_stats.converged);
    phi.insert(phi.end(), warm.begin(), warm.end());
    return std::make_pair(phi, cold_stats.iterations + warm_stats.iterations);
  };
  const auto [want, want_iterations] = run(simd::Level::scalar);
  for (const auto level : {simd::Level::avx2, simd::Level::avx512}) {
    if (level > simd::detected_level()) continue;
    const auto [got, iterations] = run(level);
    EXPECT_EQ(iterations, want_iterations) << simd::level_name(level);
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < got.size(); ++i) mismatches += !same_bits(got[i], want[i]);
    EXPECT_EQ(mismatches, 0u) << simd::level_name(level);
  }
}

// A solve hands back clean upper vector state at every level: dirty upper
// halves slow every later SSE instruction of the process, and GCC emits no
// vzeroupper before a vector clone's tail call into a scalar form.
TEST(Solver, SolveLeavesUpperVectorStateClean) {
  if (!xinuse()) GTEST_SKIP() << "XGETBV with ECX = 1 not available";
  Grid g(8.25_um, 6.25_um, 0.25_um);
  g.fill(Complex{11.9, -59.9});
  g.paint_disk(3_um, 3_um, 1_um, Complex{3.9, 0.0}, 0);
  const field::FieldProblem problem(g);
  for (const auto pc : {field::Preconditioner::jacobi, field::Preconditioner::multigrid}) {
    for (const auto level : {simd::Level::avx2, simd::Level::avx512}) {
      if (level > simd::detected_level()) continue;
      simd::ScopedLevel guard(level);
      field::SolverOptions opts;
      opts.preconditioner = pc;
      const std::vector<Complex> phi = problem.solve(0, opts, nullptr);
      const std::uint64_t state = *xinuse();
      EXPECT_EQ(state & 0x44u, 0u) << simd::level_name(level) << " XINUSE " << std::hex << state;
      EXPECT_EQ(phi.size(), g.size());
    }
  }
}

// One red-black sweep as one pass (red row iy+1, then black row iy) and the
// copy-free V-cycle built on it are, at the scalar level, bit for bit the
// two-colour sweep and the V-cycle it replaced: even and odd nx and ny,
// conductors touching the boundary, and 9-row grids, where the pass ends on
// the red update of row 8 before the last black row. The thin cases add a
// one-cell wire and a one-cell dot, pinned features narrower than a coarse
// cell: every coarse cell over them stays free and restricts, prolongs and
// smooths with some children pinned.
TEST(Multigrid, OnePassSweepAndVCycleMatchTwoColourReference) {
  simd::ScopedLevel scalar(simd::Level::scalar);
  struct Case {
    std::size_t nx, ny;
    bool thin;
  };
  const Case cases[] = {{40, 32, false}, {37, 29, false}, {33, 9, false}, {9, 40, false},
                        {24, 9, false},  {40, 32, true},  {37, 29, true}};
  for (const auto& [nx, ny, thin] : cases) {
    std::vector<std::uint8_t> dir(nx * ny, 0);
    const double cx = nx / 2.0, cy = ny / 2.0, r = std::min(nx, ny) / 5.0;
    for (std::size_t iy = 0; iy < ny; ++iy) {
      for (std::size_t ix = 0; ix < nx; ++ix) {
        const double dx = ix + 0.5 - cx, dy = iy + 0.5 - cy;
        const double ex = ix + 0.5, ey = iy + 0.5 - cy;  // blob on the west edge
        if (dx * dx + dy * dy < r * r || ex * ex + ey * ey < 2.0) dir[iy * nx + ix] = 1;
      }
    }
    if (thin) {
      for (std::size_t ix = 3; ix + 4 < nx; ++ix) dir[5 * nx + ix] = 1;  // wire on row 5
      dir[(ny - 6) * nx + 7] = 1;                                        // dot
    }
    std::vector<Complex> eps = random_complex(nx * ny, 11);
    for (auto& e : eps) e = Complex{6.5 + 5.0 * e.real(), -0.5 + 0.4 * e.imag()};
    const std::vector<Complex> rhs = random_complex(nx * ny, 13);

    const field::Multigrid mg(nx, ny, dir, eps);
    const reference::TwoColourMultigrid ref(nx, ny, dir, eps);

    std::vector<Complex> got = random_complex(nx * ny, 17);
    std::vector<Complex> want = got;
    mg.apply_smoother(rhs, got, 2);
    ref.smooth(rhs, want, 2);
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < got.size(); ++i) mismatches += !same_bits(got[i], want[i]);
    const std::string where = std::to_string(nx) + "x" + std::to_string(ny) + (thin ? " thin" : "");
    EXPECT_EQ(mismatches, 0u) << "smoother " << where;

    auto ws = mg.make_workspace();
    std::vector<Complex> z(nx * ny, Complex{std::nan(""), 0.0});
    mg.v_cycle(rhs, z, ws);
    const std::vector<Complex> zr = ref.v_cycle(rhs);
    mismatches = 0;
    for (std::size_t i = 0; i < z.size(); ++i) mismatches += !same_bits(z[i], zr[i]);
    EXPECT_EQ(mismatches, 0u) << "V-cycle " << where << " (" << ref.depth() << " levels)";
  }
}

// Bad solver options fail before any iteration, naming the field, both from
// the solve itself and from a field fit (which validates up front).
TEST(Solver, RejectsBadToleranceNamingTheField) {
  Grid g(4_um, 4_um, 0.25_um);
  g.paint_disk(2_um, 2_um, 0.75_um, Complex{1.0, 0.0}, 0);
  const field::FieldProblem problem(g);
  const auto geom = phys::TsvArrayGeometry::itrs2018_min(2, 2);
  for (const double tol : {std::nan(""), 0.0, -1.0, 1.0, HUGE_VAL}) {
    field::SolverOptions opts;
    opts.tolerance = tol;
    expect_names("SolverOptions: tolerance", [&] { problem.solve(0, opts, nullptr); });
    field::ExtractionOptions fo;
    fo.cell = 1_um;
    fo.solver = opts;
    expect_names("SolverOptions: tolerance", [&] { tsv::fit_from_field(geom, fo); });
  }
}

TEST(Solver, RejectsBadMaxIterationsNamingTheField) {
  Grid g(4_um, 4_um, 0.25_um);
  g.paint_disk(2_um, 2_um, 0.75_um, Complex{1.0, 0.0}, 0);
  const field::FieldProblem problem(g);
  const auto geom = phys::TsvArrayGeometry::itrs2018_min(2, 2);
  for (const int max_iterations : {0, -3}) {
    field::SolverOptions opts;
    opts.max_iterations = max_iterations;
    expect_names("SolverOptions: max_iterations", [&] { problem.solve(0, opts, nullptr); });
    field::ExtractionOptions fo;
    fo.cell = 1_um;
    fo.solver = opts;
    expect_names("SolverOptions: max_iterations", [&] { tsv::fit_from_field(geom, fo); });
  }
}

TEST(Extractor, RejectsNegativeThreadsNamingTheField) {
  const auto geom = phys::TsvArrayGeometry::itrs2018_min(2, 2);
  field::ExtractionOptions fo;
  fo.cell = 1_um;
  for (const int threads : {-1, -5}) {
    fo.threads = threads;
    expect_names("ExtractionOptions: threads", [&] { fo.validate(geom); });
    expect_names("ExtractionOptions: threads", [&] { tsv::fit_from_field(geom, fo); });
  }
  fo.threads = 0;
  EXPECT_NO_THROW(fo.validate(geom));
}

// The point of multigrid: iteration counts stay roughly flat as the grid is
// refined (Jacobi-BiCGStab grows like the grid diameter instead). The exact
// counts are pinned at the scalar dispatch level, whose bits do not depend
// on the build type (see GoldenFieldFitIsBitIdentical); the active level
// keeps a bound, since its smoother clones round differently.
TEST(Solver, MultigridIterationsMeshIndependent) {
  auto coax_iterations = [](std::size_t n, field::Preconditioner pc) {
    const double cell = 0.1_um;
    const double side = static_cast<double>(n) * cell;
    Grid g(side, side, cell);
    g.fill(Complex{11.9, -59.9});
    g.paint_disk(side / 2, side / 2, side / 8, Complex{3.9, 0.0});
    g.paint_disk(side / 2, side / 2, side / 8, Complex{3.9, 0.0}, 0);
    field::FieldProblem problem(g);
    field::SolverOptions opts;
    opts.preconditioner = pc;
    field::SolveStats stats;
    problem.solve(0, opts, &stats);
    EXPECT_TRUE(stats.converged) << n;
    EXPECT_EQ(stats.preconditioner, pc) << n;
    return stats.iterations;
  };
  {
    simd::ScopedLevel scalar(simd::Level::scalar);
    const std::pair<std::size_t, int> multigrid_counts[] = {{64, 7}, {128, 9}, {256, 10},
                                                            {512, 13}};
    for (const auto& [n, want] : multigrid_counts) {
      EXPECT_EQ(coax_iterations(n, field::Preconditioner::multigrid), want) << n;
    }
    EXPECT_EQ(coax_iterations(64, field::Preconditioner::jacobi), 90);
    EXPECT_EQ(coax_iterations(128, field::Preconditioner::jacobi), 175);
  }
  const int it_small = coax_iterations(64, field::Preconditioner::multigrid);
  const int it_large = coax_iterations(512, field::Preconditioner::multigrid);
  EXPECT_LE(it_large, 16);
  EXPECT_LE(it_large, 2 * it_small) << "multigrid lost mesh independence: " << it_small << " -> "
                                    << it_large << " iterations from 64^2 to 512^2";
}

// Also pins the iteration totals of both extractions at the scalar level:
// multigrid needs 9 BiCGStab iterations where Jacobi needs 251 (the
// uniform 2x2 solves conductor 0 only; the other three are its images).
TEST(Extractor, PreconditionersAgreeOnCapacitances) {
  simd::ScopedLevel scalar(simd::Level::scalar);
  auto geom = phys::TsvArrayGeometry::itrs2018_min(2, 2);
  const std::vector<double> pr(geom.count(), 0.5);
  field::ExtractionOptions opts;
  opts.cell = 0.25_um;
  opts.solver.preconditioner = field::Preconditioner::jacobi;
  const auto jac = field::extract_capacitance(geom, pr, opts);
  opts.solver.preconditioner = field::Preconditioner::multigrid;
  const auto mg = field::extract_capacitance(geom, pr, opts);
  ASSERT_TRUE(jac.all_converged());
  ASSERT_TRUE(mg.all_converged());
  const auto total_iterations = [](const field::CapacitanceResult& r) {
    int iters = 0;
    for (const auto& s : r.stats) iters += s.iterations;
    return iters;
  };
  for (const auto& s : mg.stats) {
    EXPECT_EQ(s.preconditioner, field::Preconditioner::multigrid);
  }
  EXPECT_EQ(total_iterations(mg), 9);
  EXPECT_EQ(total_iterations(jac), 251);
  const double scale = jac.paper(0, 0);
  for (std::size_t i = 0; i < geom.count(); ++i) {
    for (std::size_t j = 0; j < geom.count(); ++j) {
      EXPECT_NEAR(mg.paper(i, j), jac.paper(i, j), 1e-6 * scale);
      EXPECT_NEAR(mg.maxwell(i, j), jac.maxwell(i, j), 1e-6 * scale);
    }
  }
}

// Extraction reuse: warm-started sweep points must match cold extractions to
// within the solver tolerance (warm starts change iteration counts only),
// and the sweep must cost fewer iterations warm than cold (totals pinned at
// the scalar level).
TEST(Extractor, WarmStartSweepMatchesColdExtractions) {
  simd::ScopedLevel scalar(simd::Level::scalar);
  auto geom = phys::TsvArrayGeometry::itrs2018_min(1, 2);
  field::ExtractionOptions opts;
  opts.cell = 0.2_um;
  field::CapacitanceExtractor extractor(geom, opts);
  int warm_iters = 0;
  int cold_iters = 0;
  for (const double p : {0.2, 0.5, 0.8}) {
    const std::vector<double> pr(geom.count(), p);
    const auto warm = extractor.extract(pr);
    const auto cold = field::extract_capacitance(geom, pr, opts);
    for (const auto& s : warm.stats) warm_iters += s.iterations;
    for (const auto& s : cold.stats) cold_iters += s.iterations;
    ASSERT_TRUE(warm.all_converged());
    const double scale = cold.paper(0, 0);
    for (std::size_t i = 0; i < geom.count(); ++i) {
      for (std::size_t j = 0; j < geom.count(); ++j) {
        EXPECT_NEAR(warm.paper(i, j), cold.paper(i, j), 1e-6 * scale) << "p=" << p;
      }
    }
  }
  EXPECT_LT(warm_iters, cold_iters);
  EXPECT_EQ(warm_iters, 31);  // conductor 1 mirrors conductor 0 at every point
  EXPECT_EQ(cold_iters, 33);
  // Re-extracting the identical point reuses the rasterization and starts
  // from the converged answer: zero or near-zero extra iterations.
  const std::vector<double> pr(geom.count(), 0.8);
  const auto again = extractor.extract(pr);
  int iters = 0;
  for (const auto& s : again.stats) iters += s.iterations;
  EXPECT_LE(iters, 2);
  EXPECT_TRUE(again.all_converged());
}

// The symmetries of a rows x cols TSV layout that a grid can share: the
// identity, both flips and their product, and on a square array the four
// maps that swap rows and columns. Each is a permutation of TSV indices.
std::vector<std::vector<std::int32_t>> layout_symmetries(const phys::TsvArrayGeometry& geom) {
  std::vector<std::vector<std::int32_t>> out;
  for (int s = 0; s < 8; ++s) {
    if ((s & 4) != 0 && geom.rows != geom.cols) continue;
    std::vector<std::int32_t> pi(geom.count());
    for (std::size_t r = 0; r < geom.rows; ++r) {
      for (std::size_t c = 0; c < geom.cols; ++c) {
        std::size_t rr = (s & 1) != 0 ? geom.rows - 1 - r : r;
        std::size_t cc = (s & 2) != 0 ? geom.cols - 1 - c : c;
        if ((s & 4) != 0) std::swap(rr, cc);
        pi[geom.index(r, c)] = static_cast<std::int32_t>(geom.index(rr, cc));
      }
    }
    out.push_back(std::move(pi));
  }
  return out;
}

std::size_t solves_run(const field::CapacitanceResult& res) {
  return static_cast<std::size_t>(std::count_if(res.stats.begin(), res.stats.end(),
                                                [](const auto& s) { return s.image_of < 0; }));
}

// `res.maxwell` and `res.paper` map onto themselves, bit for bit, under
// every permutation in `symmetries`.
void expect_exactly_invariant(const field::CapacitanceResult& res,
                              const std::vector<std::vector<std::int32_t>>& symmetries,
                              const std::string& where) {
  const std::size_t n = res.stats.size();
  for (std::size_t s = 0; s < symmetries.size(); ++s) {
    const auto& pi = symmetries[s];
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        const auto pi_i = static_cast<std::size_t>(pi[i]);
        const auto pi_j = static_cast<std::size_t>(pi[j]);
        EXPECT_EQ(res.maxwell(pi_i, pi_j), res.maxwell(i, j))
            << where << " symmetry " << s << " maxwell(" << i << "," << j << ")";
        EXPECT_EQ(res.paper(pi_i, pi_j), res.paper(i, j))
            << where << " symmetry " << s << " paper(" << i << "," << j << ")";
      }
    }
  }
}

// Every mirrored column agrees with a direct solve of its own conductor on
// the same painted grid, to well inside the solver tolerance.
void expect_images_match_direct_solves(const phys::TsvArrayGeometry& geom,
                                       std::span<const double> pr,
                                       const field::ExtractionOptions& opts,
                                       const field::CapacitanceResult& res,
                                       const std::string& where) {
  const Grid grid = field::build_array_grid(geom, pr, opts);
  const field::FieldProblem problem(grid);
  const double scale = res.paper(0, 0);
  for (std::size_t m = 0; m < geom.count(); ++m) {
    if (res.stats[m].image_of < 0) continue;
    EXPECT_EQ(res.stats[m].iterations, 0) << where << " conductor " << m;
    field::SolveStats stats;
    const auto q = problem.conductor_charges(
        problem.solve(static_cast<std::int32_t>(m), opts.solver, &stats));
    ASSERT_TRUE(stats.converged) << where << " conductor " << m;
    for (std::size_t a = 0; a < geom.count(); ++a) {
      EXPECT_NEAR(res.maxwell(a, m), q[a].real() * geom.length, 1e-6 * scale)
          << where << " column " << m << " row " << a;
    }
  }
}

// The 4x4 at both fit points: every TSV shares one depletion width, so the
// painted grid is D4-symmetric and only the corner, edge and middle orbit
// representatives (conductors 0, 1 and 5) are solved; the matrices come
// out exactly invariant under all eight symmetries.
TEST(Extractor, SymmetricArraySolvesOneConductorPerOrbit) {
  const auto geom = phys::TsvArrayGeometry::itrs2018_relaxed(4, 4);
  field::ExtractionOptions opts;
  opts.cell = 0.5_um;
  field::CapacitanceExtractor extractor(geom, opts);
  const auto symmetries = layout_symmetries(geom);
  ASSERT_EQ(symmetries.size(), 8u);
  for (const double p : {0.0, 1.0}) {
    const std::vector<double> pr(geom.count(), p);
    const auto res = extractor.extract(pr);
    const std::string where = "p=" + std::to_string(p);
    ASSERT_TRUE(res.all_converged()) << where;
    EXPECT_EQ(solves_run(res), 3u) << where;
    for (const std::size_t k : {0u, 1u, 5u}) EXPECT_EQ(res.stats[k].image_of, -1) << where;
    EXPECT_EQ(res.stats[15].image_of, 0) << where;
    EXPECT_EQ(res.stats[14].image_of, 1) << where;
    EXPECT_EQ(res.stats[10].image_of, 5) << where;
    expect_exactly_invariant(res, symmetries, where);
    expect_images_match_direct_solves(geom, pr, opts, res, where);
  }
}

// A 0.30 um cell does not divide the 32 um cross-section of the 3x3, so
// the grid overhangs one side and neither flip holds; the transpose still
// maps it onto itself. The three diagonal TSVs and one of each mirrored
// pair are solved.
TEST(Extractor, TransposeOnlyGridMirrorsAcrossTheDiagonal) {
  const auto geom = phys::TsvArrayGeometry::itrs2018_min(3, 3);
  const std::vector<double> pr(geom.count(), 0.5);
  field::ExtractionOptions opts;
  opts.cell = 0.3_um;
  const auto res = field::extract_capacitance(geom, pr, opts);
  ASSERT_TRUE(res.all_converged());
  EXPECT_EQ(solves_run(res), 6u);
  const auto symmetries = layout_symmetries(geom);
  expect_exactly_invariant(res, {symmetries[0], symmetries[4]}, "transpose");
  expect_images_match_direct_solves(geom, pr, opts, res, "transpose");
}

// Largest |got[k] - before[k]| relative to the largest |before[k]|: how far
// a re-recorded golden moved from the one it replaced.
double relative_drift(std::span<const double> got, std::span<const double> before) {
  double scale = 0.0, drift = 0.0;
  for (std::size_t k = 0; k < before.size(); ++k) {
    scale = std::max(scale, std::abs(before[k]));
    drift = std::max(drift, std::abs(got[k] - before[k]));
  }
  return drift / scale;
}

// A grid without symmetry solves every conductor, exactly as the extractor
// did before it looked for symmetries: the Maxwell matrix and the ground
// capacitances as hex floats (x86-64, scalar dispatch level). The *Before
// values were recorded while the multigrid hierarchy pinned a coarse cell
// when any child was pinned; pinning it only when all children are changes
// the preconditioner, so the converged answer moves in its last digits, and
// by at most 1e-7 of each matrix's largest entry.
TEST(Extractor, AsymmetricExtractionIsBitIdentical) {
  static const double kMaxwell[16] = {
      0x1.e3a15bc5aeb58p-46,  -0x1.867f0806a07b5p-48, -0x1.5d14b8d6a1f54p-48, -0x1.b1d04d747988dp-49,
      -0x1.867f0806a07b5p-48, 0x1.d47b9cd3816b7p-46,  -0x1.aafeccea35213p-49, -0x1.3704ddf292b71p-48,
      -0x1.5d14b8d6a1f54p-48, -0x1.aafeccea35213p-49, 0x1.b9555d2412ce6p-46,  -0x1.165a62b27ac51p-48,
      -0x1.b1d04d747988dp-49, -0x1.3704ddf292b71p-48, -0x1.165a62b27ac51p-48, 0x1.acbce4da621fcp-46,
  };
  static const double kGround[4] = {0x1.e904c3bf9dd09p-47, 0x1.df75936fdbf58p-47,
                                    0x1.ce33794909f74p-47, 0x1.c65616051f1f4p-47};
  static const double kMaxwellBefore[16] = {
      0x1.e3a15bc73893p-46,   -0x1.867f08071a9cdp-48, -0x1.5d14b8d5aeca9p-48, -0x1.b1d04d787cdf1p-49,
      -0x1.867f08071a9cdp-48, 0x1.d47b9cd10968cp-46,  -0x1.aafecce794a16p-49, -0x1.3704ddefa73b5p-48,
      -0x1.5d14b8d5aeca9p-48, -0x1.aafecce794a16p-49, 0x1.b9555d20c3c83p-46,  -0x1.165a62b5637d7p-48,
      -0x1.b1d04d787cdf1p-49, -0x1.3704ddefa73b5p-48, -0x1.165a62b5637d7p-48, 0x1.acbce4da1a3bap-46,
  };
  static const double kGroundBefore[4] = {0x1.e904c3c1ed3aap-47, 0x1.df75936cccbd2p-47,
                                          0x1.ce3379421944p-47, 0x1.c65616038fe32p-47};
  simd::ScopedLevel scalar(simd::Level::scalar);
  const auto geom = phys::TsvArrayGeometry::itrs2018_min(2, 2);
  field::ExtractionOptions opts;
  opts.cell = 0.25_um;
  opts.threads = 1;
  const std::vector<double> pr = {0.1, 0.3, 0.6, 0.9};
  const auto res = field::extract_capacitance(geom, pr, opts);
  EXPECT_EQ(solves_run(res), 4u);
  int iterations = 0;
  for (const auto& s : res.stats) iterations += s.iterations;
  EXPECT_EQ(iterations, 37);
  std::vector<double> maxwell(16), ground(4);
  for (std::size_t i = 0; i < 4; ++i) {
    ground[i] = res.paper(i, i);
    EXPECT_EQ(res.paper(i, i), kGround[i]) << "paper(" << i << "," << i << ")";
    for (std::size_t j = 0; j < 4; ++j) {
      maxwell[4 * i + j] = res.maxwell(i, j);
      EXPECT_EQ(res.maxwell(i, j), kMaxwell[4 * i + j]) << "maxwell(" << i << "," << j << ")";
      if (i != j) {
        EXPECT_EQ(res.paper(i, j), -kMaxwell[4 * i + j]) << i << "," << j;
      }
    }
  }
  EXPECT_LE(relative_drift(maxwell, kMaxwellBefore), 1e-7);
  EXPECT_LE(relative_drift(ground, kGroundBefore), 1e-7);
}

TEST(Extractor, NonConvergedSolveRaisesInsteadOfGarbage) {
  auto geom = phys::TsvArrayGeometry::itrs2018_min(2, 2);
  const std::vector<double> pr(geom.count(), 0.5);
  field::ExtractionOptions opts;
  opts.cell = 0.2_um;
  opts.solver.max_iterations = 3;  // cannot converge on hundreds of unknowns
  EXPECT_THROW(field::extract_capacitance(geom, pr, opts), field::ConvergenceError);

  // Opting into partial results keeps the stats honest instead of throwing.
  opts.allow_nonconverged = true;
  const auto res = field::extract_capacitance(geom, pr, opts);
  EXPECT_FALSE(res.all_converged());
  for (std::size_t i = 0; i < geom.count(); ++i) {
    for (std::size_t j = 0; j < geom.count(); ++j) {
      EXPECT_TRUE(std::isfinite(res.paper(i, j)));
    }
  }
}


TEST(Export, PgmFormatAndScaling) {
  std::ostringstream os;
  field::write_pgm(os, 2, 2, {0.0, 1.0, 0.5, 1.0});
  const std::string out = os.str();
  EXPECT_EQ(out.rfind("P2\n2 2\n255\n", 0), 0u);
  EXPECT_NE(out.find("0 255"), std::string::npos);
  EXPECT_NE(out.find("128 255"), std::string::npos);
  EXPECT_THROW(field::write_pgm(os, 3, 2, {1.0}), std::invalid_argument);
}

TEST(Export, PermittivityMapHighlightsConductors) {
  Grid g(5_um, 5_um, 0.25_um);
  g.fill(Complex{11.9, -59.9});
  g.paint_disk(2.5_um, 2.5_um, 1_um, Complex{3.9, 0.0});
  g.paint_disk(2.5_um, 2.5_um, 1_um, Complex{3.9, 0.0}, 0);
  const auto map = field::permittivity_map(g);
  ASSERT_EQ(map.size(), g.size());
  // The conductor cells must be the brightest pixels.
  const double center = map[g.index(g.nx() / 2, g.ny() / 2)];
  for (const double v : map) EXPECT_LE(v, center);
}

TEST(Export, PotentialMapMatchesSolution) {
  Grid g(8_um, 8_um, 0.25_um);
  g.fill(Complex{1.0, 0.0});
  g.paint_disk(4_um, 4_um, 1_um, Complex{1.0, 0.0}, 0);
  field::FieldProblem problem(g);
  const auto phi = problem.solve(0, {}, nullptr);
  const auto map = field::potential_map(g, phi);
  ASSERT_EQ(map.size(), g.size());
  // 1 V on the conductor, decaying towards the grounded boundary.
  EXPECT_DOUBLE_EQ(map[g.index(g.nx() / 2, g.ny() / 2)], 1.0);
  EXPECT_LT(map[g.index(1, 1)], 0.2);
  const std::vector<Complex> wrong(3);
  EXPECT_THROW(field::potential_map(g, wrong), std::invalid_argument);
}

// Bit-identity golden: every C_R / DeltaC entry of a field fit on a 2x2
// array at a 1 um cell as hex floats (x86-64), and the total BiCGStab
// iteration count, as the std::complex formulation of the operator and the
// BiCGStab updates computed them; the spelled-out arithmetic must reproduce
// them exactly (DESIGN.md §5l). The values are pinned at the scalar dispatch
// level, whose bits do not depend on the build type; the AVX2/AVX-512
// smoother clones reassociate and contract, so their bits move with the
// optimization level. The uniform 2x2 grid is D4-symmetric: at each fit
// point only conductor 0 is solved, and that solve is unchanged from when
// every conductor was solved; every other column is its D4 image, so each
// matrix is exactly invariant under the square's symmetries. kGoldenBefore
// holds the values recorded while a coarse multigrid cell was pinned when
// any child was; each matrix stays within 1e-7 of its largest entry of them.
TEST(Extractor, GoldenFieldFitIsBitIdentical) {
  static const double kGolden[32] = {
      // c_ref, row-major
      0x1.a7c9914f6acddp-47, 0x1.74fa71a7cae2ap-49, 0x1.74fa71a7cae2ap-49, 0x1.e6c9c498188e4p-50,
      0x1.74fa71a7cae2ap-49, 0x1.a7c9914f6acddp-47, 0x1.e6c9c498188e4p-50, 0x1.74fa71a7cae2ap-49,
      0x1.74fa71a7cae2ap-49, 0x1.e6c9c498188e4p-50, 0x1.a7c9914f6acddp-47, 0x1.74fa71a7cae2ap-49,
      0x1.e6c9c498188e4p-50, 0x1.74fa71a7cae2ap-49, 0x1.74fa71a7cae2ap-49, 0x1.a7c9914f6acddp-47,
      // delta_c, row-major
      -0x1.796e593cafb9p-51, -0x1.dbc67a0ec4966p-51, -0x1.dbc67a0ec4966p-51, -0x1.926fb719cee41p-51,
      -0x1.dbc67a0ec4966p-51, -0x1.796e593cafb9p-51, -0x1.926fb719cee41p-51, -0x1.dbc67a0ec4966p-51,
      -0x1.dbc67a0ec4966p-51, -0x1.926fb719cee41p-51, -0x1.796e593cafb9p-51, -0x1.dbc67a0ec4966p-51,
      -0x1.926fb719cee41p-51, -0x1.dbc67a0ec4966p-51, -0x1.dbc67a0ec4966p-51, -0x1.796e593cafb9p-51,
  };
  static const double kGoldenBefore[32] = {
      // c_ref, row-major
      0x1.a7c99150de146p-47, 0x1.74fa71a671ceep-49, 0x1.74fa71a671ceep-49, 0x1.e6c9c490e1d84p-50,
      0x1.74fa71a671ceep-49, 0x1.a7c99150de146p-47, 0x1.e6c9c490e1d84p-50, 0x1.74fa71a671ceep-49,
      0x1.74fa71a671ceep-49, 0x1.e6c9c490e1d84p-50, 0x1.a7c99150de146p-47, 0x1.74fa71a671ceep-49,
      0x1.e6c9c490e1d84p-50, 0x1.74fa71a671ceep-49, 0x1.74fa71a671ceep-49, 0x1.a7c99150de146p-47,
      // delta_c, row-major
      -0x1.796e5953d2128p-51, -0x1.dbc67a0b907fp-51, -0x1.dbc67a0b907fp-51, -0x1.926fb710562cbp-51,
      -0x1.dbc67a0b907fp-51, -0x1.796e5953d2128p-51, -0x1.926fb710562cbp-51, -0x1.dbc67a0b907fp-51,
      -0x1.dbc67a0b907fp-51, -0x1.926fb710562cbp-51, -0x1.796e5953d2128p-51, -0x1.dbc67a0b907fp-51,
      -0x1.926fb710562cbp-51, -0x1.dbc67a0b907fp-51, -0x1.dbc67a0b907fp-51, -0x1.796e5953d2128p-51,
  };
  simd::ScopedLevel scalar(simd::Level::scalar);
  auto geom = phys::TsvArrayGeometry::itrs2018_min(2, 2);
  field::ExtractionOptions opts;
  opts.cell = 1_um;
  opts.threads = 1;
  opts.solver.preconditioner = field::Preconditioner::multigrid;
  tsv::FieldFitStats stats;
  const auto model = tsv::fit_from_field(geom, opts, &stats);
  EXPECT_EQ(stats.solves, 2u);
  EXPECT_EQ(stats.mirrored, 6u);
  EXPECT_EQ(stats.iterations, 13);
  EXPECT_EQ(stats.preconditioner, field::Preconditioner::multigrid);
  std::vector<double> got(32);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      got[4 * i + j] = model.c_ref()(i, j);
      got[16 + 4 * i + j] = model.delta_c()(i, j);
      EXPECT_EQ(model.c_ref()(i, j), kGolden[4 * i + j]) << "c_ref(" << i << "," << j << ")";
      EXPECT_EQ(model.delta_c()(i, j), kGolden[16 + 4 * i + j])
          << "delta_c(" << i << "," << j << ")";
    }
  }
  const std::span<const double> all(got), before(kGoldenBefore);
  EXPECT_LE(relative_drift(all.first(16), before.first(16)), 1e-7) << "c_ref";
  EXPECT_LE(relative_drift(all.last(16), before.last(16)), 1e-7) << "delta_c";
}

}  // namespace
