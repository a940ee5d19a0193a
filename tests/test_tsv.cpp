// Unit tests for the analytic TSV capacitance model, the linear
// capacitance-vs-probability fit (paper Eq. 6/7) and the routing-overhead
// study of Sec. 3.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "phys/tsv_geometry.hpp"
#include "tsv/analytic_model.hpp"
#include "tsv/linear_model.hpp"
#include "tsv/routing.hpp"

#include "reference.hpp"

namespace {

using namespace tsvcod;
using phys::TsvArrayGeometry;

std::vector<double> half_probs(const TsvArrayGeometry& g) {
  return std::vector<double>(g.count(), 0.5);
}

double total_cap(const phys::Matrix& c, std::size_t i) {
  double t = 0.0;
  for (std::size_t j = 0; j < c.cols(); ++j) t += c(i, j);
  return t;
}

TEST(Analytic, SymmetricPositiveMatrix) {
  auto g = TsvArrayGeometry::itrs2018_min(3, 3);
  const auto c = tsv::analytic_capacitance(g, half_probs(g));
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_GE(c(i, i), 0.0);
    for (std::size_t j = 0; j < 9; ++j) {
      EXPECT_DOUBLE_EQ(c(i, j), c(j, i));
      EXPECT_GE(c(i, j), 0.0);
    }
  }
}

TEST(Analytic, EdgeEffectsMatchLiterature) {
  // Paper Sec. 4 citing [Bamberg, Integration'18]:
  //  * corner TSVs have the lowest total capacitance, middle the highest;
  //  * the largest couplings sit between corner TSVs and their direct
  //    adjacent edge TSVs (reduced E-field sharing);
  //  * diagonal couplings are weaker than direct ones.
  auto g = TsvArrayGeometry::itrs2018_min(3, 3);
  const auto c = tsv::analytic_capacitance(g, half_probs(g));
  const auto corner = g.index(0, 0);
  const auto edge = g.index(0, 1);
  const auto mid = g.index(1, 1);

  EXPECT_LT(total_cap(c, corner), total_cap(c, edge));
  EXPECT_LT(total_cap(c, edge), total_cap(c, mid));

  const double corner_edge = c(corner, edge);
  const double edge_mid = c(edge, mid);
  const double corner_mid_diag = c(corner, mid);
  EXPECT_GT(corner_edge, edge_mid);
  EXPECT_GT(edge_mid, corner_mid_diag);
}

TEST(Analytic, MosEffectShrinksCapacitances) {
  auto g = TsvArrayGeometry::itrs2018_relaxed(2, 2);
  const std::vector<double> p0(4, 0.0), p1(4, 1.0);
  const auto c0 = tsv::analytic_capacitance(g, p0);
  const auto c1 = tsv::analytic_capacitance(g, p1);
  EXPECT_LT(c1(0, 1), c0(0, 1));
  EXPECT_LT(c1(0, 0), c0(0, 0));
  const double reduction = 1.0 - c1(0, 1) / c0(0, 1);
  EXPECT_GT(reduction, 0.10);
  EXPECT_LT(reduction, 0.60);
}

TEST(Analytic, SingleTsvHasOnlyGroundCap) {
  TsvArrayGeometry g = TsvArrayGeometry::itrs2018_min(1, 1);
  const std::vector<double> pr(1, 0.5);
  const auto c = tsv::analytic_capacitance(g, pr);
  EXPECT_GT(c(0, 0), 0.0);
}

TEST(Analytic, ArraySymmetryOfCouplings) {
  auto g = TsvArrayGeometry::itrs2018_min(3, 3);
  const auto c = tsv::analytic_capacitance(g, half_probs(g));
  // The four corner-to-adjacent-edge couplings must be identical by symmetry.
  const double a = c(g.index(0, 0), g.index(0, 1));
  const double b = c(g.index(0, 2), g.index(0, 1));
  const double d = c(g.index(2, 0), g.index(1, 0));
  EXPECT_NEAR(a, b, 1e-6 * a);
  EXPECT_NEAR(a, d, 1e-6 * a);
}

TEST(LinearModel, ReproducesEndpointsExactly) {
  auto g = TsvArrayGeometry::itrs2018_min(2, 3);
  const auto backend = [&](std::span<const double> pr) {
    return tsv::analytic_capacitance(g, pr);
  };
  const auto model = tsv::fit_linear_model(backend, g.count());
  const std::vector<double> p0(g.count(), 0.0), p1(g.count(), 1.0);
  const auto c0 = backend(p0);
  const auto c1 = backend(p1);
  const auto m0 = reference::evaluate(model, p0);
  const auto m1 = reference::evaluate(model, p1);
  for (std::size_t i = 0; i < g.count(); ++i) {
    for (std::size_t j = 0; j < g.count(); ++j) {
      EXPECT_NEAR(m0(i, j), c0(i, j), 1e-21);
      EXPECT_NEAR(m1(i, j), c1(i, j), 1e-21);
    }
  }
}

// The analytic fit's exact bits at four array shapes under both ITRS
// presets (3x11 is the NoC's 33-line bundle), as a digest over the bits of
// C_R then DeltaC, row-major (FNV-1a with the high half folded down after
// each step, so that paired sign flips cannot cancel), plus C_R(0,0) and
// DeltaC(0,1) in hex. The fit is scalar libm code at every SIMD level.
TEST(LinearModel, AnalyticFitIsBitIdentical) {
  struct Golden {
    bool relaxed;
    std::size_t rows, cols;
    std::uint64_t digest;
    double c00, d01;
  };
  const Golden goldens[] = {
      {false, 2, 4, 0xcabd509832ce1864ull, 0x1.21ccda07df56ep-46, -0x1.8a672b05bcb4p-49},
      {false, 3, 11, 0xd245d869ee7408fdull, 0x1.21ccda07df56ep-46, -0x1.8a672b05bcb4p-49},
      {false, 4, 4, 0x46af6e804e66728bull, 0x1.21ccda07df56ep-46, -0x1.8a672b05bcb4p-49},
      {false, 8, 8, 0x04627fa229ddf8beull, 0x1.21ccda07df56ep-46, -0x1.8a672b05bcb4p-49},
      {true, 2, 4, 0x013f8221922e333eull, 0x1.3166d148713d9p-46, -0x1.4962a4749715p-50},
      {true, 3, 11, 0x1fc61a33740dc38aull, 0x1.3166d148713d9p-46, -0x1.4962a4749715p-50},
      {true, 4, 4, 0xec6fd860b25655d3ull, 0x1.3166d148713d9p-46, -0x1.4962a4749715p-50},
      {true, 8, 8, 0x77fb5dbb09ecad5bull, 0x1.3166d148713d9p-46, -0x1.4962a4749715p-50},
  };
  for (const Golden& g : goldens) {
    const auto geom = g.relaxed ? TsvArrayGeometry::itrs2018_relaxed(g.rows, g.cols)
                                : TsvArrayGeometry::itrs2018_min(g.rows, g.cols);
    const auto model = tsv::fit_from_analytic(geom);
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const phys::Matrix* m : {&model.c_ref(), &model.delta_c()}) {
      for (const double v : m->data()) {
        h = (h ^ std::bit_cast<std::uint64_t>(v)) * 0x100000001b3ull;
        h ^= h >> 32;
      }
    }
    const std::string name = (g.relaxed ? "relaxed " : "min ") + std::to_string(g.rows) + "x" +
                             std::to_string(g.cols);
    EXPECT_EQ(h, g.digest) << name;
    EXPECT_EQ(model.c_ref()(0, 0), g.c00) << name;
    EXPECT_EQ(model.delta_c()(0, 1), g.d01) << name;
  }
}

TEST(LinearModel, DeltaCIsNegativeForTsvs) {
  auto g = TsvArrayGeometry::itrs2018_min(2, 2);
  const auto model = tsv::fit_from_analytic(g);
  // Higher probability -> wider depletion -> smaller capacitance.
  EXPECT_LT(model.delta_c()(0, 1), 0.0);
  EXPECT_LT(model.delta_c()(0, 0), 0.0);
}

TEST(LinearModel, NrmseBelowPaperBound) {
  auto g = TsvArrayGeometry::itrs2018_min(2, 2);
  const auto backend = [&](std::span<const double> pr) {
    return tsv::analytic_capacitance(g, pr);
  };
  const auto model = tsv::fit_linear_model(backend, g.count());
  const double nrmse = reference::linearity_nrmse(backend, model, g.count(), 32);
  // Paper Sec. 3 quotes < 2 % for the Q3D data; our deep-depletion model has
  // a slightly harder nonlinearity near pr = 0 (w jumps off zero), so the
  // bound is relaxed but must stay "a few percent" for Eq. 7 to be usable.
  EXPECT_LT(nrmse, 0.06);
}

TEST(LinearModel, InversionFlipsEpsSign) {
  auto g = TsvArrayGeometry::itrs2018_min(2, 2);
  const auto model = tsv::fit_from_analytic(g);
  const std::vector<double> eps{0.3, -0.3, 0.0, 0.1};
  std::vector<double> neg = eps;
  for (auto& e : neg) e = -e;
  const auto c = model.evaluate_eps(eps);
  const auto cn = model.evaluate_eps(neg);
  // eps -> -eps mirrors the capacitance around C_R.
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(0.5 * (c(i, j) + cn(i, j)), model.c_ref()(i, j), 1e-21);
    }
  }
}

TEST(LinearModel, EvaluateChecksSize) {
  auto g = TsvArrayGeometry::itrs2018_min(2, 2);
  const auto model = tsv::fit_from_analytic(g);
  const std::vector<double> bad(3, 0.5);
  EXPECT_THROW(model.evaluate_eps(bad), std::invalid_argument);
}

TEST(Routing, EntryPointsSpanTheArray) {
  auto g = TsvArrayGeometry::itrs2018_min(3, 3);
  const auto pts = tsv::entry_points(g);
  ASSERT_EQ(pts.size(), 9u);
  EXPECT_DOUBLE_EQ(pts.front().x, 0.0);
  EXPECT_DOUBLE_EQ(pts.back().x, 2.0 * g.pitch);
  for (const auto& p : pts) EXPECT_LT(p.y, 0.0);
}

TEST(Routing, WirelengthOfAssignment) {
  auto g = TsvArrayGeometry::itrs2018_min(2, 2);
  std::vector<std::size_t> ident{0, 1, 2, 3};
  const double wl = tsv::assignment_wirelength(g, ident);
  EXPECT_GT(wl, 0.0);
  std::vector<std::size_t> swapped{3, 1, 2, 0};
  EXPECT_GT(tsv::assignment_wirelength(g, swapped), wl);
}

TEST(Routing, OverheadIsMarginal3x3) {
  // Reproduces the Sec. 3 claim: over all assignments of a 3x3 array the
  // path-parasitic increase versus a wirelength-minimal routing stays well
  // below 1 % (paper: worst 0.4 %, mean < 0.2 %, std < 0.1 %).
  auto g = TsvArrayGeometry::itrs2018_relaxed(3, 3);
  const auto c = tsv::analytic_capacitance(g, half_probs(g));
  std::vector<double> totals(9);
  for (std::size_t i = 0; i < 9; ++i) totals[i] = total_cap(c, i);
  const auto stats = tsv::routing_overhead_stats(g, totals);
  EXPECT_TRUE(stats.exhaustive);
  EXPECT_EQ(stats.assignments, 362880u);  // 9!
  EXPECT_LT(stats.worst_pct, 2.0);
  EXPECT_LT(stats.mean_pct, 1.0);
  EXPECT_LT(stats.stddev_pct, 0.5);
  EXPECT_GT(stats.worst_pct, 0.0);
}

}  // namespace
