// Unit tests for the phys module: constants, cylindrical deep-depletion MOS
// model, TSV array geometry, and the dense matrix helpers.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "phys/constants.hpp"
#include "phys/depletion.hpp"
#include "phys/matrix.hpp"
#include "phys/tsv_geometry.hpp"

#include "reference.hpp"

namespace {

using namespace tsvcod::phys;
using namespace tsvcod::reference::literals;

TEST(Constants, AcceptorDensityMatchesConductivity) {
  const double na = acceptor_density_for_conductivity(10.0);
  // sigma = q * mu_p * N_A must invert exactly.
  EXPECT_NEAR(q_e * mu_p_si * na, 10.0, 1e-9);
  // Around 1.4e21 m^-3 (= 1.4e15 cm^-3), a standard 10 ohm*cm-ish substrate.
  EXPECT_GT(na, 1e21);
  EXPECT_LT(na, 2e21);
}

TEST(Constants, Literals) {
  EXPECT_DOUBLE_EQ(2_um, 2e-6);
  EXPECT_DOUBLE_EQ(1.5_nm, 1.5e-9);
  EXPECT_DOUBLE_EQ(3_GHz, 3e9);
  EXPECT_DOUBLE_EQ(2.5_fF, 2.5e-15);
}

TEST(Coaxial, MatchesClosedForm) {
  // 1 um inner, 1.2 um outer, SiO2: C' = 2*pi*eps0*3.9 / ln(1.2).
  const double c = coaxial_capacitance_per_length(1_um, 1.2_um, eps_r_sio2);
  const double expected = 2.0 * pi * eps0 * 3.9 / std::log(1.2);
  EXPECT_NEAR(c, expected, 1e-18);
}

TEST(Coaxial, RejectsBadRadii) {
  EXPECT_THROW(coaxial_capacitance_per_length(1_um, 0.5_um, 3.9), std::invalid_argument);
  EXPECT_THROW(coaxial_capacitance_per_length(0.0, 1_um, 3.9), std::invalid_argument);
}

TEST(Depletion, AccumulationGivesZeroWidth) {
  MosParams mos;
  EXPECT_DOUBLE_EQ(depletion_width(1_um, 0.2_um, mos.flatband_voltage, mos), 0.0);
  EXPECT_DOUBLE_EQ(depletion_width(1_um, 0.2_um, -1.0, mos), 0.0);
}

TEST(Depletion, WidthIncreasesWithBias) {
  MosParams mos;
  double prev = 0.0;
  for (double v = 0.1; v <= 1.01; v += 0.1) {
    const double w = depletion_width(1_um, 0.2_um, v, mos);
    EXPECT_GT(w, prev) << "at v=" << v;
    prev = w;
  }
  // Sub-micrometre depletion widths for a ~1.4e15 cm^-3 substrate at 1 V.
  EXPECT_GT(prev, 0.1_um);
  EXPECT_LT(prev, 2_um);
}

TEST(Depletion, ProbabilityFormUsesAverageVoltage) {
  MosParams mos;
  const double direct = depletion_width(1_um, 0.2_um, 0.7 * mos.vdd, mos);
  const double via_pr = depletion_width_for_probability(1_um, 0.2_um, 0.7, mos);
  EXPECT_DOUBLE_EQ(direct, via_pr);
  EXPECT_THROW(depletion_width_for_probability(1_um, 0.2_um, 1.5, mos), std::invalid_argument);
}

TEST(Depletion, MosCapacitanceShrinksWithProbability) {
  MosParams mos;
  const double c0 = mos_capacitance_per_length(1_um, 0.2_um, 0.0, mos);
  const double c1 = mos_capacitance_per_length(1_um, 0.2_um, 1.0, mos);
  EXPECT_LT(c1, c0);
  // Paper Sec. 3: the MOS effect shrinks TSV capacitances by up to ~40 %.
  const double reduction = 1.0 - c1 / c0;
  EXPECT_GT(reduction, 0.15);
  EXPECT_LT(reduction, 0.70);
}

TEST(Depletion, AtZeroProbabilityEqualsOxideCap) {
  MosParams mos;
  mos.flatband_voltage = -0.2;
  // pr = 0 -> average voltage 0 V > V_FB, so a tiny depletion exists; with
  // V_FB = 0 it is exactly the oxide capacitance.
  MosParams flat = mos;
  flat.flatband_voltage = 0.0;
  const double c = mos_capacitance_per_length(1_um, 0.2_um, 0.0, flat);
  EXPECT_DOUBLE_EQ(c, coaxial_capacitance_per_length(1_um, 1.2_um, eps_r_sio2));
}

class DepletionRadiusSweep : public ::testing::TestWithParam<double> {};

TEST_P(DepletionRadiusSweep, MonotoneInProbability) {
  MosParams mos;
  const double r = GetParam();
  double prev = depletion_width_for_probability(r, r / 5.0, 0.0, mos);
  for (double pr = 0.1; pr <= 1.001; pr += 0.1) {
    const double w = depletion_width_for_probability(r, r / 5.0, pr, mos);
    EXPECT_GE(w, prev);
    prev = w;
  }
}

INSTANTIATE_TEST_SUITE_P(Radii, DepletionRadiusSweep,
                         ::testing::Values(0.5e-6, 1e-6, 2e-6, 4e-6));

TEST(Geometry, IndexingAndClassification) {
  auto g = TsvArrayGeometry::itrs2018_min(3, 4);
  EXPECT_EQ(g.count(), 12u);
  EXPECT_EQ(g.index(1, 2), 6u);
  EXPECT_EQ(g.row_of(6), 1u);
  EXPECT_EQ(g.col_of(6), 2u);
  EXPECT_EQ(g.direct_neighbor_count(g.index(0, 0)), 2);  // corners
  EXPECT_EQ(g.direct_neighbor_count(g.index(2, 3)), 2);
  EXPECT_EQ(g.direct_neighbor_count(g.index(0, 1)), 3);  // edge
  EXPECT_EQ(g.direct_neighbor_count(g.index(1, 1)), 4);  // middle
}

TEST(Geometry, DistancesAndPositions) {
  auto g = TsvArrayGeometry::itrs2018_relaxed(2, 2);
  EXPECT_DOUBLE_EQ(g.distance(g.index(0, 0), g.index(0, 1)), g.pitch);
  EXPECT_NEAR(g.distance(g.index(0, 0), g.index(1, 1)), g.pitch * std::sqrt(2.0), 1e-12);
  const auto p = g.position(g.index(1, 1));
  EXPECT_DOUBLE_EQ(p.x, g.pitch);
  EXPECT_DOUBLE_EQ(p.y, g.pitch);
}

TEST(Geometry, ValidateRejectsOverlap) {
  TsvArrayGeometry g;
  g.rows = g.cols = 2;
  g.radius = 2_um;
  g.pitch = 4_um;  // liner radius 2.4 um -> overlap at 4 um pitch
  EXPECT_THROW(g.validate(), std::invalid_argument);
  g.pitch = 8_um;
  EXPECT_NO_THROW(g.validate());
}

TEST(Geometry, ValidateNamesTheBadDimension) {
  const auto message_for = [](TsvArrayGeometry g) -> std::string {
    try {
      g.validate();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "accepted";
  };
  auto g = TsvArrayGeometry::itrs2018_relaxed(2, 2);
  auto bad = g;
  bad.radius = -1e-6;
  EXPECT_EQ(message_for(bad), "TsvArrayGeometry: radius must be a finite length > 0 m, got -1e-06");
  bad = g;
  bad.pitch = 0.0;
  EXPECT_EQ(message_for(bad), "TsvArrayGeometry: pitch must be a finite length > 0 m, got 0");
  bad = g;
  bad.pitch = std::numeric_limits<double>::infinity();
  EXPECT_EQ(message_for(bad), "TsvArrayGeometry: pitch must be a finite length > 0 m, got inf");
  bad = g;
  bad.length = std::numeric_limits<double>::infinity();
  EXPECT_EQ(message_for(bad), "TsvArrayGeometry: length must be a finite length > 0 m, got inf");
  bad = g;
  bad.length = std::nan("");
  EXPECT_EQ(message_for(bad), "TsvArrayGeometry: length must be a finite length > 0 m, got nan");
  bad = g;
  bad.radius = std::numeric_limits<double>::infinity();
  EXPECT_EQ(message_for(bad), "TsvArrayGeometry: radius must be a finite length > 0 m, got inf");
  EXPECT_EQ(message_for(g), "accepted");
}

TEST(Matrix, BasicAlgebra) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 3;
  a(1, 1) = 4;
  const Matrix i2 = Matrix::identity(2);
  EXPECT_EQ(a * i2, a);
  EXPECT_EQ(i2 * a, a);
  const Matrix at = a.transposed();
  EXPECT_DOUBLE_EQ(at(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(tsvcod::reference::frobenius(a, i2), 5.0);
  const Matrix s = a + a - a;
  EXPECT_EQ(s, a);
  const Matrix d = 2.0 * a;
  EXPECT_DOUBLE_EQ(d(0, 1), 4.0);
}

TEST(Matrix, ShapeChecks) {
  Matrix a(2, 3);
  Matrix b(2, 2);
  EXPECT_THROW((void)(a + b), std::invalid_argument);
  EXPECT_THROW((void)tsvcod::reference::frobenius(a, b), std::invalid_argument);
  EXPECT_THROW((void)(a * a), std::invalid_argument);
  EXPECT_THROW(a.at(2, 0), std::out_of_range);
}

}  // namespace
