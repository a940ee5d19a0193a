// Unit tests for the switching-statistics accumulator and the analytic
// dual-bit-type model.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "phys/constants.hpp"
#include "stats/switching_stats.hpp"

#include "reference.hpp"

namespace {

using namespace tsvcod;
using stats::compute_stats;
using stats::StatsAccumulator;

TEST(Stats, ConstantStream) {
  const std::vector<std::uint64_t> words(10, 0b101);
  const auto s = compute_stats(words, 3);
  EXPECT_EQ(s.transitions, 9u);
  EXPECT_DOUBLE_EQ(s.self[0], 0.0);
  EXPECT_DOUBLE_EQ(s.self[1], 0.0);
  EXPECT_DOUBLE_EQ(s.self[2], 0.0);
  EXPECT_DOUBLE_EQ(s.prob_one[0], 1.0);
  EXPECT_DOUBLE_EQ(s.prob_one[1], 0.0);
  EXPECT_DOUBLE_EQ(s.prob_one[2], 1.0);
}

TEST(Stats, OppositeTogglingGivesNegativeCoupling) {
  // 01 -> 10 -> 01 ... : both bits toggle every cycle in opposite directions.
  std::vector<std::uint64_t> words;
  for (int i = 0; i < 100; ++i) words.push_back(i % 2 ? 0b10 : 0b01);
  const auto s = compute_stats(words, 2);
  EXPECT_DOUBLE_EQ(s.self[0], 1.0);
  EXPECT_DOUBLE_EQ(s.self[1], 1.0);
  EXPECT_DOUBLE_EQ(s.coupling(0, 1), -1.0);
}

TEST(Stats, AlignedTogglingGivesPositiveCoupling) {
  std::vector<std::uint64_t> words;
  for (int i = 0; i < 100; ++i) words.push_back(i % 2 ? 0b11 : 0b00);
  const auto s = compute_stats(words, 2);
  EXPECT_DOUBLE_EQ(s.coupling(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(s.coupling(1, 0), 1.0);
}

TEST(Stats, UniformRandomIsUncorrelatedHalfActive) {
  std::mt19937_64 rng(7);
  std::vector<std::uint64_t> words(200000);
  for (auto& w : words) w = rng();
  const auto s = compute_stats(words, 16);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_NEAR(s.self[i], 0.5, 0.01);
    EXPECT_NEAR(s.prob_one[i], 0.5, 0.01);
    for (std::size_t j = i + 1; j < 16; ++j) EXPECT_NEAR(s.coupling(i, j), 0.0, 0.01);
  }
}

TEST(Stats, TMatrixFollowsEq3) {
  std::vector<std::uint64_t> words;
  for (int i = 0; i < 50; ++i) words.push_back(i % 2 ? 0b11 : 0b00);
  const auto s = compute_stats(words, 2);
  const auto t = reference::t_matrix(s);
  EXPECT_DOUBLE_EQ(t(0, 0), s.self[0]);
  EXPECT_DOUBLE_EQ(t(0, 1), s.self[0] - s.coupling(0, 1));
  // Fully aligned toggling: the coupling term cancels the self term.
  EXPECT_DOUBLE_EQ(t(0, 1), 0.0);
}

TEST(Stats, EpsIsShiftedProbability) {
  const std::vector<std::uint64_t> words(10, 0b01);
  const auto s = compute_stats(words, 2);
  const auto e = s.eps();
  EXPECT_DOUBLE_EQ(e[0], 0.5);
  EXPECT_DOUBLE_EQ(e[1], -0.5);
}

TEST(Stats, AccumulatorGuards) {
  EXPECT_THROW(StatsAccumulator(0), std::invalid_argument);
  EXPECT_THROW(StatsAccumulator(65), std::invalid_argument);
  StatsAccumulator acc(4);
  acc.add(1);
  EXPECT_THROW(acc.finish(), std::logic_error);
  acc.add(2);
  EXPECT_NO_THROW(acc.finish());
}

TEST(Stats, MasksBitsAboveWidth) {
  // Garbage above the declared width must not leak into the statistics.
  const std::vector<std::uint64_t> words{0xF0, 0xF3, 0xF0, 0xF3};
  const auto s = compute_stats(words, 2);
  EXPECT_DOUBLE_EQ(s.self[0], 1.0);
  EXPECT_DOUBLE_EQ(s.self[1], 1.0);
  EXPECT_DOUBLE_EQ(s.coupling(0, 1), 1.0);
}

TEST(Dbt, SignToggleProbability) {
  EXPECT_NEAR(reference::sign_toggle_probability(0.0), 0.5, 1e-12);
  EXPECT_NEAR(reference::sign_toggle_probability(0.9), std::acos(0.9) / phys::pi, 1e-12);
  EXPECT_GT(reference::sign_toggle_probability(-0.9), 0.5);
  EXPECT_THROW(reference::sign_toggle_probability(1.0), std::invalid_argument);
}

TEST(Dbt, UncorrelatedModelIsAllCoinFlips) {
  reference::DbtParams p;
  p.width = 16;
  p.sigma = 1024.0;
  p.rho = 0.0;
  const auto s = reference::dbt_stats(p);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_NEAR(s.self[i], 0.5, 1e-12);
  // MSB pairs still correlate (shared sign), LSB pairs do not.
  EXPECT_NEAR(s.coupling(15, 14), 0.5, 1e-12);
  EXPECT_NEAR(s.coupling(0, 1), 0.0, 1e-12);
}

TEST(Dbt, PositiveCorrelationCalmsTheMsbs) {
  reference::DbtParams p;
  p.width = 16;
  p.sigma = 512.0;
  p.rho = 0.95;
  const auto s = reference::dbt_stats(p);
  EXPECT_LT(s.self[15], 0.15);   // calm sign bit
  EXPECT_NEAR(s.self[0], 0.5, 1e-12);  // busy LSB
  EXPECT_GT(s.coupling(15, 14), 0.0);
}

TEST(Dbt, BreakpointsOrderedAndSigmaMonotone) {
  reference::DbtParams lo;
  lo.sigma = 64.0;
  reference::DbtParams hi;
  hi.sigma = 8192.0;
  EXPECT_LE(reference::dbt_bp0(lo), reference::dbt_bp1(lo));
  EXPECT_LE(reference::dbt_bp0(lo), reference::dbt_bp0(hi));
  EXPECT_LE(reference::dbt_bp1(lo), reference::dbt_bp1(hi));
}

class DbtRhoSweep : public ::testing::TestWithParam<double> {};

TEST_P(DbtRhoSweep, SelfActivityWithinBounds) {
  reference::DbtParams p;
  p.rho = GetParam();
  const auto s = reference::dbt_stats(p);
  for (std::size_t i = 0; i < p.width; ++i) {
    EXPECT_GE(s.self[i], 0.0);
    EXPECT_LE(s.self[i], 1.0);
    for (std::size_t j = 0; j < p.width; ++j) {
      // |E{db_i db_j}| <= sqrt(self_i * self_j) (Cauchy-Schwarz).
      EXPECT_LE(std::abs(s.coupling(i, j)), std::sqrt(s.self[i] * s.self[j]) + 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Rhos, DbtRhoSweep, ::testing::Values(-0.9, -0.5, 0.0, 0.5, 0.9));

}  // namespace
