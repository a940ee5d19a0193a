// Unit tests for the core contribution: signed permutations, the <T,C> power
// model, systematic mappings and the assignment optimizers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <set>
#include <vector>

#include "coding/factory.hpp"
#include "core/assignment.hpp"
#include "core/link.hpp"
#include "core/mappings.hpp"
#include "core/optimize.hpp"
#include "core/power.hpp"
#include "simd/dispatch.hpp"
#include "stats/bitplane.hpp"
#include "streams/random_streams.hpp"

#include "reference.hpp"

namespace {

using namespace tsvcod;
using core::SignedPermutation;
using phys::TsvArrayGeometry;

stats::SwitchingStats stats_of(std::span<const std::uint64_t> words, std::size_t width) {
  return stats::compute_stats(words, width);
}

TEST(SignedPermutation, IdentityBasics) {
  const auto p = SignedPermutation::identity(4);
  EXPECT_EQ(p.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(p.line_of_bit(i), i);
    EXPECT_EQ(p.bit_of_line(i), i);
    EXPECT_FALSE(p.inverted(i));
  }
  EXPECT_EQ(p.apply_word(0b1010), 0b1010u);
}

TEST(SignedPermutation, ExplicitConstructionValidates) {
  EXPECT_NO_THROW(SignedPermutation({2, 0, 1}, {0, 1, 0}));
  EXPECT_THROW(SignedPermutation({0, 0, 1}, {0, 0, 0}), std::invalid_argument);
  EXPECT_THROW(SignedPermutation({0, 1, 3}, {0, 0, 0}), std::invalid_argument);
  EXPECT_THROW(SignedPermutation({0, 1, 2}, {0, 0}), std::invalid_argument);
  EXPECT_THROW(SignedPermutation(0), std::invalid_argument);
}

TEST(SignedPermutation, SwapAndToggle) {
  auto p = SignedPermutation::identity(3);
  p.swap_bits(0, 2);
  EXPECT_EQ(p.line_of_bit(0), 2u);
  EXPECT_EQ(p.line_of_bit(2), 0u);
  EXPECT_EQ(p.bit_of_line(2), 0u);
  p.toggle_inversion(1);
  EXPECT_TRUE(p.inverted(1));
  // word 0b001 -> bit0 to line2; bit1 (0) inverted to 1 on line1.
  EXPECT_EQ(p.apply_word(0b001), 0b110u);
}

TEST(SignedPermutation, MatrixMatchesPaperExample) {
  // Paper Eq. 5: bit 3 negated to line 1, bit 1 to line 2, bit 2 to line 3.
  // (1-based in the paper; 0-based here.)
  const SignedPermutation p({1, 2, 0}, {0, 0, 1});  // bit2 -> line0 inverted
  const auto a = reference::permutation_matrix(p);
  EXPECT_DOUBLE_EQ(a(0, 2), -1.0);
  EXPECT_DOUBLE_EQ(a(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(a(2, 1), 1.0);
  // Exactly one +-1 per row and column.
  for (std::size_t r = 0; r < 3; ++r) {
    int nonzero = 0;
    for (std::size_t c = 0; c < 3; ++c) {
      if (a(r, c) != 0.0) ++nonzero;
    }
    EXPECT_EQ(nonzero, 1);
  }
}

TEST(SignedPermutation, ApplyMatchesMatrixAlgebra) {
  // T'_c = A T_c A^T (Eq. 4), checked against the direct transform.
  std::mt19937_64 rng(3);
  streams::UniformRandomStream src(5, 17);
  std::vector<std::uint64_t> words;
  for (int i = 0; i < 4000; ++i) words.push_back(src.next());
  const auto s = stats_of(words, 5);

  auto p = SignedPermutation::random(5, rng, std::vector<std::uint8_t>(5, 1));
  const auto line_stats = p.apply(s);
  const auto a = reference::permutation_matrix(p);
  const auto tc_lines = a * s.coupling * a.transposed();
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      if (i == j) continue;  // diagonal of `coupling` holds self terms (sign-free)
      EXPECT_NEAR(line_stats.coupling(i, j), tc_lines(i, j), 1e-12);
    }
  }
}

TEST(SignedPermutation, ApplyEqualsStatsOfMappedStream) {
  // Property: statistics transformed by apply() == statistics measured on the
  // physically mapped words. This is the core correctness property.
  std::mt19937_64 rng(11);
  for (int round = 0; round < 5; ++round) {
    streams::SequentialStream src(6, 0.2, 100 + static_cast<std::uint64_t>(round));
    std::vector<std::uint64_t> words;
    for (int i = 0; i < 3000; ++i) words.push_back(src.next());
    const auto bit_stats = stats_of(words, 6);

    const auto p = SignedPermutation::random(6, rng, std::vector<std::uint8_t>(6, 1));
    std::vector<std::uint64_t> mapped;
    mapped.reserve(words.size());
    for (const auto w : words) mapped.push_back(p.apply_word(w));
    const auto measured = stats_of(mapped, 6);
    const auto transformed = p.apply(bit_stats);

    for (std::size_t i = 0; i < 6; ++i) {
      EXPECT_NEAR(transformed.self[i], measured.self[i], 1e-12);
      EXPECT_NEAR(transformed.prob_one[i], measured.prob_one[i], 1e-12);
      for (std::size_t j = 0; j < 6; ++j) {
        EXPECT_NEAR(transformed.coupling(i, j), measured.coupling(i, j), 1e-12);
      }
    }
  }
}

TEST(SignedPermutation, CountRelabelEqualsCountsOfMappedStream) {
  // The exact form: counts relabeled by apply() equal, integer for integer,
  // the counts of the mapped words, at widths 1 to 64. The bit-space stream
  // starts at unapply_word(0), so the line stream starts at 0 (a latch at
  // power-on), which also pins the first word's ones.
  std::mt19937_64 rng(12);
  for (const std::size_t width : {1, 2, 5, 33, 63, 64}) {
    for (int round = 0; round < 4; ++round) {
      const auto p = SignedPermutation::random(width, rng, std::vector<std::uint8_t>(width, 1));
      std::vector<std::uint64_t> bits{p.unapply_word(0)};
      for (int i = 0; i < 300; ++i) bits.push_back(rng() & (rng() | rng()));
      std::vector<std::uint64_t> lines;
      for (const auto w : bits) lines.push_back(p.apply_word(w));
      ASSERT_EQ(lines.front(), 0u);
      const auto want = stats::compute_counts(lines, width);
      const auto got = p.apply(stats::compute_counts(bits, width));
      EXPECT_EQ(got.words, want.words);
      EXPECT_EQ(got.transitions, want.transitions);
      EXPECT_EQ(got.ones, want.ones) << "width " << width;
      EXPECT_EQ(got.self, want.self) << "width " << width;
      for (std::size_t i = 0; i < width; ++i) {
        for (std::size_t j = i + 1; j < width; ++j) {
          ASSERT_EQ(got.at(i, j), want.at(i, j)) << "width " << width << " pair " << i << "," << j;
        }
      }
    }
  }
  EXPECT_THROW(SignedPermutation::identity(4).apply(stats::SwitchingCounts(5)),
               std::invalid_argument);
}

TEST(SignedPermutation, RandomRespectsInvertMask) {
  std::mt19937_64 rng(5);
  const std::vector<std::uint8_t> allow{1, 0, 1, 0};
  for (int i = 0; i < 50; ++i) {
    const auto p = SignedPermutation::random(4, rng, allow);
    EXPECT_FALSE(p.inverted(1));
    EXPECT_FALSE(p.inverted(3));
  }
}

TEST(Power, MatchesFrobeniusForm) {
  streams::UniformRandomStream src(4, 2);
  std::vector<std::uint64_t> words;
  for (int i = 0; i < 2000; ++i) words.push_back(src.next());
  const auto s = stats_of(words, 4);
  auto geom = TsvArrayGeometry::itrs2018_min(2, 2);
  const auto c = tsv::analytic_capacitance(geom, std::vector<double>(4, 0.5));
  EXPECT_NEAR(core::normalized_power(s, c), reference::frobenius(reference::t_matrix(s), c),
              1e-20);
}

TEST(Power, HandComputedTwoLineCase) {
  // Two lines toggling in opposite directions every cycle.
  std::vector<std::uint64_t> words;
  for (int i = 0; i < 100; ++i) words.push_back(i % 2 ? 0b10 : 0b01);
  const auto s = stats_of(words, 2);
  phys::Matrix c(2, 2);
  c(0, 0) = c(1, 1) = 1.0;  // ground caps
  c(0, 1) = c(1, 0) = 2.0;  // coupling cap
  // P = self0*C00 + self1*C11 + (self0 - k)*C01 + (self1 - k)*C10
  //   = 1 + 1 + (1 - (-1))*2 * 2 = 2 + 8 = 10.
  EXPECT_NEAR(core::normalized_power(s, c), 10.0, 1e-12);
}

TEST(Power, BitExactEnergyMatchesExpectation) {
  // Accumulating (db_i^2 C_ii + sum_{i<j} (db_i - db_j)^2 C_ij) per cycle
  // over the stream must equal <T, C> exactly (it is its empirical mean).
  streams::SequentialStream src(6, 0.3, 9);
  std::vector<std::uint64_t> words;
  for (int i = 0; i < 5000; ++i) words.push_back(src.next());
  const auto s = stats_of(words, 6);
  auto geom = TsvArrayGeometry::itrs2018_min(2, 3);
  const auto c = tsv::analytic_capacitance(geom, std::vector<double>(6, 0.5));

  double energy = 0.0;
  for (std::size_t t = 1; t < words.size(); ++t) {
    for (std::size_t i = 0; i < 6; ++i) {
      const int dbi = static_cast<int>((words[t] >> i) & 1u) -
                      static_cast<int>((words[t - 1] >> i) & 1u);
      energy += static_cast<double>(dbi * dbi) * c(i, i);
      for (std::size_t j = i + 1; j < 6; ++j) {
        const int dbj = static_cast<int>((words[t] >> j) & 1u) -
                        static_cast<int>((words[t - 1] >> j) & 1u);
        const int d = dbi - dbj;
        energy += static_cast<double>(d * d) * c(i, j);
      }
    }
  }
  energy /= static_cast<double>(words.size() - 1);
  EXPECT_NEAR(core::normalized_power(s, c), energy, 1e-15 * energy + 1e-25);
}

TEST(Mappings, RingOrderCoversArrayOnce) {
  auto geom = TsvArrayGeometry::itrs2018_min(3, 4);
  const auto order = core::ring_order(geom);
  EXPECT_EQ(order.size(), 12u);
  EXPECT_EQ(std::set<std::size_t>(order.begin(), order.end()).size(), 12u);
  EXPECT_EQ(order.front(), geom.index(0, 0));
  // Last ring element of a 3x4 is the inner 1x2 row.
  EXPECT_EQ(order.back(), geom.index(1, 2));
}

TEST(Mappings, SpiralOrderClassesAscend) {
  auto geom = TsvArrayGeometry::itrs2018_min(4, 4);
  const auto order = core::spiral_order(geom);
  // Corners first (4), then edges (8), then middle (4): 2, 3, then 4
  // direct neighbours.
  for (std::size_t k = 0; k < 16; ++k) {
    EXPECT_EQ(geom.direct_neighbor_count(order[k]), k < 4 ? 2 : k < 12 ? 3 : 4) << k;
  }
}

TEST(Mappings, SawtoothOrderMatchesFig1b) {
  auto geom = TsvArrayGeometry::itrs2018_min(4, 4);
  const auto order = core::sawtooth_order(geom);
  // First two rows, zigzag by column.
  EXPECT_EQ(order[0], geom.index(0, 0));
  EXPECT_EQ(order[1], geom.index(1, 0));
  EXPECT_EQ(order[2], geom.index(0, 1));
  EXPECT_EQ(order[3], geom.index(1, 1));
  EXPECT_EQ(order[7], geom.index(1, 3));
  // Then row-major rows 2 and 3.
  EXPECT_EQ(order[8], geom.index(2, 0));
  EXPECT_EQ(order[15], geom.index(3, 3));
}

TEST(Mappings, GreedyCouplingStartsAtStrongestPair) {
  auto geom = TsvArrayGeometry::itrs2018_min(3, 3);
  const auto c = tsv::analytic_capacitance(geom, std::vector<double>(9, 0.5));
  const auto order = reference::greedy_coupling_order(c);
  EXPECT_EQ(order.size(), 9u);
  EXPECT_EQ(std::set<std::size_t>(order.begin(), order.end()).size(), 9u);
  // The strongest couplings are corner-to-adjacent-edge.
  const auto neighbours = [&](std::size_t k) { return geom.direct_neighbor_count(order[k]); };
  const bool corner_first = neighbours(0) == 2 || neighbours(1) == 2;
  const bool edge_involved = neighbours(0) == 3 || neighbours(1) == 3;
  EXPECT_TRUE(corner_first);
  EXPECT_TRUE(edge_involved);
  EXPECT_NEAR(geom.distance(order[0], order[1]), geom.pitch, 1e-12);
}

TEST(Mappings, RanksAreStablePermutations) {
  streams::GaussianAr1Stream src(8, 20.0, 0.5, 21);
  std::vector<std::uint64_t> words;
  for (int i = 0; i < 20000; ++i) words.push_back(src.next());
  const auto s = stats_of(words, 8);
  const auto by_self = core::rank_by_self_switching(s);
  const auto by_corr = core::rank_by_correlation(s);
  EXPECT_EQ(std::set<std::size_t>(by_self.begin(), by_self.end()).size(), 8u);
  EXPECT_EQ(std::set<std::size_t>(by_corr.begin(), by_corr.end()).size(), 8u);
  // Correlation rank must lead with the MSB region (sign bits correlate).
  EXPECT_GE(by_corr[0], 5u);
  // Self-switching rank must lead with a busy LSB-region bit.
  EXPECT_LE(by_self[0], 4u);
}

TEST(Optimize, MatchesExhaustiveOnSmallArray) {
  // Ground truth: SA must find the exhaustive optimum (2x2, inversions on).
  auto geom = TsvArrayGeometry::itrs2018_min(2, 2);
  const core::Link link(geom);
  streams::GaussianAr1Stream src(4, 3.0, 0.4, 5);
  std::vector<std::uint64_t> words;
  for (int i = 0; i < 20000; ++i) words.push_back(src.next());
  const auto s = stats_of(words, 4);

  core::OptimizeOptions opts;
  opts.schedule.iterations = 4000;
  const auto sa = core::optimize_assignment(s, link.model(), opts);
  const auto ex = core::exhaustive_optimal(s, link.model(), opts);
  EXPECT_NEAR(sa.power, ex.power, 1e-9 * std::abs(ex.power));
  EXPECT_LE(ex.power, sa.power + 1e-18);
}

TEST(Optimize, ExhaustiveRejectsHugeSpaces) {
  auto geom = TsvArrayGeometry::itrs2018_min(4, 4);
  const core::Link link(geom);
  streams::UniformRandomStream src(16, 1);
  std::vector<std::uint64_t> words;
  for (int i = 0; i < 100; ++i) words.push_back(src.next());
  const auto s = stats_of(words, 16);
  EXPECT_THROW(core::exhaustive_optimal(s, link.model()), std::invalid_argument);
}

TEST(Optimize, InversionExploitsNegativeCorrelation) {
  // Complementary toggling bit pairs: with inversions the optimizer must do
  // strictly better than without (paper Sec. 3).
  auto geom = TsvArrayGeometry::itrs2018_min(2, 2);
  const core::Link link(geom);
  std::vector<std::uint64_t> words;
  std::mt19937_64 rng(3);
  std::uint64_t w = 0b0101;
  for (int i = 0; i < 8000; ++i) {
    if (rng() & 1u) w ^= 0b0011;  // bits 0,1 toggle together...
    if (rng() & 1u) w ^= 0b1100;
    words.push_back(w ^ 0b0110);  // ...but lines 1,2 are transmitted negated
  }
  const auto s = stats_of(words, 4);

  core::OptimizeOptions with_inv;
  with_inv.schedule.iterations = 3000;
  core::OptimizeOptions no_inv = with_inv;
  no_inv.allow_invert.assign(4, 0);
  const auto a = core::exhaustive_optimal(s, link.model(), with_inv);
  const auto b = core::exhaustive_optimal(s, link.model(), no_inv);
  EXPECT_LT(a.power, b.power * 0.999);
}

TEST(Optimize, InversionExploitsMosEffect) {
  // A line stable at 0 has eps = -1/2 and the largest capacitance; inverting
  // it to a stable 1 shrinks every capacitance it touches. The optimizer
  // must take that win.
  auto geom = TsvArrayGeometry::itrs2018_min(2, 2);
  const core::Link link(geom);
  streams::UniformRandomStream inner(3, 4);
  std::vector<std::uint64_t> words;
  for (int i = 0; i < 20000; ++i) words.push_back(inner.next());  // bit 3 stays 0
  const auto s = stats_of(words, 4);

  const auto res = core::exhaustive_optimal(s, link.model());
  EXPECT_TRUE(res.assignment.inverted(3));
}

TEST(Optimize, RespectsForbiddenInversions) {
  auto geom = TsvArrayGeometry::itrs2018_min(2, 2);
  const core::Link link(geom);
  streams::UniformRandomStream inner(3, 4);
  std::vector<std::uint64_t> words;
  for (int i = 0; i < 5000; ++i) words.push_back(inner.next());
  const auto s = stats_of(words, 4);

  core::OptimizeOptions opts;
  opts.allow_invert = {1, 1, 1, 0};  // bit 3 is a ground line: never invert
  opts.schedule.iterations = 2000;
  const auto sa = core::optimize_assignment(s, link.model(), opts);
  EXPECT_FALSE(sa.assignment.inverted(3));
  const auto ex = core::exhaustive_optimal(s, link.model(), opts);
  EXPECT_FALSE(ex.assignment.inverted(3));
}

TEST(Optimize, RandomBaselineOrdering) {
  auto geom = TsvArrayGeometry::itrs2018_min(2, 3);
  const core::Link link(geom);
  streams::SequentialStream src(6, 0.05, 6);
  std::vector<std::uint64_t> words;
  for (int i = 0; i < 10000; ++i) words.push_back(src.next());
  const auto s = stats_of(words, 6);

  const auto base = core::random_assignment_power(s, link.model(), 100);
  EXPECT_LE(base.best, base.mean);
  EXPECT_LE(base.mean, base.worst);
  const auto opt = core::exhaustive_optimal(s, link.model());
  EXPECT_LE(opt.power, base.best + 1e-18);
}

TEST(Optimize, RejectsEmptyBudgetNamingTheField) {
  const core::Link link(TsvArrayGeometry::itrs2018_min(2, 2));
  streams::UniformRandomStream src(4, 2);
  std::vector<std::uint64_t> words;
  for (int i = 0; i < 500; ++i) words.push_back(src.next());
  const auto s = stats_of(words, 4);

  const auto expect_rejected = [&](const core::OptimizeOptions& bad, const std::string& field) {
    SCOPED_TRACE(field);
    const auto names_field = [&](auto&& call) {
      try {
        call();
        ADD_FAILURE() << "accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
      }
    };
    names_field([&] { bad.validate(4); });
    names_field([&] { core::optimize_assignment(s, link.model(), bad); });
    names_field([&] { core::greedy_descent(s, link.model(), bad); });
    names_field([&] { core::exhaustive_optimal(s, link.model(), bad); });
    const std::vector<stats::SwitchingStats> batch{s};
    names_field([&] { core::optimize_assignments(batch, link.model(), bad); });
  };
  core::OptimizeOptions bad;
  bad.schedule.iterations = 0;
  expect_rejected(bad, "schedule.iterations");
  bad = {};
  bad.schedule.restarts = -1;
  expect_rejected(bad, "schedule.restarts");
  bad = {};
  bad.chains = 0;
  expect_rejected(bad, "chains");
  bad = {};
  bad.threads = -2;
  expect_rejected(bad, "threads");
  bad = {};
  bad.allow_invert = {1, 0, 1};
  expect_rejected(bad, "allow_invert");

  core::OptimizeOptions ok;
  ok.schedule = {1, 1};
  ok.chains = 1;
  ok.allow_invert.assign(4, 0);
  EXPECT_NO_THROW(ok.validate(4));
}

TEST(Optimize, FlatLandscapeQuenchesSafely) {
  // A never-toggling stream prices every assignment at exactly 0: the
  // calibrated start temperature is 0, the chain must quench instead of
  // dividing by it, and the result stays the identity.
  const core::Link link(TsvArrayGeometry::itrs2018_min(3, 3));
  const std::vector<std::uint64_t> words(1000, 0x0A5);
  const auto s = stats_of(words, 9);

  core::OptimizeOptions opts;
  opts.schedule = {300, 2};
  opts.chains = 3;
  const auto res = core::optimize_assignment(s, link.model(), opts);
  EXPECT_EQ(res.power, 0.0);
  EXPECT_EQ(res.assignment, SignedPermutation::identity(9));
  EXPECT_EQ(res.evaluations, 3u * (1u + 32u + 2u * 300u));
}

TEST(Optimize, ScheduleGoldenAtScalarLevel) {
  // Pins the hard-coded schedule (32 calibration probes, 1e-4 cooling ratio,
  // restarts from the best state) end to end: any change to it moves these
  // bits. The scalar level keeps the move pricing independent of the host.
  simd::ScopedLevel scalar(simd::Level::scalar);
  const core::Link link(TsvArrayGeometry::itrs2018_min(3, 3));
  streams::GaussianAr1Stream src(9, 40.0, 0.6, 17);
  std::vector<std::uint64_t> words;
  for (int i = 0; i < 4000; ++i) words.push_back(src.next());
  const auto s = stats_of(words, 9);

  core::OptimizeOptions opts;
  opts.schedule = {400, 2};
  opts.chains = 2;
  opts.seed = 7;
  const auto res = core::optimize_assignment(s, link.model(), opts);
  std::vector<std::size_t> lines;
  std::vector<int> inverted;
  for (std::size_t b = 0; b < 9; ++b) {
    lines.push_back(res.assignment.line_of_bit(b));
    inverted.push_back(res.assignment.inverted(b) ? 1 : 0);
  }
  EXPECT_EQ(lines, (std::vector<std::size_t>{6, 8, 7, 5, 2, 0, 3, 1, 4}));
  EXPECT_EQ(inverted, (std::vector<int>{1, 1, 0, 0, 0, 0, 0, 0, 0}));
  EXPECT_EQ(res.power, 0x1.fe095fd18051dp-43) << std::hexfloat << res.power;
  EXPECT_EQ(res.evaluations, 2u * (1u + 32u + 2u * 400u));
}

// The annealer skips std::exp below x = -50, where exp(x) < 2^-64 lies under
// every nonzero uniform draw of a 64-bit engine. The shortcut must decide
// exactly as `u < std::exp(x)` on the draws that matter: 0, the smallest
// nonzero draw 2^-64, 2^-53 and 0.5, at x around ln 2^-64 = -44.36, the
// -50 cutoff, and where exp(x) underflows to a subnormal (-745) and to 0
// (-746).
TEST(Optimize, MetropolisCutoffMatchesExp) {
  const double draws[] = {0.0, 0x1p-64, 0x1p-53, 0.5};
  std::vector<double> xs = {0.0, -1.0, -std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN()};
  for (const double centre : {-44.4, -50.0, -745.0, -746.0}) {
    for (int k = -100; k <= 100; ++k) xs.push_back(centre + 0.01 * k);
    xs.push_back(std::nextafter(centre, 0.0));
    xs.push_back(std::nextafter(centre, -1e300));
  }
  for (const double u : draws) {
    for (const double x : xs) {
      EXPECT_EQ(core::metropolis_accept(u, x), u < std::exp(x))
          << std::hexfloat << "u=" << u << " x=" << x;
    }
  }
  // The grid reaches both outcomes on both sides of the cutoff.
  EXPECT_TRUE(core::metropolis_accept(0.0, -700.0));
  EXPECT_FALSE(core::metropolis_accept(0.0, -746.0));
  EXPECT_TRUE(core::metropolis_accept(0x1p-64, -44.3));
  EXPECT_FALSE(core::metropolis_accept(0x1p-64, -44.4));
}

TEST(Link, StudyIsInternallyConsistent) {
  auto geom = TsvArrayGeometry::itrs2018_relaxed(3, 3);
  const core::Link link(geom);
  streams::SequentialStream src(9, 0.02, 12);
  const auto s = link.measure(src, 20000);

  core::StudyOptions opts;
  opts.optimize.schedule.iterations = 5000;
  const auto study = core::study_assignments(link, s, opts);
  EXPECT_LE(study.optimal, study.spiral + 1e-18);
  EXPECT_LE(study.optimal, study.sawtooth + 1e-18);
  EXPECT_LE(study.optimal, study.random_mean);
  EXPECT_LE(study.random_mean, study.random_worst);
  EXPECT_GT(study.reduction_optimal(), 0.0);
  EXPECT_GE(study.reduction_optimal(), study.reduction_spiral() - 1e-9);
}

TEST(Link, MeasureChecksWidth) {
  auto geom = TsvArrayGeometry::itrs2018_min(2, 2);
  const core::Link link(geom);
  streams::UniformRandomStream narrow(3, 1);
  EXPECT_THROW(link.measure(narrow, 100), std::invalid_argument);
}

TEST(Link, ReductionPercentHelpers) {
  EXPECT_DOUBLE_EQ(core::reduction_pct(2.0, 1.0), 50.0);
  EXPECT_DOUBLE_EQ(core::reduction_pct(0.0, 1.0), 0.0);
}

TEST(Link, CodedChainMatchesArrayWidth) {
  const auto geom = TsvArrayGeometry::itrs2018_min(3, 3);
  core::Link link(geom);
  std::mt19937_64 rng(11);
  const auto a = SignedPermutation::random(9, rng, std::vector<std::uint8_t>(9, 1));

  coding::CodecSpec spec;
  spec.name = "bus-invert";  // 9 lines -> 8 payload bits
  auto coded = link.coded(spec, a);
  EXPECT_EQ(coded.payload_width(), 8u);
  EXPECT_EQ(coded.transmitter().width_out(), 9u);
  const auto tx = coding::make_codec_for_lines(spec, 9);
  for (std::uint64_t w = 0; w < 256; ++w) {
    EXPECT_EQ(a.apply_word(tx->encode(w)) >> 9, 0u) << "8 payload bits + 1 flag occupy the 9 lines";
    EXPECT_EQ(coded.roundtrip(w), w);
  }
  EXPECT_THROW(link.coded(spec, SignedPermutation::identity(4)), std::invalid_argument);
}

}  // namespace
