// SIMD dispatch tests (ctest label: simd).
//
// The contract under test: every dispatch level computes the same results —
// bit-identical for the integer bit-plane statistics, and within eps-scale
// accumulation differences for the floating-point evaluator and multigrid
// smoother kernels. Levels above what the host CPU supports are skipped,
// not failed, so the suite is meaningful on any x86-64 (and trivially green
// on hosts where only `scalar` exists).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/evaluator.hpp"
#include "core/link.hpp"
#include "field/multigrid.hpp"
#include "opt/parallel.hpp"
#include "simd/dispatch.hpp"
#include "simd/mt19937_64.hpp"
#include "stats/switching_stats.hpp"
#include "streams/random_streams.hpp"

namespace {

using namespace tsvcod;
using simd::Level;

TEST(SimdDispatch, LevelNamesRoundTrip) {
  for (const Level l : {Level::scalar, Level::popcnt, Level::avx2, Level::avx512}) {
    EXPECT_EQ(simd::parse_level(simd::level_name(l)), l);
  }
  EXPECT_THROW(simd::parse_level(""), std::invalid_argument);
  try {
    simd::parse_level("avx9000");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("avx9000"), std::string::npos) << e.what();
  }
}

TEST(SimdDispatch, ScopedLevelClampsAndRestores) {
  const Level before = simd::active_level();
  {
    simd::ScopedLevel guard(Level::scalar);
    EXPECT_EQ(simd::active_level(), Level::scalar);
    {
      // Nested scopes: innermost force wins, outer force comes back.
      simd::ScopedLevel inner(Level::popcnt);
      EXPECT_EQ(simd::active_level(),
                std::min(Level::popcnt, simd::detected_level()));
    }
    EXPECT_EQ(simd::active_level(), Level::scalar);
  }
  EXPECT_EQ(simd::active_level(), before);
}

TEST(SimdDispatch, ForcingNeverRaisesAboveDetected) {
  simd::ScopedLevel guard(Level::avx512);
  EXPECT_LE(static_cast<int>(simd::active_level()), static_cast<int>(simd::detected_level()));
}

// ---------------------------------------------------------------------------
// Cross-level equality, parameterized on the forced dispatch level.
// ---------------------------------------------------------------------------

class LevelSweep : public ::testing::TestWithParam<Level> {
 protected:
  void SetUp() override {
    if (GetParam() > simd::detected_level()) {
      GTEST_SKIP() << "host CPU lacks " << simd::level_name(GetParam());
    }
  }
};

stats::SwitchingStats make_stats(std::size_t width, std::uint64_t seed) {
  streams::SequentialStream src(width, 0.1, seed);
  stats::StatsAccumulator acc(width);
  for (int i = 0; i < 20000; ++i) acc.add(src.next());
  return acc.finish();
}

// Move scoring must agree across every dispatch level (n = 25
// exercises the AVX-512 main loop and a 1-lane scalar tail).
TEST_P(LevelSweep, EvaluatorScoresMatchScalar) {
  auto geom = phys::TsvArrayGeometry::itrs2018_min(5, 5);
  const auto model = tsv::fit_from_analytic(geom);
  const auto st = make_stats(25, 31);

  std::mt19937_64 rng(5);
  std::uniform_int_distribution<std::size_t> pick(0, 24);
  std::vector<core::PowerEvaluator::Move> moves;
  for (int i = 0; i < 96; ++i) {
    if (rng() % 3 == 0) {
      moves.push_back({true, pick(rng), 0});
    } else {
      moves.push_back({false, pick(rng), pick(rng)});
    }
  }

  const auto run = [&](Level level) {
    simd::ScopedLevel guard(level);
    core::PowerEvaluator ev(st, model, core::SignedPermutation::identity(25));
    for (int i = 0; i < 30; ++i) ev.swap_bits(pick(rng) % 25, 24 - pick(rng) % 25);
    std::vector<double> scores;
    for (const auto& m : moves) scores.push_back(ev.score(m).power);
    scores.push_back(ev.power());
    return scores;
  };
  // Identical RNG state for both runs so both walk the same path.
  const auto rng_save = rng;
  const auto want = run(Level::scalar);
  rng = rng_save;
  const auto got = run(GetParam());
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < want.size(); ++k) {
    const double scale = std::abs(want[k]) + 1e-30;
    EXPECT_NEAR(got[k] / scale, want[k] / scale, 1e-10) << "score " << k;
  }
}

// Bit-plane switching statistics are integer counts: every level must be
// bit-identical, not merely close. The widths cover a single line, the
// narrow and the full-width AVX-512 pair loops and their scalar edges; 5000
// words leave a partial block for the scalar tail.
TEST_P(LevelSweep, SwitchingStatsBitIdentical) {
  for (const std::size_t width : {1, 8, 23, 33, 63, 64}) {
    std::mt19937_64 rng(77 + width);
    std::vector<std::uint64_t> words(5000);
    std::uint64_t cur = rng();
    for (auto& w : words) {
      cur = rng() % 16 == 0 ? rng() : cur ^ (rng() & rng());  // sticky toggles, some jumps
      w = cur;
    }

    const auto run = [&](Level level) {
      simd::ScopedLevel guard(level);
      return stats::compute_stats(words, width, 1);
    };
    const auto want = run(Level::scalar);
    const auto got = run(GetParam());
    EXPECT_EQ(got.transitions, want.transitions) << "w=" << width;
    for (std::size_t i = 0; i < width; ++i) {
      EXPECT_EQ(got.self[i], want.self[i]) << "w=" << width << " line " << i;
      EXPECT_EQ(got.prob_one[i], want.prob_one[i]) << "w=" << width << " line " << i;
      for (std::size_t j = 0; j < width; ++j) {
        EXPECT_EQ(got.coupling(i, j), want.coupling(i, j))
            << "w=" << width << " coupling(" << i << "," << j << ")";
      }
    }
  }
}

// A small multigrid hierarchy with an interior conductor disk: the
// Gauss-Seidel smoother, the residual, and the full V-cycle must agree
// across levels.
class SmootherSweep : public LevelSweep {
 protected:
  static constexpr std::size_t kN = 49;  // odd: exercises every vector tail

  static std::vector<std::uint8_t> make_dirichlet() {
    std::vector<std::uint8_t> d(kN * kN, 0);
    const double c = kN / 2.0, r = kN / 7.0;
    for (std::size_t iy = 0; iy < kN; ++iy) {
      for (std::size_t ix = 0; ix < kN; ++ix) {
        const double dx = ix + 0.5 - c, dy = iy + 0.5 - c;
        if (dx * dx + dy * dy < r * r) d[iy * kN + ix] = 1;
      }
    }
    return d;
  }

  static std::vector<field::Complex> make_eps(const std::vector<std::uint8_t>& dir) {
    std::vector<field::Complex> eps(kN * kN);
    std::mt19937_64 rng(11);
    std::uniform_real_distribution<double> u(1.0, 12.0);
    for (std::size_t i = 0; i < eps.size(); ++i) {
      eps[i] = dir[i] ? field::Complex{11.9, -59.9} : field::Complex{u(rng), -0.1 * u(rng)};
    }
    return eps;
  }

  static std::vector<field::Complex> make_rhs(std::uint64_t seed) {
    std::vector<field::Complex> rhs(kN * kN);
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    for (auto& v : rhs) v = field::Complex{u(rng), u(rng)};
    return rhs;
  }

  static double max_rel_diff(const std::vector<field::Complex>& a,
                             const std::vector<field::Complex>& b) {
    double scale = 1e-30, diff = 0.0;
    for (const auto& v : a) scale = std::max(scale, std::abs(v));
    for (std::size_t i = 0; i < a.size(); ++i) diff = std::max(diff, std::abs(a[i] - b[i]));
    return diff / scale;
  }
};

TEST_P(SmootherSweep, SmoothersAndResidualMatchScalar) {
  const auto dir = make_dirichlet();
  const auto eps = make_eps(dir);
  const field::Multigrid mg(kN, kN, dir, eps);
  const auto rhs = make_rhs(3);

  const auto run = [&](Level level) {
    simd::ScopedLevel guard(level);
    std::vector<field::Complex> x(kN * kN, field::Complex{});
    mg.apply_smoother(rhs, x, 3);
    std::vector<field::Complex> res(kN * kN, field::Complex{});
    mg.apply_residual(rhs, x, res);
    x.insert(x.end(), res.begin(), res.end());
    return x;
  };
  const auto want = run(Level::scalar);
  const auto got = run(GetParam());
  EXPECT_LT(max_rel_diff(got, want), 1e-12);
}

TEST_P(SmootherSweep, VCycleMatchesScalar) {
  const auto dir = make_dirichlet();
  const auto eps = make_eps(dir);
  const field::Multigrid mg(kN, kN, dir, eps);
  const auto rhs = make_rhs(9);

  const auto run = [&](Level level) {
    simd::ScopedLevel guard(level);
    auto ws = mg.make_workspace();
    std::vector<field::Complex> z(kN * kN, field::Complex{});
    mg.v_cycle(rhs, z, ws);
    return z;
  };
  const auto want = run(Level::scalar);
  const auto got = run(GetParam());
  EXPECT_LT(max_rel_diff(got, want), 1e-12);
}

// The library's engine must be std::mt19937_64 draw for draw: raw words over
// five state refills for edge and derived seeds, and the values the standard
// distributions draw from it (the libstdc++ adaptors read only min(), max()
// and the raw words). Its twist does not dispatch; the sweep holds it to the
// same bits at every forced level all the same.
TEST_P(LevelSweep, Mt19937_64MatchesStdEngine) {
  simd::ScopedLevel guard(GetParam());
  std::vector<std::uint64_t> seeds = {0, 1, 5489, ~std::uint64_t{0}};
  for (std::size_t i = 0; i < 4; ++i) seeds.push_back(opt::deterministic_seed(42, i));
  for (const std::uint64_t seed : seeds) {
    std::mt19937_64 want(seed);
    simd::Mt19937_64 got(seed);
    for (int i = 0; i < 4 * 312 + 7; ++i) {
      ASSERT_EQ(got(), want()) << "seed " << seed << " draw " << i;
    }
    std::uniform_int_distribution<int> kind_w(0, 2), kind_g(0, 2);
    std::uniform_int_distribution<std::size_t> pick_w(0, 32), pick_g(0, 32);
    std::uniform_int_distribution<std::uint64_t> wide_w(0, 1ull << 40), wide_g(0, 1ull << 40);
    std::uniform_real_distribution<double> uni_w(0.0, 1.0), uni_g(0.0, 1.0);
    std::uniform_real_distribution<double> dc_w(-2.0, 2.0), dc_g(-2.0, 2.0);
    std::normal_distribution<double> normal_w(0.0, 1.0), normal_g(0.0, 1.0);
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(kind_g(got), kind_w(want)) << "seed " << seed << " round " << i;
      ASSERT_EQ(pick_g(got), pick_w(want)) << "seed " << seed << " round " << i;
      ASSERT_EQ(wide_g(got), wide_w(want)) << "seed " << seed << " round " << i;
      ASSERT_EQ(uni_g(got), uni_w(want)) << "seed " << seed << " round " << i;
      ASSERT_EQ(dc_g(got), dc_w(want)) << "seed " << seed << " round " << i;
      ASSERT_EQ(normal_g(got), normal_w(want)) << "seed " << seed << " round " << i;
    }
  }
  // The standard's own check ([rand.predef]): the 10000th draw of a
  // default-seeded mt19937_64.
  simd::Mt19937_64 standard(5489);
  std::uint64_t draw = 0;
  for (int i = 0; i < 10000; ++i) draw = standard();
  EXPECT_EQ(draw, 9981545732273789042ull);
}

// The evaluator caches each line's row-kernel sum until the next commit or
// reset. Scores priced from a warm cache must equal, bit for bit, those of
// an evaluator that has never scored: after a reset, through a copy, and
// along a chain of applied moves. Width 33 is the NoC bundle's (32 payload
// lines plus the bus-invert flag), so every vector clone runs a tail.
TEST_P(LevelSweep, WarmRowCacheScoresMatchColdEvaluator) {
  simd::ScopedLevel guard(GetParam());
  constexpr std::size_t kWidth = 33;
  const auto model = tsv::fit_from_analytic(phys::TsvArrayGeometry::itrs2018_relaxed(3, 11));
  const auto st = make_stats(kWidth, 9);
  std::mt19937_64 rng(3);
  std::uniform_int_distribution<std::size_t> pick(0, kWidth - 1);
  std::vector<core::PowerEvaluator::Move> probes(48);
  for (auto& m : probes) {
    m = rng() % 3 == 0 ? core::PowerEvaluator::Move{true, pick(rng), 0}
                       : core::PowerEvaluator::Move{false, pick(rng), pick(rng)};
  }
  const auto expect_same_scores = [&](const core::PowerEvaluator& warm,
                                      const core::PowerEvaluator& cold, const std::string& what) {
    ASSERT_EQ(warm.power(), cold.power()) << what;
    for (std::size_t k = 0; k < probes.size(); ++k) {
      const auto w = warm.score(probes[k]);
      const auto c = core::PowerEvaluator(cold).score(probes[k]);
      EXPECT_EQ(w.power, c.power) << what << ", probe " << k;
      EXPECT_EQ(w.before, c.before) << what << ", probe " << k;
    }
  };

  // Applies: both evaluators take the same moves through score() + apply();
  // only `warm` prices every probe in between.
  core::PowerEvaluator warm(st, model, core::SignedPermutation::identity(kWidth));
  core::PowerEvaluator lean = warm;
  for (int step = 0; step < 24; ++step) {
    for (const auto& m : probes) warm.score(m);
    expect_same_scores(warm, lean, "step " + std::to_string(step));
    const core::PowerEvaluator::Move m = probes[(step * 7) % probes.size()];
    warm.apply(m, warm.score(m));
    lean.apply(m, core::PowerEvaluator(lean).score(m));
  }
  // Resets: a reset evaluator with a warmed cache against a fresh one.
  warm.reset(warm.assignment());
  for (const auto& m : probes) warm.score(m);
  const core::PowerEvaluator fresh(st, model, warm.assignment());
  expect_same_scores(warm, fresh, "after reset");
  // Copies carry the cache along.
  const core::PowerEvaluator copy = warm;
  expect_same_scores(copy, fresh, "copy");
}

INSTANTIATE_TEST_SUITE_P(Levels, LevelSweep,
                         ::testing::Values(Level::scalar, Level::popcnt, Level::avx2,
                                           Level::avx512),
                         [](const ::testing::TestParamInfo<Level>& info) {
                           return std::string(simd::level_name(info.param));
                         });
INSTANTIATE_TEST_SUITE_P(Levels, SmootherSweep,
                         ::testing::Values(Level::scalar, Level::popcnt, Level::avx2,
                                           Level::avx512),
                         [](const ::testing::TestParamInfo<Level>& info) {
                           return std::string(simd::level_name(info.param));
                         });

}  // namespace
