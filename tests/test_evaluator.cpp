// Property tests for the incremental power evaluator: after arbitrary move
// sequences, the running power must equal both its own O(N^2) recomputation
// and the standalone assignment_power() of the tracked assignment.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "core/evaluator.hpp"
#include "core/link.hpp"
#include "simd/dispatch.hpp"
#include "streams/image_sensor.hpp"
#include "streams/random_streams.hpp"

namespace {

using namespace tsvcod;

stats::SwitchingStats make_stats(std::size_t width, std::uint64_t seed) {
  streams::SequentialStream src(width, 0.1, seed);
  stats::StatsAccumulator acc(width);
  for (int i = 0; i < 20000; ++i) acc.add(src.next());
  return acc.finish();
}

class EvaluatorSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EvaluatorSweep, IncrementalMatchesRecompute) {
  const std::size_t rows = GetParam();
  auto geom = phys::TsvArrayGeometry::itrs2018_min(rows, rows);
  const auto model = tsv::fit_from_analytic(geom);
  const auto st = make_stats(geom.count(), 11);

  core::PowerEvaluator ev(st, model, core::SignedPermutation::identity(geom.count()));
  std::mt19937_64 rng(3);
  std::uniform_int_distribution<std::size_t> pick(0, geom.count() - 1);
  for (int move = 0; move < 500; ++move) {
    if (rng() % 3 == 0) {
      ev.toggle_inversion(pick(rng));
    } else {
      ev.swap_bits(pick(rng), pick(rng));
    }
    if (move % 50 == 0) {
      const double scale = std::abs(ev.recompute()) + 1e-30;
      ASSERT_NEAR(ev.power() / scale, ev.recompute() / scale, 1e-9) << "after move " << move;
      ASSERT_NEAR(core::assignment_power(st, ev.assignment(), model) / scale,
                  ev.power() / scale, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ArraySizes, EvaluatorSweep, ::testing::Values(2, 3, 4, 5));

TEST(Evaluator, MovesAreSelfInverse) {
  auto geom = phys::TsvArrayGeometry::itrs2018_min(3, 3);
  const auto model = tsv::fit_from_analytic(geom);
  const auto st = make_stats(9, 4);
  core::PowerEvaluator ev(st, model, core::SignedPermutation::identity(9));
  const double p0 = ev.power();
  const auto a0 = ev.assignment();

  ev.swap_bits(1, 7);
  ev.swap_bits(1, 7);
  EXPECT_EQ(ev.assignment(), a0);
  EXPECT_NEAR(ev.power(), p0, 1e-9 * std::abs(p0));

  ev.toggle_inversion(4);
  ev.toggle_inversion(4);
  EXPECT_EQ(ev.assignment(), a0);
  EXPECT_NEAR(ev.power(), p0, 1e-9 * std::abs(p0));
}

// Long-walk drift property: the incremental power must stay within float
// epsilon of a full recomputation over move sequences an annealing chain
// actually performs (tens of thousands of swaps/toggles, undos included),
// not just the few hundred the sweep above covers.
TEST(Evaluator, LongRandomWalkStaysWithinFloatEpsilon) {
  auto geom = phys::TsvArrayGeometry::itrs2018_relaxed(4, 4);
  const auto model = tsv::fit_from_analytic(geom);
  const auto st = make_stats(16, 13);

  core::PowerEvaluator ev(st, model, core::SignedPermutation::identity(16));
  std::mt19937_64 rng(17);
  std::uniform_int_distribution<std::size_t> pick(0, 15);
  for (int move = 0; move < 30000; ++move) {
    switch (rng() % 4) {
      case 0:
        ev.toggle_inversion(pick(rng));
        break;
      case 1: {  // rejected move: apply then immediately undo (self-inverse)
        const std::size_t a = pick(rng), b = pick(rng);
        ev.swap_bits(a, b);
        ev.swap_bits(a, b);
        break;
      }
      default:
        ev.swap_bits(pick(rng), pick(rng));
        break;
    }
  }
  const double scale = std::abs(ev.recompute()) + 1e-30;
  EXPECT_NEAR(ev.power() / scale, ev.recompute() / scale, 1e-9);
  EXPECT_NEAR(core::assignment_power(st, ev.assignment(), model) / scale, ev.power() / scale,
              1e-9);
}

TEST(Evaluator, NoOpSwapKeepsPower) {
  auto geom = phys::TsvArrayGeometry::itrs2018_min(2, 2);
  const auto model = tsv::fit_from_analytic(geom);
  const auto st = make_stats(4, 5);
  core::PowerEvaluator ev(st, model, core::SignedPermutation::identity(4));
  const double p0 = ev.power();
  EXPECT_DOUBLE_EQ(ev.swap_bits(2, 2), p0);
}

TEST(Evaluator, ResetClearsState) {
  auto geom = phys::TsvArrayGeometry::itrs2018_min(2, 3);
  const auto model = tsv::fit_from_analytic(geom);
  const auto st = make_stats(6, 6);
  core::PowerEvaluator ev(st, model, core::SignedPermutation::identity(6));
  ev.swap_bits(0, 5);
  ev.toggle_inversion(2);

  core::SignedPermutation fresh({2, 0, 1, 3, 5, 4}, {0, 1, 0, 0, 0, 0});
  ev.reset(fresh);
  EXPECT_EQ(ev.assignment(), fresh);
  EXPECT_NEAR(ev.power(), core::assignment_power(st, fresh, model),
              1e-12 * std::abs(ev.power()));
}

TEST(Evaluator, RejectsSizeMismatch) {
  auto geom = phys::TsvArrayGeometry::itrs2018_min(2, 2);
  const auto model = tsv::fit_from_analytic(geom);
  const auto st = make_stats(6, 7);  // 6 bits vs 4-line model
  EXPECT_THROW(core::PowerEvaluator(st, model, core::SignedPermutation::identity(6)),
               std::invalid_argument);
}

// Out-of-range bit indices must throw (naming the index and the width) and
// leave the evaluator untouched — including swap_bits(a, a) with a bad `a`,
// which used to hit the no-op early return before any validation.
TEST(Evaluator, RejectsOutOfRangeBits) {
  auto geom = phys::TsvArrayGeometry::itrs2018_min(2, 2);
  const auto model = tsv::fit_from_analytic(geom);
  const auto st = make_stats(4, 8);
  core::PowerEvaluator ev(st, model, core::SignedPermutation::identity(4));
  const double p0 = ev.power();

  const auto expect_throws = [&](auto&& fn) {
    try {
      fn();
      FAIL() << "expected std::out_of_range";
    } catch (const std::out_of_range& e) {
      EXPECT_NE(std::string(e.what()).find("4"), std::string::npos) << e.what();
      EXPECT_NE(std::string(e.what()).find("width"), std::string::npos) << e.what();
    }
  };
  expect_throws([&] { ev.swap_bits(0, 4); });
  expect_throws([&] { ev.swap_bits(4, 0); });
  expect_throws([&] { ev.swap_bits(4, 4); });
  expect_throws([&] { ev.toggle_inversion(4); });
  expect_throws([&] { ev.score({false, 0, 4}); });
  expect_throws([&] { ev.score({true, 4, 0}); });

  EXPECT_EQ(ev.power(), p0);
  EXPECT_NEAR(ev.power(), ev.recompute(), 1e-9 * std::abs(p0));
}

// Pricing must agree with actually applying each move, and must not mutate
// the evaluator.
TEST(Evaluator, ScoreMovesMatchesApply) {
  auto geom = phys::TsvArrayGeometry::itrs2018_relaxed(3, 3);
  const auto model = tsv::fit_from_analytic(geom);
  const auto st = make_stats(9, 21);
  core::PowerEvaluator ev(st, model, core::SignedPermutation::identity(9));
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<std::size_t> pick(0, 8);
  // Walk away from the identity first so line state differs from bit state.
  for (int i = 0; i < 40; ++i) ev.swap_bits(pick(rng), pick(rng));
  for (int i = 0; i < 10; ++i) ev.toggle_inversion(pick(rng));

  std::vector<core::PowerEvaluator::Move> moves;
  for (int i = 0; i < 64; ++i) {
    if (rng() % 3 == 0) {
      moves.push_back({true, pick(rng), 0});
    } else {
      moves.push_back({false, pick(rng), pick(rng)});
    }
  }
  std::vector<double> scores;
  const double p0 = ev.power();
  for (const auto& m : moves) scores.push_back(ev.score(m).power);
  EXPECT_EQ(ev.power(), p0);  // scoring is const

  const double scale = std::abs(p0) + 1e-30;
  for (std::size_t k = 0; k < moves.size(); ++k) {
    // apply() with the move's Score is the same update as swap_bits /
    // toggle_inversion, bit for bit.
    core::PowerEvaluator twin = ev;
    const double via_score = twin.apply(moves[k], ev.score(moves[k]));
    const double applied =
        moves[k].is_toggle ? ev.toggle_inversion(moves[k].a) : ev.swap_bits(moves[k].a, moves[k].b);
    EXPECT_EQ(via_score, applied) << "move " << k;
    EXPECT_EQ(twin.assignment(), ev.assignment()) << "move " << k;
    EXPECT_NEAR(scores[k] / scale, applied / scale, 1e-10) << "move " << k;
    // Undo (moves are self-inverse) so every score is judged from the same state.
    if (moves[k].is_toggle) {
      ev.toggle_inversion(moves[k].a);
    } else {
      ev.swap_bits(moves[k].a, moves[k].b);
    }
  }

  // Scores leave nothing behind that a fresh evaluator would not compute: a
  // chain prices its temperature probes on the evaluator it then anneals,
  // with no reset in between, so after the probes every score and applied
  // move must match a never-probed twin's bit for bit.
  {
    core::PowerEvaluator probed(st, model, core::SignedPermutation::identity(9));
    core::PowerEvaluator fresh(st, model, core::SignedPermutation::identity(9));
    for (const auto& m : moves) (void)probed.score(m);
    for (std::size_t k = 0; k < moves.size(); ++k) {
      const auto a = probed.score(moves[k]);
      const auto b = fresh.score(moves[k]);
      ASSERT_EQ(a.power, b.power) << "move " << k;
      if (k % 2 == 0) {
        ASSERT_EQ(probed.apply(moves[k], a), fresh.apply(moves[k], b)) << "move " << k;
      }
    }
  }

  // Wide arrays (w = 8..64) against the dense O(N^2) assignment_power of each
  // move applied on its own, at every SIMD level the host supports, from a
  // start with swapped and inverted lines: the main vector loops only run at
  // these widths. Tolerance is 1e-9 of the model's coefficient mass, the
  // evaluator_drift oracle's bound.
  const simd::Level top = simd::detected_level();
  struct Shape {
    std::size_t rows, cols;
  };
  for (const Shape sh : {Shape{2, 4}, Shape{4, 4}, Shape{4, 8}, Shape{8, 8}}) {
    const std::size_t width = sh.rows * sh.cols;
    const auto wide_model =
        tsv::fit_from_analytic(phys::TsvArrayGeometry::itrs2018_min(sh.rows, sh.cols));
    const auto wide_st = make_stats(width, 3);
    double mass = 0.0;
    for (std::size_t i = 0; i < width; ++i) {
      for (std::size_t j = 0; j < width; ++j) {
        mass += std::abs(wide_model.c_ref()(i, j)) + std::abs(wide_model.delta_c()(i, j));
      }
    }
    std::mt19937_64 wide_rng(41);
    std::uniform_int_distribution<std::size_t> wide_pick(0, width - 1);
    std::vector<core::PowerEvaluator::Move> wide_moves(256);
    for (auto& m : wide_moves) {
      const std::size_t a = wide_pick(wide_rng);
      std::size_t b = wide_pick(wide_rng);
      while (b == a) b = wide_pick(wide_rng);
      m = wide_rng() % 3 == 0 ? core::PowerEvaluator::Move{true, a, 0}
                              : core::PowerEvaluator::Move{false, a, b};
    }
    for (int l = 0; l <= static_cast<int>(top); ++l) {
      const auto level = static_cast<simd::Level>(l);
      simd::ScopedLevel guard(level);
      core::PowerEvaluator wide(wide_st, wide_model, core::SignedPermutation::identity(width));
      for (std::size_t i = 0; i + 1 < width; i += 2) wide.swap_bits(i, width - 1 - i);
      for (std::size_t i = 0; i < width; i += 3) wide.toggle_inversion(i);
      for (std::size_t k = 0; k < wide_moves.size(); ++k) {
        core::SignedPermutation a = wide.assignment();
        if (wide_moves[k].is_toggle) {
          a.toggle_inversion(wide_moves[k].a);
        } else {
          a.swap_bits(wide_moves[k].a, wide_moves[k].b);
        }
        EXPECT_NEAR(wide.score(wide_moves[k]).power, core::assignment_power(wide_st, a, wide_model),
                    1e-9 * mass)
            << "w=" << width << " level=" << simd::level_name(level) << " move " << k;
      }
    }
  }
}

// The optimizer built on the evaluator must still beat/match a dense-eval
// exhaustive search (regression guard for the incremental rewrite).
TEST(Evaluator, OptimizerStillFindsExhaustiveOptimum) {
  auto geom = phys::TsvArrayGeometry::itrs2018_relaxed(2, 2);
  const core::Link link(geom);
  streams::GaussianAr1Stream src(4, 3.0, -0.5, 17);
  stats::StatsAccumulator acc(4);
  for (int i = 0; i < 30000; ++i) acc.add(src.next());
  const auto st = acc.finish();

  core::OptimizeOptions opts;
  opts.schedule.iterations = 5000;
  const auto sa = core::optimize_assignment(st, link.model(), opts);
  const auto ex = core::exhaustive_optimal(st, link.model(), opts);
  EXPECT_NEAR(sa.power, ex.power, 1e-9 * std::abs(ex.power));
}

}  // namespace
