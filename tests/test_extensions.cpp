// Tests for the extension features: windowed re-assignment, threaded field
// extraction, and the derived mapping constructions.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/link.hpp"
#include "field/extractor.hpp"
#include "stats/ingest.hpp"
#include "streams/random_streams.hpp"

#include "reference.hpp"

namespace {

using namespace tsvcod;

TEST(ThreadedExtraction, MatchesSerialExactly) {
  auto geom = phys::TsvArrayGeometry::itrs2018_min(2, 2);
  const std::vector<double> pr(4, 0.5);
  field::ExtractionOptions serial;
  serial.cell = 0.2e-6;
  field::ExtractionOptions threaded = serial;
  threaded.threads = 4;
  const auto a = field::extract_capacitance(geom, pr, serial);
  const auto b = field::extract_capacitance(geom, pr, threaded);
  ASSERT_TRUE(a.all_converged());
  ASSERT_TRUE(b.all_converged());
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(a.paper(i, j), b.paper(i, j));
    }
  }
}

TEST(Mappings, GreedyCouplingCompetitiveWithSawtooth) {
  // The paper derives Sawtooth as the closed form of the greedy
  // max-accumulated-coupling recursion; on Gaussian statistics both must
  // land within a few percent of each other.
  auto geom = phys::TsvArrayGeometry::itrs2018_relaxed(4, 4);
  const core::Link link(geom);
  streams::GaussianAr1Stream src(16, 600.0, 0.0, 9);
  const auto st = link.measure(src, 50000);

  const auto sawtooth = core::sawtooth_assignment(geom, st);
  const auto greedy_order = reference::greedy_coupling_order(link.model().c_ref());
  const auto greedy =
      core::assignment_from_orders(core::rank_by_correlation(st), greedy_order);
  const double ps = link.power(st, sawtooth);
  const double pg = link.power(st, greedy);
  EXPECT_NEAR(pg / ps, 1.0, 0.05);
}

TEST(AdaptiveLink, WindowedReassignmentFollowsTheSignal) {
  // Scenario: the link carries addresses, then switches to Gaussian data.
  // Reoptimizing from the phase-2 tumbling window must beat keeping the
  // stale assignment.
  auto geom = phys::TsvArrayGeometry::itrs2018_relaxed(4, 4);
  const core::Link link(geom);
  stats::ChunkFolder win(16);
  const auto fold = [&](streams::WordStream& src) {
    std::vector<std::uint64_t> words(20000);
    for (auto& w : words) w = src.next();
    win.fold(words);
  };

  streams::SequentialStream phase1(16, 0.02, 4);
  fold(phase1);
  core::OptimizeOptions opts;
  opts.schedule.iterations = 6000;
  const auto a1 = core::optimize_assignment(win.counts().finalize(), link.model(), opts);

  win.reset_window();  // phase boundary: close the window, keep the seam
  streams::GaussianAr1Stream phase2(16, 500.0, 0.0, 4);
  fold(phase2);
  const auto snap2 = win.counts().finalize();
  const auto a2 = core::optimize_assignment(snap2, link.model(), opts);

  EXPECT_LT(a2.power, link.power(snap2, a1.assignment));
}

TEST(GreedyDescent, FindsExhaustiveOptimumOnSmallArrays) {
  auto geom = phys::TsvArrayGeometry::itrs2018_min(2, 2);
  const core::Link link(geom);
  streams::GaussianAr1Stream src(4, 3.0, -0.4, 21);
  stats::StatsAccumulator acc(4);
  for (int i = 0; i < 30000; ++i) acc.add(src.next());
  const auto st = acc.finish();

  const auto greedy = core::greedy_descent(st, link.model());
  const auto exact = core::exhaustive_optimal(st, link.model());
  // A 2x2 landscape is small enough that first-improvement descent lands on
  // (or within a hair of) the global optimum.
  EXPECT_NEAR(greedy.power, exact.power, 0.01 * std::abs(exact.power));
}

TEST(GreedyDescent, DeterministicAndCompetitiveWithAnnealing) {
  auto geom = phys::TsvArrayGeometry::itrs2018_relaxed(4, 4);
  const core::Link link(geom);
  streams::SequentialStream src(16, 0.05, 8);
  const auto st = link.measure(src, 30000);

  const auto a = core::greedy_descent(st, link.model());
  const auto b = core::greedy_descent(st, link.model());
  EXPECT_EQ(a.assignment, b.assignment);  // no randomness at all

  core::OptimizeOptions opts;
  opts.schedule.iterations = 15000;
  const auto sa = core::optimize_assignment(st, link.model(), opts);
  EXPECT_LT(a.power, link.power(st, core::SignedPermutation::identity(16)));
  EXPECT_NEAR(a.power / sa.power, 1.0, 0.05);  // within a few percent of SA
}

TEST(GreedyDescent, TerminatesOnNegativePowerLandscapes) {
  // Regression for the sign-handling bug in the acceptance test: the original
  // pure-relative margin `cand < cur * (1 - 1e-12)` flips direction when the
  // current power is negative — every equal-power move then counts as an
  // improvement and the descent cycles forever. A synthetic all-negative
  // capacitance model makes every power on the landscape negative.
  const std::size_t n = 4;
  phys::Matrix cr(n, n);
  phys::Matrix dc(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      cr(i, j) = -1e-15 * static_cast<double>(1 + ((i + j) % 3));
      dc(i, j) = i == j ? 0.0 : -2e-16;
    }
  }
  const tsv::LinearCapacitanceModel model(std::move(cr), std::move(dc));

  streams::GaussianAr1Stream src(n, 2.0, -0.5, 9);
  stats::StatsAccumulator acc(n);
  for (int i = 0; i < 20000; ++i) acc.add(src.next());
  const auto st = acc.finish();

  const double identity_power =
      core::assignment_power(st, core::SignedPermutation::identity(n), model);
  ASSERT_LT(identity_power, 0.0) << "landscape must be negative to exercise the bug";

  const auto res = core::greedy_descent(st, model);  // pre-fix: never returns
  EXPECT_LE(res.power, identity_power + 1e-25);
  // The reported power must be the dense recomputation of the returned
  // assignment, not a drifted incremental value.
  EXPECT_DOUBLE_EQ(res.power, core::assignment_power(st, res.assignment, model));
}

TEST(GreedyDescent, HonoursInversionConstraints) {
  auto geom = phys::TsvArrayGeometry::itrs2018_min(2, 2);
  const core::Link link(geom);
  streams::UniformRandomStream inner(3, 4);
  std::vector<std::uint64_t> words;
  for (int i = 0; i < 5000; ++i) words.push_back(inner.next());  // bit 3 stable 0
  const auto st = stats::compute_stats(words, 4);

  core::OptimizeOptions opts;
  opts.allow_invert = {1, 1, 1, 0};
  const auto res = core::greedy_descent(st, link.model(), opts);
  EXPECT_FALSE(res.assignment.inverted(3));
}

}  // namespace
