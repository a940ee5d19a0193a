// Tests for the shared parallel execution layer (src/opt/parallel.hpp) and
// the determinism contract built on it: optimize_assignment,
// random_assignment_power and extract_capacitance must produce bit-identical
// results at every thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <vector>

#include "core/link.hpp"
#include "field/extractor.hpp"
#include "opt/parallel.hpp"
#include "streams/random_streams.hpp"

namespace {

using namespace tsvcod;

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(997);
  opt::parallel_for(hits.size(), 4, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, HandlesDegenerateSizes) {
  int calls = 0;
  opt::parallel_for(0, 4, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  opt::parallel_for(1, 8, [&](std::size_t i) { calls += static_cast<int>(i) + 1; });
  EXPECT_EQ(calls, 1);
  // More threads than items must not spawn idle trouble.
  std::vector<std::atomic<int>> hits(3);
  opt::parallel_for(hits.size(), 16, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, PropagatesExceptionsToCaller) {
  EXPECT_THROW(
      opt::parallel_for(64, 4,
                        [&](std::size_t i) {
                          if (i == 7) throw std::runtime_error("item failed");
                        }),
      std::runtime_error);
}

TEST(ParallelFor, NestedSectionsDoNotDeadlock) {
  std::vector<std::atomic<int>> hits(4 * 8);
  opt::parallel_for(4, 2, [&](std::size_t outer) {
    opt::parallel_for(8, 2, [&](std::size_t inner) { hits[outer * 8 + inner].fetch_add(1); });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(DeterministicSeed, DistinctAndStable) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) seen.insert(opt::deterministic_seed(42, i));
  EXPECT_EQ(seen.size(), 1000u);  // no collisions across work items
  EXPECT_EQ(opt::deterministic_seed(42, 7), opt::deterministic_seed(42, 7));
  EXPECT_NE(opt::deterministic_seed(42, 7), opt::deterministic_seed(43, 7));
}

stats::SwitchingStats measure(const core::Link& link, std::uint64_t seed) {
  streams::GaussianAr1Stream src(link.width(), 500.0, 0.4, seed);
  return link.measure(src, 20000);
}

TEST(ThreadDeterminism, OptimizeResultIsThreadCountInvariant) {
  const auto geom = phys::TsvArrayGeometry::itrs2018_relaxed(3, 3);
  const core::Link link(geom);
  const auto st = measure(link, 5);

  core::OptimizeOptions opts;
  opts.schedule.iterations = 3000;
  opts.chains = 4;
  opts.threads = 1;
  const auto serial = core::optimize_assignment(st, link.model(), opts);
  for (const int threads : {2, 3, 8}) {
    opts.threads = threads;
    const auto parallel = core::optimize_assignment(st, link.model(), opts);
    EXPECT_EQ(parallel.assignment, serial.assignment) << threads << " threads";
    EXPECT_EQ(parallel.power, serial.power) << threads << " threads";  // bitwise
    EXPECT_EQ(parallel.evaluations, serial.evaluations) << threads << " threads";
  }
}

TEST(ThreadDeterminism, BaselinePowersAreThreadCountInvariant) {
  const auto geom = phys::TsvArrayGeometry::itrs2018_relaxed(3, 3);
  const core::Link link(geom);
  const auto st = measure(link, 6);

  const auto serial = core::random_assignment_power(st, link.model(), 250, 99, 1);
  for (const int threads : {2, 5}) {
    const auto parallel = core::random_assignment_power(st, link.model(), 250, 99, threads);
    EXPECT_EQ(parallel.mean, serial.mean) << threads << " threads";  // bitwise
    EXPECT_EQ(parallel.worst, serial.worst) << threads << " threads";
    EXPECT_EQ(parallel.best, serial.best) << threads << " threads";
  }
}

TEST(ThreadDeterminism, ExtractionIsThreadCountInvariant) {
  const auto geom = phys::TsvArrayGeometry::itrs2018_min(2, 2);
  const std::vector<double> pr(geom.count(), 0.5);
  field::ExtractionOptions opts;
  opts.cell = 0.2e-6;  // coarse but fast
  opts.threads = 1;
  const auto serial = field::extract_capacitance(geom, pr, opts);
  opts.threads = 4;
  const auto parallel = field::extract_capacitance(geom, pr, opts);
  for (std::size_t i = 0; i < geom.count(); ++i) {
    for (std::size_t j = 0; j < geom.count(); ++j) {
      EXPECT_EQ(parallel.paper(i, j), serial.paper(i, j));  // bitwise
      EXPECT_EQ(parallel.maxwell(i, j), serial.maxwell(i, j));
    }
  }
  for (std::size_t k = 0; k < geom.count(); ++k) {
    EXPECT_EQ(parallel.stats[k].iterations, serial.stats[k].iterations);
    EXPECT_EQ(parallel.stats[k].residual, serial.stats[k].residual);
  }
}

// The 3x3 at 0.30 um is symmetric under the transpose only: six conductors
// are solved across the pool and three are mirrored from them.
TEST(ThreadDeterminism, MirroredExtractionIsThreadCountInvariant) {
  const auto geom = phys::TsvArrayGeometry::itrs2018_min(3, 3);
  const std::vector<double> pr(geom.count(), 0.5);
  field::ExtractionOptions opts;
  opts.cell = 0.3e-6;
  opts.threads = 1;
  const auto serial = field::extract_capacitance(geom, pr, opts);
  opts.threads = 4;
  const auto parallel = field::extract_capacitance(geom, pr, opts);
  for (std::size_t i = 0; i < geom.count(); ++i) {
    for (std::size_t j = 0; j < geom.count(); ++j) {
      EXPECT_EQ(parallel.paper(i, j), serial.paper(i, j));  // bitwise
      EXPECT_EQ(parallel.maxwell(i, j), serial.maxwell(i, j));
    }
  }
  int mirrored = 0;
  for (std::size_t k = 0; k < geom.count(); ++k) {
    EXPECT_EQ(parallel.stats[k].iterations, serial.stats[k].iterations);
    EXPECT_EQ(parallel.stats[k].image_of, serial.stats[k].image_of);
    mirrored += serial.stats[k].image_of >= 0;
  }
  EXPECT_EQ(mirrored, 3);
}

TEST(ThreadDeterminism, MultiChainAggregateContract) {
  // `chains` is a logical knob: every chain runs the same deterministic
  // schedule on its own seed stream, so the evaluation count scales exactly
  // with the chain count and the best-of can only improve on chain 0 (the
  // 1-chain result).
  const auto geom = phys::TsvArrayGeometry::itrs2018_min(2, 2);
  const core::Link link(geom);
  const auto st = measure(link, 7);

  core::OptimizeOptions multi;
  multi.schedule.iterations = 1500;
  multi.chains = 4;
  const auto best = core::optimize_assignment(st, link.model(), multi);

  core::OptimizeOptions single = multi;
  single.chains = 1;
  const auto one = core::optimize_assignment(st, link.model(), single);
  EXPECT_LE(best.power, one.power);
  EXPECT_EQ(best.evaluations, 4 * one.evaluations);
}

}  // namespace
