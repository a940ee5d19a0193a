// Tests for the crosstalk/Miller-delay analysis on the 3-pi link model.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "circuit/crosstalk.hpp"
#include "reference.hpp"
#include "simd/dispatch.hpp"
#include "tsv/analytic_model.hpp"

namespace {

using namespace tsvcod;

circuit::CrosstalkResult analyze(const phys::TsvArrayGeometry& geom, double pr_all,
                                 std::size_t victim) {
  const std::vector<double> pr(geom.count(), pr_all);
  const auto cap = tsv::analytic_capacitance(geom, pr);
  return circuit::analyze_crosstalk(geom, cap, victim);
}

TEST(Crosstalk, VictimBounceIsRealAndBounded) {
  auto geom = phys::TsvArrayGeometry::itrs2018_min(3, 3);
  const auto res = analyze(geom, 0.5, geom.index(1, 1));
  EXPECT_GT(res.victim_peak_noise, 0.05);  // clearly visible bounce
  EXPECT_LT(res.victim_peak_noise, 1.0);   // but no runaway
}

TEST(Crosstalk, MoreAggressorsMoreNoise) {
  auto pair = phys::TsvArrayGeometry::itrs2018_min(1, 2);
  auto array = phys::TsvArrayGeometry::itrs2018_min(3, 3);
  const auto one_aggressor = analyze(pair, 0.5, 0);
  const auto eight_aggressors = analyze(array, 0.5, array.index(1, 1));
  EXPECT_GT(eight_aggressors.victim_peak_noise, one_aggressor.victim_peak_noise);
}

TEST(Crosstalk, MillerEffectSlowsOpposedSwitching) {
  auto geom = phys::TsvArrayGeometry::itrs2018_min(3, 3);
  const auto res = analyze(geom, 0.5, geom.index(1, 1));
  ASSERT_FALSE(std::isnan(res.victim_delay_quiet));
  ASSERT_FALSE(std::isnan(res.victim_delay_opposed));
  EXPECT_GT(res.miller_slowdown(), 1.2);  // opposed switching clearly slower
  EXPECT_LT(res.miller_slowdown(), 10.0);
}

TEST(Crosstalk, MosEffectWeakensCoupling) {
  // High 1-probability -> wide depletion -> smaller couplings -> less noise.
  // This is the signal-integrity side benefit of the inversion trick.
  auto geom = phys::TsvArrayGeometry::itrs2018_min(3, 3);
  const auto low = analyze(geom, 0.0, geom.index(1, 1));
  const auto high = analyze(geom, 1.0, geom.index(1, 1));
  EXPECT_LT(high.victim_peak_noise, low.victim_peak_noise);
}

TEST(Crosstalk, ValidatesVictimIndex) {
  auto geom = phys::TsvArrayGeometry::itrs2018_min(2, 2);
  const std::vector<double> pr(4, 0.5);
  const auto cap = tsv::analytic_capacitance(geom, pr);
  EXPECT_THROW(circuit::analyze_crosstalk(geom, cap, 99), std::invalid_argument);
}

TEST(Crosstalk, ValidatesSimOptions) {
  // The scenarios floor the step count at 400 per cycle, so a zero count was
  // silently accepted; both it and a bad clock must fail naming the field.
  auto geom = phys::TsvArrayGeometry::itrs2018_min(2, 2);
  const auto cap = tsv::analytic_capacitance(geom, std::vector<double>(4, 0.5));
  circuit::SimOptions bad_steps;
  bad_steps.steps_per_cycle = 0;
  circuit::SimOptions bad_clock;
  bad_clock.frequency = std::nan("");
  for (const auto& [opts, field] : {std::pair{bad_steps, "steps_per_cycle"},
                                    std::pair{bad_clock, "frequency"}}) {
    try {
      circuit::analyze_crosstalk(geom, cap, 0, {}, opts);
      ADD_FAILURE() << field << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
    }
  }
}

// Bit-identity golden of the oracle: every field of the centre-victim
// analysis on a 3x3 array as hex floats, as the dense LU substitution
// computed them; the reference stepper's sparse substitution must reproduce
// them exactly (DESIGN.md §5l).
TEST(Crosstalk, GoldenFieldsAreBitIdentical) {
  auto geom = phys::TsvArrayGeometry::itrs2018_min(3, 3);
  const auto cap = tsv::analytic_capacitance(geom, std::vector<double>(geom.count(), 0.5));
  const auto res = reference::crosstalk(geom, cap, geom.index(1, 1));
  EXPECT_EQ(res.victim_peak_noise, 0x1.39e5567ae0c45p-1);
  EXPECT_EQ(res.victim_delay_quiet, 0x1.4285fe4049afp-36);
  EXPECT_EQ(res.victim_delay_opposed, 0x1.5fd7fe17963e8p-35);
}

// The propagator's own golden of the same analysis, at every SIMD level
// the host has.
TEST(Crosstalk, PropagatorGoldenFieldsAtEveryLevel) {
  auto geom = phys::TsvArrayGeometry::itrs2018_min(3, 3);
  for (const auto level : {simd::Level::scalar, simd::Level::avx2, simd::Level::avx512}) {
    if (level > simd::detected_level()) continue;
    simd::ScopedLevel guard(level);
    const auto res = analyze(geom, 0.5, geom.index(1, 1));
    EXPECT_EQ(res.victim_peak_noise, 0x1.39e5567ae0c4ap-1) << simd::level_name(level);
    EXPECT_EQ(res.victim_delay_quiet, 0x1.4285fe4049afp-36) << simd::level_name(level);
    EXPECT_EQ(res.victim_delay_opposed, 0x1.5fd7fe17963e8p-35) << simd::level_name(level);
  }
}

}  // namespace
