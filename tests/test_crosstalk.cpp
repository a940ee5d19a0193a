// Tests for the victim-bounce crosstalk analysis on the 3-pi link model.
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

double bounce(const phys::TsvArrayGeometry& geom, double pr_all, std::size_t victim) {
  const std::vector<double> pr(geom.count(), pr_all);
  const auto cap = tsv::analytic_capacitance(geom, pr);
  return circuit::victim_bounce(geom, cap, victim);
}

TEST(Crosstalk, VictimBounceIsRealAndBounded) {
  auto geom = phys::TsvArrayGeometry::itrs2018_min(3, 3);
  const double peak = bounce(geom, 0.5, geom.index(1, 1));
  EXPECT_GT(peak, 0.05);  // clearly visible bounce
  EXPECT_LT(peak, 1.0);   // but no runaway
}

TEST(Crosstalk, MoreAggressorsMoreNoise) {
  auto pair = phys::TsvArrayGeometry::itrs2018_min(1, 2);
  auto array = phys::TsvArrayGeometry::itrs2018_min(3, 3);
  const double one_aggressor = bounce(pair, 0.5, 0);
  const double eight_aggressors = bounce(array, 0.5, array.index(1, 1));
  EXPECT_GT(eight_aggressors, one_aggressor);
}

TEST(Crosstalk, MosEffectWeakensCoupling) {
  // High 1-probability -> wide depletion -> smaller couplings -> less noise.
  // This is the signal-integrity side benefit of the inversion trick.
  auto geom = phys::TsvArrayGeometry::itrs2018_min(3, 3);
  const double low = bounce(geom, 0.0, geom.index(1, 1));
  const double high = bounce(geom, 1.0, geom.index(1, 1));
  EXPECT_LT(high, low);
}

TEST(Crosstalk, ValidatesVictimIndex) {
  auto geom = phys::TsvArrayGeometry::itrs2018_min(2, 2);
  const std::vector<double> pr(4, 0.5);
  const auto cap = tsv::analytic_capacitance(geom, pr);
  EXPECT_THROW(circuit::victim_bounce(geom, cap, 99), std::invalid_argument);
}

TEST(Crosstalk, ValidatesSimOptions) {
  // The analysis floors the step count at 400 per cycle, so a zero count was
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
      circuit::victim_bounce(geom, cap, 0, {}, opts);
      ADD_FAILURE() << field << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
    }
  }
}

// Bit-identity golden of the oracle: the centre-victim bounce on a 3x3
// array as a hex float, as the dense LU substitution computed it; the
// reference stepper's sparse substitution must reproduce it exactly
// (DESIGN.md §5l).
TEST(Crosstalk, GoldenFieldsAreBitIdentical) {
  auto geom = phys::TsvArrayGeometry::itrs2018_min(3, 3);
  const auto cap = tsv::analytic_capacitance(geom, std::vector<double>(geom.count(), 0.5));
  EXPECT_EQ(reference::victim_bounce(geom, cap, geom.index(1, 1)), 0x1.39e5567ae0c45p-1);
}

// The propagator's own golden of the same analysis, at every SIMD level
// the host has.
TEST(Crosstalk, PropagatorGoldenFieldsAtEveryLevel) {
  auto geom = phys::TsvArrayGeometry::itrs2018_min(3, 3);
  for (const auto level : {simd::Level::scalar, simd::Level::avx2, simd::Level::avx512}) {
    if (level > simd::detected_level()) continue;
    simd::ScopedLevel guard(level);
    EXPECT_EQ(bounce(geom, 0.5, geom.index(1, 1)), 0x1.39e5567ae0c4ap-1)
        << simd::level_name(level);
  }
}

}  // namespace
