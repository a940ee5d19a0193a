// Integration tests: cross-module consistency between the field extractor,
// the analytic model, the DBT theory, the codecs, the optimizer and the
// circuit simulator — the seams a unit test cannot cover.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "circuit/tsv_link_sim.hpp"
#include "coding/correlator.hpp"
#include "coding/gray.hpp"
#include "core/link.hpp"
#include "field/extractor.hpp"
#include "streams/image_sensor.hpp"
#include "streams/random_streams.hpp"
#include "tsv/linear_model.hpp"

#include "reference.hpp"

namespace {

using namespace tsvcod;

// The analytic model must agree with the field extractor on the *structure*
// the optimizer exploits: which couplings dominate, how the totals order,
// and the sign of the MOS sensitivity.
TEST(FieldVsAnalytic, StructuralAgreement2x3) {
  auto geom = phys::TsvArrayGeometry::itrs2018_min(2, 3);
  const std::vector<double> pr(6, 0.5);
  field::ExtractionOptions fo;
  fo.cell = 0.15e-6;
  const auto fd = field::extract_capacitance(geom, pr, fo);
  ASSERT_TRUE(fd.all_converged());
  const auto an = tsv::analytic_capacitance(geom, pr);

  const auto corner = geom.index(0, 0);
  const auto edge = geom.index(0, 1);
  for (const auto* c : {&fd.paper, &an}) {
    // Direct coupling beats diagonal coupling.
    EXPECT_GT((*c)(corner, edge), (*c)(corner, geom.index(1, 1)));
    // Corner-edge coupling is (essentially) the largest in the array; the FD
    // extraction puts the centre-column vertical pair within a few percent.
    double max_coupling = 0.0;
    for (std::size_t i = 0; i < 6; ++i) {
      for (std::size_t j = i + 1; j < 6; ++j) max_coupling = std::max(max_coupling, (*c)(i, j));
    }
    EXPECT_GT((*c)(corner, edge) / max_coupling, 0.85);
  }

  // MOS sensitivity (DeltaC) negative in both backends.
  const auto fd_model = tsv::fit_linear_model(
      [&](std::span<const double> p) { return field::extract_capacitance(geom, p, fo).paper; },
      6);
  const auto an_model = tsv::fit_from_analytic(geom);
  EXPECT_LT(fd_model.delta_c()(corner, edge), 0.0);
  EXPECT_LT(an_model.delta_c()(corner, edge), 0.0);

  // Magnitudes within a factor ~4 (different dimensionality/BCs).
  const double ratio = an(corner, edge) / fd.paper(corner, edge);
  EXPECT_GT(ratio, 0.25);
  EXPECT_LT(ratio, 4.0);
}

// The analytic DBT model and the measured statistics of an AR(1) stream must
// agree on the quantities the systematic mappings rely on.
TEST(DbtVsMeasured, Ar1StreamMatchesTheory) {
  reference::DbtParams p;
  p.width = 16;
  p.sigma = 1500.0;
  p.rho = 0.5;
  const auto theory = reference::dbt_stats(p);

  streams::GaussianAr1Stream src(16, p.sigma, p.rho, 31);
  stats::StatsAccumulator acc(16);
  for (int i = 0; i < 200000; ++i) acc.add(src.next());
  const auto measured = acc.finish();

  // Sign-bit region: activity and pairwise correlation.
  EXPECT_NEAR(measured.self[15], theory.self[15], 0.03);
  EXPECT_NEAR(measured.coupling(15, 14), theory.coupling(15, 14), 0.08);
  // LSB region: coin flips.
  EXPECT_NEAR(measured.self[1], 0.5, 0.02);
  EXPECT_NEAR(measured.coupling(1, 2), 0.0, 0.02);
  // The DBT-based ranks agree with measured ranks on who the MSBs are.
  const auto rank_theory = core::rank_by_correlation(theory);
  const auto rank_measured = core::rank_by_correlation(measured);
  EXPECT_GE(rank_theory[0], 13u);
  EXPECT_GE(rank_measured[0], 13u);
}

// Systematic assignment chosen from DBT theory (no sample stream!) must be
// nearly as good as one chosen from measured statistics.
TEST(DbtVsMeasured, TheoryDrivenSawtoothIsCompetitive) {
  auto geom = phys::TsvArrayGeometry::itrs2018_relaxed(4, 4);
  const core::Link link(geom);

  streams::GaussianAr1Stream src(16, 800.0, 0.0, 9);
  const auto measured = [&] {
    stats::StatsAccumulator acc(16);
    for (int i = 0; i < 100000; ++i) acc.add(src.next());
    return acc.finish();
  }();

  reference::DbtParams p;
  p.width = 16;
  p.sigma = 800.0;
  p.rho = 0.0;
  const auto theory = reference::dbt_stats(p);

  const auto st_measured = core::sawtooth_assignment(geom, measured);
  const auto st_theory = core::sawtooth_assignment(geom, theory);
  const double pm = link.power(measured, st_measured);
  const double pt = link.power(measured, st_theory);
  EXPECT_NEAR(pt / pm, 1.0, 0.03);
}

// Full pipeline: encode -> assign -> transmit -> unassign -> decode is
// lossless, and the optimized chain never loses to the identity chain.
TEST(Pipeline, GrayPlusAssignmentRoundTripAndWin) {
  auto geom = phys::TsvArrayGeometry::itrs2018_relaxed(4, 4);
  const core::Link link(geom);

  streams::GaussianAr1Stream src(16, 400.0, 0.4, 13);
  coding::GrayCodec enc(16);
  std::vector<std::uint64_t> raw, coded;
  for (int i = 0; i < 30000; ++i) {
    raw.push_back(src.next());
    coded.push_back(enc.encode(raw.back()));
  }
  const auto st = stats::compute_stats(coded, 16);
  core::OptimizeOptions opts;
  opts.schedule.iterations = 10000;
  const auto best = core::optimize_assignment(st, link.model(), opts);

  // Lossless recovery through the full chain.
  coding::GrayCodec dec(16);
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const std::uint64_t on_lines = best.assignment.apply_word(coded[i]);
    std::uint64_t back = 0;
    for (std::size_t bit = 0; bit < 16; ++bit) {
      const std::uint64_t v = (on_lines >> best.assignment.line_of_bit(bit)) & 1u;
      back |= (v ^ (best.assignment.inverted(bit) ? 1u : 0u)) << bit;
    }
    ASSERT_EQ(dec.decode(back), raw[i]) << "at word " << i;
  }

  const double p_id = link.power(st, core::SignedPermutation::identity(16));
  EXPECT_LT(best.power, p_id);
}

// Matrix model and circuit simulation must agree on the *direction* of every
// assignment comparison (this is how Fig. 6 validates Eq. 10).
TEST(ModelVsCircuit, ReductionDirectionsAgree) {
  auto geom = phys::TsvArrayGeometry::itrs2018_min(3, 3);
  const core::Link link(geom);

  streams::BayerMuxStream rgb;
  std::vector<std::uint64_t> words = streams::collect(rgb, 12000);
  const auto st = stats::compute_stats(words, 9);

  core::OptimizeOptions opts;
  opts.schedule.iterations = 8000;
  const auto best = core::optimize_assignment(st, link.model(), opts);
  const auto identity = core::SignedPermutation::identity(9);

  const auto circuit_power = [&](const core::SignedPermutation& a) {
    const auto line_stats = a.apply(st);
    const auto cap = link.model().evaluate_eps(line_stats.eps());
    std::vector<std::uint64_t> line_words;
    for (std::size_t i = 0; i < 1500; ++i) line_words.push_back(a.apply_word(words[i]));
    circuit::SimOptions so;
    so.steps_per_cycle = 24;
    return circuit::simulate_link(geom, cap, line_words, {}, so).dynamic_power;
  };

  const double model_gain = 1.0 - best.power / link.power(st, identity);
  const double circ_gain = 1.0 - circuit_power(best.assignment) / circuit_power(identity);
  EXPECT_GT(model_gain, 0.0);
  EXPECT_GT(circ_gain, 0.0);
  // Same direction and same order of magnitude.
  EXPECT_NEAR(circ_gain / model_gain, 1.0, 0.6);
}

// Correlator + inversion mask inside the codec equals correlator + inversion
// in the assignment: the paper's "hide the inverters in the coder" claim.
TEST(Pipeline, InversionInCodecEqualsInversionInAssignment) {
  const std::uint64_t mask = 0xA5;
  coding::CorrelatorCodec with_mask(8, 2, mask);
  coding::CorrelatorCodec plain(8, 2);
  std::mt19937_64 rng(5);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t x = rng() & 0xFF;
    EXPECT_EQ(with_mask.encode(x), plain.encode(x) ^ mask);
  }
}

// Statistics under the codec-mask realization match the assignment-inversion
// transform, so the optimizer's prediction holds for the XNOR realization.
TEST(Pipeline, CodecMaskStatsMatchAssignmentTransform) {
  streams::GaussianAr1Stream src(8, 40.0, 0.3, 3);
  coding::GrayCodec enc_plain(8);
  const std::uint64_t mask = 0xC0;
  coding::GrayCodec enc_mask(8, mask);

  stats::StatsAccumulator acc_plain(8), acc_mask(8);
  for (int i = 0; i < 30000; ++i) {
    const auto x = src.next();
    acc_plain.add(enc_plain.encode(x));
    acc_mask.add(enc_mask.encode(x));
  }
  // Assignment that only inverts the mask bits.
  auto inv = core::SignedPermutation::identity(8);
  inv.toggle_inversion(6);
  inv.toggle_inversion(7);
  const auto transformed = inv.apply(acc_plain.finish());
  const auto measured = acc_mask.finish();
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(transformed.prob_one[i], measured.prob_one[i], 1e-12);
    EXPECT_NEAR(transformed.self[i], measured.self[i], 1e-12);
    for (std::size_t j = 0; j < 8; ++j) {
      EXPECT_NEAR(transformed.coupling(i, j), measured.coupling(i, j), 1e-12);
    }
  }
}

}  // namespace
