// Unit tests for the MNA transient simulator and the 3-pi TSV link model,
// validated against closed-form RC/RL results, the analytic energy model and
// the per-step LU stepper the state propagator replaced (tests/reference.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "circuit/netlist.hpp"
#include "circuit/transient.hpp"
#include "circuit/tsv_link_sim.hpp"
#include "field/extractor.hpp"
#include "phys/constants.hpp"
#include "reference.hpp"
#include "simd/dispatch.hpp"
#include "tsv/analytic_model.hpp"
#include "tsv/linear_model.hpp"

namespace {

using namespace tsvcod;
using namespace tsvcod::circuit;

TEST(Netlist, Validation) {
  Netlist net;
  const int a = net.add_node();
  EXPECT_THROW(net.resistor(a, 99, 10.0), std::invalid_argument);
  EXPECT_THROW(net.resistor(a, 0, -1.0), std::invalid_argument);
  EXPECT_THROW(net.inductor(a, 0, 0.0), std::invalid_argument);
  // Infinite elements used to pass and turn every voltage and energy NaN.
  EXPECT_THROW(net.resistor(a, 0, HUGE_VAL), std::invalid_argument);
  EXPECT_THROW(net.capacitor(a, 0, HUGE_VAL), std::invalid_argument);
  EXPECT_THROW(net.inductor(a, 0, HUGE_VAL), std::invalid_argument);
  EXPECT_THROW(net.capacitor(a, 0, std::nan("")), std::invalid_argument);
  EXPECT_NO_THROW(net.capacitor(a, 0, 0.0));  // zero caps are dropped
  EXPECT_TRUE(net.capacitors().empty());
}

TEST(Waveform, BitSequenceShape) {
  const auto w = bit_waveform({1, 0, 1}, 1e-9, 0.1e-9, 1.0);
  EXPECT_DOUBLE_EQ(w(0.0), 0.0);
  EXPECT_NEAR(w(0.05e-9), 0.5, 1e-9);   // rising into cycle 0
  EXPECT_DOUBLE_EQ(w(0.5e-9), 1.0);     // settled high
  EXPECT_NEAR(w(1.05e-9), 0.5, 1e-9);   // falling into cycle 1
  EXPECT_DOUBLE_EQ(w(1.5e-9), 0.0);
  EXPECT_DOUBLE_EQ(w(2.5e-9), 1.0);
  EXPECT_DOUBLE_EQ(w(10e-9), 1.0);      // holds last bit
  EXPECT_THROW(bit_waveform({}, 1e-9, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(bit_waveform({1}, 1e-9, 2e-9, 1.0), std::invalid_argument);
}

TEST(Transient, RcChargeMatchesClosedForm) {
  // 1 kOhm, 1 pF charged from a 1 V step: v(t) = 1 - exp(-t/RC).
  Netlist net;
  const int s = net.add_node();
  const int out = net.add_node();
  net.vsource(s, Netlist::kGround, [](double) { return 1.0; });
  net.resistor(s, out, 1000.0);
  net.capacitor(out, Netlist::kGround, 1e-12);

  TransientSim sim(net, 1e-12);
  sim.run_until(3e-9);  // 3 tau
  EXPECT_NEAR(sim.node_voltage(out), 1.0 - std::exp(-3.0), 2e-3);
}

TEST(Transient, RcEnergyConservation) {
  // After full charge the source has delivered C*V^2: half stored, half
  // dissipated in the resistor.
  Netlist net;
  const int s = net.add_node();
  const int out = net.add_node();
  const int src = net.vsource(s, Netlist::kGround, [](double) { return 1.0; });
  net.resistor(s, out, 500.0);
  net.capacitor(out, Netlist::kGround, 2e-12);

  TransientSim sim(net, 0.5e-12);
  sim.run_until(20e-9);  // 20 tau
  EXPECT_NEAR(sim.source_energy(src), 2e-12, 2e-14);
}

TEST(Transient, ResistorDividerDc) {
  Netlist net;
  const int s = net.add_node();
  const int mid = net.add_node();
  net.vsource(s, Netlist::kGround, [](double) { return 2.0; });
  net.resistor(s, mid, 1000.0);
  net.resistor(mid, Netlist::kGround, 3000.0);
  TransientSim sim(net, 1e-12);
  sim.step();
  EXPECT_NEAR(sim.node_voltage(mid), 1.5, 1e-9);
  // The source current is the current through the 1 kOhm resistor.
  EXPECT_NEAR((sim.node_voltage(s) - sim.node_voltage(mid)) / 1000.0, 2.0 / 4000.0, 1e-12);
}

TEST(Transient, RlStepApproachesOhmicCurrent) {
  // Series R-L to ground: i -> V/R with time constant L/R.
  Netlist net;
  const int s = net.add_node();
  const int mid = net.add_node();
  net.vsource(s, Netlist::kGround, [](double) { return 1.0; });
  net.resistor(s, mid, 100.0);
  net.inductor(mid, Netlist::kGround, 1e-9);  // tau = 10 ps
  TransientSim sim(net, 0.2e-12);
  sim.run_until(100e-12);
  // The series current is the current through the 100 Ohm resistor.
  EXPECT_NEAR((sim.node_voltage(s) - sim.node_voltage(mid)) / 100.0, 1.0 / 100.0, 2e-4);
}

TEST(Transient, CouplingChargesNeighbour) {
  // Two RC lines with a coupling cap: a step on line A must transiently lift
  // line B (the crosstalk the coding fights).
  Netlist net;
  const int sa = net.add_node();
  const int a = net.add_node();
  const int b = net.add_node();
  net.vsource(sa, Netlist::kGround, bit_waveform({1}, 1e-9, 10e-12, 1.0));
  net.resistor(sa, a, 300.0);
  net.resistor(b, Netlist::kGround, 300.0);
  net.capacitor(a, Netlist::kGround, 10e-15);
  net.capacitor(b, Netlist::kGround, 10e-15);
  net.capacitor(a, b, 20e-15);
  TransientSim sim(net, 0.5e-12);
  double peak_b = 0.0;
  while (sim.time() < 0.2e-9) {
    sim.step();
    peak_b = std::max(peak_b, sim.node_voltage(b));
  }
  EXPECT_GT(peak_b, 0.1);  // visible coupled noise
  EXPECT_LT(peak_b, 1.0);
}

TEST(TsvParasitics, ResistanceAndInductanceScale) {
  auto g1 = phys::TsvArrayGeometry::itrs2018_min(1, 1);
  auto g2 = phys::TsvArrayGeometry::itrs2018_relaxed(1, 1);
  // R = rho*l/(pi r^2): quadrupling the radius area cuts R by 4.
  EXPECT_NEAR(tsv_resistance(g1) / tsv_resistance(g2), 4.0, 1e-9);
  EXPECT_GT(tsv_resistance(g1), 0.1);
  EXPECT_LT(tsv_resistance(g1), 1.0);   // ~0.27 Ohm for 50 um x 1 um Cu
  EXPECT_GT(tsv_inductance(g1), 1e-11); // tens of pH
  EXPECT_LT(tsv_inductance(g1), 1e-10);
}

class LinkSimEnergy : public ::testing::TestWithParam<int> {};

TEST_P(LinkSimEnergy, MatchesAnalyticCvvModel) {
  // A single isolated TSV toggling every cycle must draw ~ C_total * Vdd^2
  // per 0->1 transition (all of it dissipated across the cycle pair).
  auto geom = phys::TsvArrayGeometry::itrs2018_min(1, 1);
  const std::vector<double> pr(1, 0.5);
  const auto cap = tsv::analytic_capacitance(geom, pr);

  std::vector<std::uint64_t> words;
  const int cycles = 64;
  for (int i = 0; i < cycles; ++i) words.push_back(static_cast<std::uint64_t>(i % 2));

  DriverParams drv;
  SimOptions opts;
  opts.steps_per_cycle = GetParam();
  const auto res = simulate_link(geom, cap, words, drv, opts);

  const double c_total = cap(0, 0) + drv.receiver_cap;
  const double expected = c_total * drv.vdd * drv.vdd * (cycles / 2) / 1.0;
  EXPECT_NEAR(res.dynamic_energy / (expected / 1.0), 1.0, 0.1)
      << "steps/cycle=" << GetParam();
  EXPECT_GT(res.leakage_power, 0.0);
  EXPECT_EQ(res.cycles, static_cast<std::size_t>(cycles));
}

INSTANTIATE_TEST_SUITE_P(StepsPerCycle, LinkSimEnergy, ::testing::Values(30, 60));

TEST(LinkSim, OppositeTogglingCostsMoreThanAligned) {
  // The physical root of the coding gain: opposite switching on a coupled
  // pair must burn more supply energy than aligned switching.
  auto geom = phys::TsvArrayGeometry::itrs2018_min(1, 2);
  const std::vector<double> pr(2, 0.5);
  const auto cap = tsv::analytic_capacitance(geom, pr);

  std::vector<std::uint64_t> aligned, opposite;
  for (int i = 0; i < 64; ++i) {
    aligned.push_back(i % 2 ? 0b11 : 0b00);
    opposite.push_back(i % 2 ? 0b10 : 0b01);
  }
  const auto ea = simulate_link(geom, cap, aligned);
  const auto eo = simulate_link(geom, cap, opposite);
  EXPECT_GT(eo.dynamic_energy, ea.dynamic_energy * 1.2);
}

TEST(LinkSim, StableLinesDrawAlmostNothing) {
  auto geom = phys::TsvArrayGeometry::itrs2018_min(1, 2);
  const std::vector<double> pr(2, 0.5);
  const auto cap = tsv::analytic_capacitance(geom, pr);
  std::vector<std::uint64_t> quiet(64, 0b01);
  const auto res = simulate_link(geom, cap, quiet);
  // Only the initial charge of line 0; mean power far below a toggling link.
  std::vector<std::uint64_t> busy;
  for (int i = 0; i < 64; ++i) busy.push_back(i % 2 ? 0b10 : 0b01);
  const auto busy_res = simulate_link(geom, cap, busy);
  EXPECT_LT(res.dynamic_power, 0.1 * busy_res.dynamic_power);
}

TEST(LinkSim, InputValidation) {
  auto geom = phys::TsvArrayGeometry::itrs2018_min(1, 2);
  const auto cap = tsv::analytic_capacitance(geom, std::vector<double>(2, 0.5));
  std::vector<std::uint64_t> one(1, 0);
  EXPECT_THROW(simulate_link(geom, cap, one), std::invalid_argument);
  phys::Matrix wrong(3, 3);
  std::vector<std::uint64_t> words(4, 0);
  EXPECT_THROW(simulate_link(geom, wrong, words), std::invalid_argument);

  // Each bad SimOptions field is rejected with an error naming it; a zero
  // clock or step count used to come back as dynamic_power == 0.
  const auto expect_rejected = [&](SimOptions opts, const std::string& field) {
    try {
      simulate_link(geom, cap, words, {}, opts);
      ADD_FAILURE() << field << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("SimOptions." + field), std::string::npos) << e.what();
    }
    std::vector<Waveform> waves(geom.count(), [](double) { return 0.0; });
    EXPECT_THROW(build_link_netlist(geom, cap, waves, {}, opts), std::invalid_argument) << field;
  };
  for (const double f : {0.0, -3e9, std::nan(""), HUGE_VAL}) {
    SimOptions opts;
    opts.frequency = f;
    expect_rejected(opts, "frequency");
  }
  for (const int steps : {0, -1}) {
    SimOptions opts;
    opts.steps_per_cycle = steps;
    expect_rejected(opts, "steps_per_cycle");
  }
  SimOptions no_segments;
  no_segments.segments = 0;
  expect_rejected(no_segments, "segments");
  SimOptions one_step;
  one_step.steps_per_cycle = 1;
  EXPECT_GT(simulate_link(geom, cap, words, {}, one_step).cycles, 0u);

  // A non-finite capacitance is rejected naming its entry; NaN used to drop
  // the capacitor without a word.
  for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    for (const auto& [i, j] : {std::pair<std::size_t, std::size_t>{0, 1}, {1, 1}}) {
      phys::Matrix c = cap;
      c(i, j) = bad;
      try {
        simulate_link(geom, c, words);
        ADD_FAILURE() << "cap(" << i << ", " << j << ") = " << bad << " accepted";
      } catch (const std::invalid_argument& e) {
        const std::string want = "(" + std::to_string(i) + ", " + std::to_string(j) + ")";
        EXPECT_NE(std::string(e.what()).find(want), std::string::npos) << e.what();
      }
    }
  }
  // Zero and rounding-negative entries add no capacitor: a fitted model can
  // give about -1e-32 where the coupling is absent.
  phys::Matrix rounded = cap;
  rounded(0, 1) = rounded(1, 0) = -1e-32;
  EXPECT_NO_THROW(simulate_link(geom, rounded, words));
  rounded(0, 1) = rounded(1, 0) = 0.0;
  EXPECT_NO_THROW(simulate_link(geom, rounded, words));

  // Each bad DriverParams field is rejected naming it, by the link and the
  // netlist builder alike.
  const auto expect_driver_rejected = [&](DriverParams driver, const std::string& field) {
    try {
      simulate_link(geom, cap, words, driver);
      ADD_FAILURE() << field << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("DriverParams." + field), std::string::npos)
          << e.what();
    }
    std::vector<Waveform> waves(geom.count(), [](double) { return 0.0; });
    EXPECT_THROW(build_link_netlist(geom, cap, waves, driver), std::invalid_argument) << field;
  };
  const double period = 1.0 / SimOptions{}.frequency;
  for (const double v : {0.0, -300.0, std::nan(""), HUGE_VAL}) {
    DriverParams d;
    d.resistance = v;
    expect_driver_rejected(d, "resistance");
  }
  for (const double v : {-1e-12, period, 2 * period, std::nan(""), HUGE_VAL}) {
    DriverParams d;
    d.rise_time = v;
    expect_driver_rejected(d, "rise_time");
  }
  for (const double v : {0.0, -1.0, std::nan(""), HUGE_VAL}) {
    DriverParams d;
    d.vdd = v;
    expect_driver_rejected(d, "vdd");
  }
  for (const double v : {-1e-6, std::nan(""), HUGE_VAL}) {
    DriverParams d;
    d.leakage_current = v;
    expect_driver_rejected(d, "leakage_current");
  }
  for (const double v : {-1e-15, std::nan(""), HUGE_VAL}) {
    DriverParams d;
    d.receiver_cap = v;
    expect_driver_rejected(d, "receiver_cap");
  }
  DriverParams edge;
  edge.rise_time = 0.0;
  edge.leakage_current = 0.0;
  edge.receiver_cap = 0.0;
  EXPECT_NO_THROW(simulate_link(geom, cap, words, edge));
}

TEST(Transient, RejectsNonFiniteOrNonPositiveStep) {
  Netlist net;
  const int a = net.add_node();
  net.resistor(a, Netlist::kGround, 1.0);
  for (const double dt : {0.0, -1e-12, std::nan(""), HUGE_VAL}) {
    try {
      TransientSim sim(net, dt);
      ADD_FAILURE() << "dt=" << dt << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("dt"), std::string::npos) << e.what();
    }
  }
}

/// 64 pseudo-random 9-bit words, the golden tests' stimulus.
std::vector<std::uint64_t> golden_words() {
  std::vector<std::uint64_t> words(64);
  std::uint64_t s = 0x9E3779B97F4A7C15ull;
  for (auto& w : words) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    w = (s >> 33) & 0x1FF;
  }
  return words;
}

// Bit-identity golden of the oracle: the energies of a 3x3 link over 64
// pseudo-random words as hex floats, as the dense LU substitution computed
// them. The reference stepper's sparse substitution must reproduce them
// exactly; a change to the order or the set of nonzero operations in its
// solve can move these bits.
TEST(LinkSim, GoldenEnergiesAreBitIdentical) {
  auto geom = phys::TsvArrayGeometry::itrs2018_min(3, 3);
  const auto cap = tsv::analytic_capacitance(geom, std::vector<double>(geom.count(), 0.5));
  const auto words = golden_words();
  SimOptions opts;
  opts.with_inductance = true;
  EXPECT_EQ(reference::link_energy(geom, cap, words, {}, opts), 0x1.4886650ae4cd9p-37);
  opts.with_inductance = false;
  EXPECT_EQ(reference::link_energy(geom, cap, words, {}, opts), 0x1.48865f43d8bb9p-37);
}

// The propagator's own golden, at every SIMD level the host has: its
// clones sum each row in the same order with the same roundings, so the
// bits cannot depend on the level (DESIGN.md §5l).
TEST(LinkSim, PropagatorGoldenEnergiesAtEveryLevel) {
  auto geom = phys::TsvArrayGeometry::itrs2018_min(3, 3);
  const auto cap = tsv::analytic_capacitance(geom, std::vector<double>(geom.count(), 0.5));
  const auto words = golden_words();
  for (const auto level : {simd::Level::scalar, simd::Level::avx2, simd::Level::avx512}) {
    if (level > simd::detected_level()) continue;
    simd::ScopedLevel guard(level);
    SimOptions opts;
    opts.with_inductance = true;
    EXPECT_EQ(simulate_link(geom, cap, words, {}, opts).dynamic_energy, 0x1.4886650ae4cefp-37)
        << simd::level_name(level);
    opts.with_inductance = false;
    EXPECT_EQ(simulate_link(geom, cap, words, {}, opts).dynamic_energy, 0x1.48865f43d8bccp-37)
        << simd::level_name(level);
  }
}

// --- Propagator against the per-step LU reference ---------------------------

struct Tracking {
  double max_dv = 0.0;          ///< worst node-voltage gap over every node and step [V]
  double total_energy_rel = 0.0;  ///< gap of the summed source energies, relative
  double max_energy_rel = 0.0;  ///< worst per-source energy gap, relative to the sum
};

/// Step the propagator and the reference in lockstep for `steps` steps of
/// `dt` over `link`, comparing every node voltage after every step and the
/// source energies at the end. Energy gaps are relative to the total energy
/// the sources delivered: at 400 steps per cycle an aggressor delivering a
/// tenth of the total shows a gap of 1.6e-12 of its own energy.
Tracking track_reference(const LinkNetlist& link, double dt, std::size_t steps) {
  TransientSim sim(link.net, dt);
  reference::ReferenceTransientSim ref(link.net, dt);
  Tracking out;
  for (std::size_t k = 0; k < steps; ++k) {
    sim.step();
    ref.step();
    EXPECT_EQ(sim.time(), ref.time());
    for (int node = 1; node <= link.net.node_count(); ++node) {
      out.max_dv = std::max(out.max_dv, std::abs(sim.node_voltage(node) - ref.node_voltage(node)));
    }
  }
  double total = 0.0;
  double total_ref = 0.0;
  double scale = 0.0;
  for (const int id : link.source_ids) {
    total += sim.source_energy(id);
    total_ref += ref.source_energy(id);
    scale += std::abs(ref.source_energy(id));
  }
  out.total_energy_rel = std::abs(total - total_ref) / scale;
  for (const int id : link.source_ids) {
    out.max_energy_rel = std::max(
        out.max_energy_rel, std::abs(sim.source_energy(id) - ref.source_energy(id)) / scale);
  }
  return out;
}

void expect_tracks(const Tracking& t, const std::string& what) {
  EXPECT_LE(t.max_dv, 1e-12) << what;
  EXPECT_LE(t.total_energy_rel, 1e-12) << what;
  EXPECT_LE(t.max_energy_rel, 1e-12) << what;
}

/// A `simulate_link` run of `words`, stepped by both simulators.
Tracking track_link(const phys::TsvArrayGeometry& geom, const phys::Matrix& cap,
                    std::span<const std::uint64_t> words, const SimOptions& opts) {
  const double period = 1.0 / opts.frequency;
  const DriverParams driver;
  const auto waves = reference::link_waveforms(geom.count(), words, period, driver);
  const LinkNetlist link = build_link_netlist(geom, cap, waves, driver, opts);
  return track_reference(link, period / opts.steps_per_cycle,
                         words.size() * static_cast<std::size_t>(opts.steps_per_cycle));
}

std::vector<std::uint64_t> random_words(std::size_t n, std::size_t bits, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint64_t> words(n);
  for (auto& w : words) w = rng() & ((std::uint64_t{1} << bits) - 1);
  return words;
}

TEST(Propagator, TracksReference3x3WithAndWithoutInductance) {
  auto geom = phys::TsvArrayGeometry::itrs2018_min(3, 3);
  const auto cap = tsv::analytic_capacitance(geom, std::vector<double>(geom.count(), 0.5));
  const auto words = random_words(200, geom.count(), 1);
  for (const bool with_l : {true, false}) {
    SimOptions opts;
    opts.steps_per_cycle = 32;
    opts.with_inductance = with_l;
    expect_tracks(track_link(geom, cap, words, opts), with_l ? "RLC" : "RC");
  }
}

TEST(Propagator, TracksReference4x4FieldFitted) {
  auto geom = phys::TsvArrayGeometry::itrs2018_relaxed(4, 4);
  field::ExtractionOptions fo;
  fo.cell = 1e-6;
  fo.threads = 1;
  const auto model = tsv::fit_from_field(geom, fo);
  std::vector<double> eps(geom.count());
  for (std::size_t i = 0; i < eps.size(); ++i) eps[i] = 0.4 - 0.05 * static_cast<double>(i);
  const auto cap = model.evaluate_eps(eps);
  SimOptions opts;
  opts.steps_per_cycle = 32;
  expect_tracks(track_link(geom, cap, random_words(100, geom.count(), 2), opts), "4x4 field");
}

TEST(Propagator, TracksReferenceInCrosstalkScenarios) {
  auto geom = phys::TsvArrayGeometry::itrs2018_min(3, 3);
  const auto cap = tsv::analytic_capacitance(geom, std::vector<double>(geom.count(), 0.5));
  const SimOptions opts;
  const DriverParams driver;
  const double period = 1.0 / opts.frequency;
  const std::size_t victim = geom.index(1, 1);
  const std::tuple<bool, std::uint8_t, std::uint8_t> scenarios[] = {
      {false, 0, 1}, {true, 0, 0}, {true, 1, 0}};
  for (const auto& [rises, from, to] : scenarios) {
    const auto waves =
        reference::crosstalk_waveforms(geom.count(), victim, period, driver, rises, from, to);
    const LinkNetlist link = build_link_netlist(geom, cap, waves, driver, opts);
    expect_tracks(track_reference(link, period / 400, 3 * 400),
                  "scenario " + std::to_string(rises) + std::to_string(from) + std::to_string(to));
  }
}

TEST(Propagator, TracksReferenceAtOneStepPerCycle) {
  auto geom = phys::TsvArrayGeometry::itrs2018_min(3, 3);
  const auto cap = tsv::analytic_capacitance(geom, std::vector<double>(geom.count(), 0.5));
  SimOptions opts;
  opts.steps_per_cycle = 1;
  expect_tracks(track_link(geom, cap, random_words(200, geom.count(), 3), opts), "1 step");
}

// As long as one fig6_circuit run: 3,000 cycles, 96,000 steps.
TEST(Propagator, TracksReferenceOver3000Cycles) {
  auto geom = phys::TsvArrayGeometry::itrs2018_min(3, 3);
  const auto cap = tsv::analytic_capacitance(geom, std::vector<double>(geom.count(), 0.5));
  SimOptions opts;
  opts.steps_per_cycle = 32;
  expect_tracks(track_link(geom, cap, random_words(3000, geom.count(), 4), opts), "3000 cycles");
}

}  // namespace
