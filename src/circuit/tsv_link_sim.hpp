#pragma once
// Circuit-level TSV link simulation (paper Sec. 7 / Fig. 6).
//
// Builds the 3-pi RC(L) network of a TSV array from a paper-form capacitance
// matrix, drives it with switched Thevenin drivers (PTM-like strength-6
// output resistance, finite rise time) at the clock frequency, integrates
// the supply energy over a word sequence, and adds a constant per-driver
// leakage. The words passed in are *line* words: the bit-to-TSV assignment
// (including inversions) must already be applied by the caller, which keeps
// this module independent of the core library.

#include <cstdint>
#include <span>
#include <vector>

#include "circuit/netlist.hpp"
#include "phys/matrix.hpp"
#include "phys/tsv_geometry.hpp"

namespace tsvcod::circuit {

struct DriverParams {
  double resistance = 300.0;      ///< driver output resistance [Ohm]
  double rise_time = 5e-12;       ///< output transition time [s]
  double vdd = 1.0;               ///< supply [V]
  double leakage_current = 0.5e-6;///< per-driver static supply current [A]
  double receiver_cap = 2e-15;    ///< receiver input capacitance [F]

  /// Throws std::invalid_argument naming the field unless `resistance` is
  /// finite and > 0, `rise_time` is finite, >= 0 and < `period`, `vdd` is
  /// finite and > 0, and `leakage_current` and `receiver_cap` are finite
  /// and >= 0.
  void validate(double period) const;
};

struct SimOptions {
  double frequency = 3e9;   ///< clock [Hz]
  int segments = 3;         ///< pi segments of the TSV model (3 = paper's 3-pi)
  int steps_per_cycle = 40;
  bool with_inductance = true;

  /// Throws std::invalid_argument naming the field unless `frequency` is
  /// finite and > 0, `segments` >= 1 and `steps_per_cycle` >= 1.
  void validate() const;
};

struct LinkSimResult {
  double dynamic_energy = 0.0;  ///< supply energy over the window [J]
  double dynamic_power = 0.0;   ///< mean dynamic power [W]
  double leakage_power = 0.0;   ///< static power of all drivers [W]
  std::size_t cycles = 0;

  double total_power() const { return dynamic_power + leakage_power; }
};

/// DC resistance of one TSV [Ohm].
double tsv_resistance(const phys::TsvArrayGeometry& geom);
/// Partial self-inductance of one TSV [H].
double tsv_inductance(const phys::TsvArrayGeometry& geom);

/// The assembled circuit of a TSV link: driver sources, pi-ladders and the
/// distributed capacitances. Exposed so analyses beyond power (crosstalk,
/// delay) can drive the same network with their own waveforms.
struct LinkNetlist {
  Netlist net;
  std::vector<int> source_ids;      ///< per-TSV driver source index
  std::vector<int> receiver_nodes;  ///< per-TSV far-end node
};

/// Build the 3-pi network with one waveform per TSV line. A non-finite
/// entry of `cap` is rejected naming (i, j); zero and negative entries (a
/// fitted model can round an absent coupling to about -1e-32) add no
/// capacitor.
LinkNetlist build_link_netlist(const phys::TsvArrayGeometry& geom, const phys::Matrix& cap,
                               std::span<const Waveform> line_waveforms,
                               const DriverParams& driver = {}, const SimOptions& options = {});

/// Simulate the transmission of `line_words` (one word per cycle, bit k on
/// TSV k) over the array with capacitances `cap` (paper form, farads).
LinkSimResult simulate_link(const phys::TsvArrayGeometry& geom, const phys::Matrix& cap,
                            std::span<const std::uint64_t> line_words,
                            const DriverParams& driver = {}, const SimOptions& options = {});

}  // namespace tsvcod::circuit
