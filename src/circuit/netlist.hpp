#pragma once
// Linear circuit netlist for transient simulation (the repo's stand-in for
// the paper's Spectre runs).
//
// Supported elements: resistors, capacitors, inductors and independent
// voltage sources with arbitrary time-dependent waveforms. Node 0 is ground.
// The netlist is immutable once handed to a TransientSim.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace tsvcod::circuit {

using Waveform = std::function<double(double)>;  ///< volts as a function of time [s]

struct Resistor {
  int a, b;
  double ohms;
};
struct Capacitor {
  int a, b;
  double farads;
};
struct Inductor {
  int a, b;
  double henries;
};
struct VSource {
  int plus, minus;
  Waveform v;
};

class Netlist {
 public:
  static constexpr int kGround = 0;

  /// Create a new node; node ids are dense and start at 1.
  int add_node() { return ++node_count_; }
  int node_count() const { return node_count_; }

  void resistor(int a, int b, double ohms);
  void capacitor(int a, int b, double farads);
  void inductor(int a, int b, double henries);
  /// Returns the source index (for energy metering).
  int vsource(int plus, int minus, Waveform v);

  const std::vector<Resistor>& resistors() const { return resistors_; }
  const std::vector<Capacitor>& capacitors() const { return capacitors_; }
  const std::vector<Inductor>& inductors() const { return inductors_; }
  const std::vector<VSource>& sources() const { return sources_; }

 private:
  void check_node(int n) const;

  int node_count_ = 0;
  std::vector<Resistor> resistors_;
  std::vector<Capacitor> capacitors_;
  std::vector<Inductor> inductors_;
  std::vector<VSource> sources_;
};

/// Trapezoidal bit-sequence waveform: bit k holds during cycle k (period
/// `period` seconds) with linear transitions of `rise` seconds at each cycle
/// boundary. The level before the first cycle is 0.
Waveform bit_waveform(std::vector<std::uint8_t> bits, double period, double rise, double vdd);

}  // namespace tsvcod::circuit
