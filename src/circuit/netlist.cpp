#include "circuit/netlist.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace tsvcod::circuit {

void Netlist::check_node(int n) const {
  if (n < 0 || n > node_count_) throw std::invalid_argument("Netlist: unknown node");
}

void Netlist::resistor(int a, int b, double ohms) {
  check_node(a);
  check_node(b);
  if (!(ohms > 0.0) || !std::isfinite(ohms)) {
    throw std::invalid_argument("Netlist: resistance must be finite and positive");
  }
  resistors_.push_back({a, b, ohms});
}

void Netlist::capacitor(int a, int b, double farads) {
  check_node(a);
  check_node(b);
  if (!(farads >= 0.0) || !std::isfinite(farads)) {
    throw std::invalid_argument("Netlist: capacitance must be finite and >= 0");
  }
  if (farads > 0.0) capacitors_.push_back({a, b, farads});
}

void Netlist::inductor(int a, int b, double henries) {
  check_node(a);
  check_node(b);
  if (!(henries > 0.0) || !std::isfinite(henries)) {
    throw std::invalid_argument("Netlist: inductance must be finite and positive");
  }
  inductors_.push_back({a, b, henries});
}

int Netlist::vsource(int plus, int minus, Waveform v) {
  check_node(plus);
  check_node(minus);
  if (!v) throw std::invalid_argument("Netlist: null waveform");
  sources_.push_back({plus, minus, std::move(v)});
  return static_cast<int>(sources_.size()) - 1;
}

Waveform bit_waveform(std::vector<std::uint8_t> bits, double period, double rise, double vdd) {
  if (bits.empty()) throw std::invalid_argument("bit_waveform: empty bit sequence");
  if (!(period > 0.0) || !(rise >= 0.0) || rise >= period) {
    throw std::invalid_argument("bit_waveform: need 0 <= rise < period");
  }
  return [bits = std::move(bits), period, rise, vdd](double t) -> double {
    if (t <= 0.0) return 0.0;
    const auto cycle = static_cast<std::size_t>(std::floor(t / period));
    const double phase = t - static_cast<double>(cycle) * period;
    const double to = cycle < bits.size() ? (bits[cycle] ? vdd : 0.0) : (bits.back() ? vdd : 0.0);
    const double from =
        cycle == 0 ? 0.0 : (bits[std::min(cycle - 1, bits.size() - 1)] ? vdd : 0.0);
    if (rise <= 0.0 || phase >= rise) return to;
    return from + (to - from) * phase / rise;
  };
}

}  // namespace tsvcod::circuit
