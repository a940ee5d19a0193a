#include "circuit/tsv_link_sim.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/transient.hpp"
#include "obs/obs.hpp"
#include "phys/constants.hpp"

namespace tsvcod::circuit {

void SimOptions::validate() const {
  if (!(frequency > 0.0) || !std::isfinite(frequency)) {
    throw std::invalid_argument("SimOptions.frequency must be finite and > 0 (got " +
                                std::to_string(frequency) + ")");
  }
  if (segments < 1) {
    throw std::invalid_argument("SimOptions.segments must be >= 1 (got " +
                                std::to_string(segments) + ")");
  }
  if (steps_per_cycle < 1) {
    throw std::invalid_argument("SimOptions.steps_per_cycle must be >= 1 (got " +
                                std::to_string(steps_per_cycle) + ")");
  }
}

void DriverParams::validate(double period) const {
  const auto check = [](bool ok, const char* field, const char* rule, double v) {
    if (!ok) {
      throw std::invalid_argument(std::string("DriverParams.") + field + " must be " + rule +
                                  " (got " + std::to_string(v) + ")");
    }
  };
  check(std::isfinite(resistance) && resistance > 0.0, "resistance", "finite and > 0",
        resistance);
  check(std::isfinite(rise_time) && rise_time >= 0.0 && rise_time < period, "rise_time",
        "finite, >= 0 and < the clock period", rise_time);
  check(std::isfinite(vdd) && vdd > 0.0, "vdd", "finite and > 0", vdd);
  check(std::isfinite(leakage_current) && leakage_current >= 0.0, "leakage_current",
        "finite and >= 0", leakage_current);
  check(std::isfinite(receiver_cap) && receiver_cap >= 0.0, "receiver_cap", "finite and >= 0",
        receiver_cap);
}

double tsv_resistance(const phys::TsvArrayGeometry& geom) {
  return phys::rho_cu * geom.length / (phys::pi * geom.radius * geom.radius);
}

double tsv_inductance(const phys::TsvArrayGeometry& geom) {
  // Partial self-inductance of a cylindrical conductor.
  constexpr double mu0 = 4.0e-7 * phys::pi;
  const double l = geom.length;
  const double r = geom.radius;
  return mu0 * l / (2.0 * phys::pi) * (std::log(2.0 * l / r) - 0.75);
}

LinkNetlist build_link_netlist(const phys::TsvArrayGeometry& geom, const phys::Matrix& cap,
                               std::span<const Waveform> line_waveforms,
                               const DriverParams& driver, const SimOptions& options) {
  geom.validate();
  options.validate();
  driver.validate(1.0 / options.frequency);
  const std::size_t n = geom.count();
  if (cap.rows() != n || cap.cols() != n) {
    throw std::invalid_argument("build_link_netlist: capacitance matrix size mismatch");
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (!std::isfinite(cap(i, j))) {
        throw std::invalid_argument("build_link_netlist: capacitance (" + std::to_string(i) +
                                    ", " + std::to_string(j) + ") is not finite");
      }
    }
  }
  if (line_waveforms.size() != n) {
    throw std::invalid_argument("build_link_netlist: one waveform per TSV required");
  }

  const int seg = options.segments;
  const double r_seg = tsv_resistance(geom) / seg;
  const double l_seg = tsv_inductance(geom) / seg;

  // Shunt weights of the pi ladder: 1/(2*seg) at the two end nodes, 1/seg at
  // the internal ones (for seg = 3: 1/6, 1/3, 1/3, 1/6).
  std::vector<double> shunt(static_cast<std::size_t>(seg) + 1, 1.0 / seg);
  shunt.front() = shunt.back() = 0.5 / seg;

  LinkNetlist link;
  Netlist& net = link.net;
  std::vector<int> src_node(n);
  std::vector<std::vector<int>> ladder(n, std::vector<int>(static_cast<std::size_t>(seg) + 1));
  for (std::size_t i = 0; i < n; ++i) {
    src_node[i] = net.add_node();
    for (int k = 0; k <= seg; ++k) ladder[i][static_cast<std::size_t>(k)] = net.add_node();
  }

  link.source_ids.resize(n);
  link.receiver_nodes.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    link.source_ids[i] = net.vsource(src_node[i], Netlist::kGround, line_waveforms[i]);
    link.receiver_nodes[i] = ladder[i].back();
    net.resistor(src_node[i], ladder[i].front(), driver.resistance);
    net.capacitor(ladder[i].back(), Netlist::kGround, driver.receiver_cap);
    for (int k = 0; k < seg; ++k) {
      const int a = ladder[i][static_cast<std::size_t>(k)];
      const int b = ladder[i][static_cast<std::size_t>(k) + 1];
      if (options.with_inductance) {
        const int mid = net.add_node();
        net.resistor(a, mid, r_seg);
        net.inductor(mid, b, l_seg);
      } else {
        net.resistor(a, b, r_seg);
      }
    }
  }

  // Distributed ground and coupling capacitances along the ladder.
  for (std::size_t i = 0; i < n; ++i) {
    for (int k = 0; k <= seg; ++k) {
      const double w = shunt[static_cast<std::size_t>(k)];
      if (cap(i, i) > 0.0) {
        net.capacitor(ladder[i][static_cast<std::size_t>(k)], Netlist::kGround, cap(i, i) * w);
      }
      for (std::size_t j = i + 1; j < n; ++j) {
        if (cap(i, j) > 0.0) {
          net.capacitor(ladder[i][static_cast<std::size_t>(k)],
                        ladder[j][static_cast<std::size_t>(k)], cap(i, j) * w);
        }
      }
    }
  }
  return link;
}

LinkSimResult simulate_link(const phys::TsvArrayGeometry& geom, const phys::Matrix& cap,
                            std::span<const std::uint64_t> line_words,
                            const DriverParams& driver, const SimOptions& options) {
  obs::Span span("circuit.simulate_link");
  options.validate();
  const std::size_t n = geom.count();
  if (line_words.size() < 2) throw std::invalid_argument("simulate_link: need >= 2 words");
  const double period = 1.0 / options.frequency;
  driver.validate(period);

  std::vector<Waveform> waves;
  waves.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::uint8_t> bits(line_words.size());
    for (std::size_t t = 0; t < line_words.size(); ++t) {
      bits[t] = static_cast<std::uint8_t>((line_words[t] >> i) & 1u);
    }
    waves.push_back(bit_waveform(std::move(bits), period, driver.rise_time, driver.vdd));
  }
  const LinkNetlist link = build_link_netlist(geom, cap, waves, driver, options);

  const double dt = period / options.steps_per_cycle;
  TransientSim sim(link.net, dt);
  const double t_end = period * static_cast<double>(line_words.size());
  sim.run_until(t_end);

  LinkSimResult out;
  out.cycles = line_words.size();
  // Net supply energy: the driver sources sit at the rail voltages except
  // during the short (5 ps default) edges, so the signed integral of v*i of
  // each source is the energy its rail delivers. Rectified (charge-based)
  // metering would double-bill static-victim crosstalk, whose bounce charge
  // physically returns to the rail.
  for (std::size_t i = 0; i < n; ++i) {
    out.dynamic_energy += sim.source_energy(link.source_ids[i]);
  }
  out.dynamic_power = out.dynamic_energy / t_end;
  out.leakage_power = static_cast<double>(n) * driver.leakage_current * driver.vdd;
  return out;
}

}  // namespace tsvcod::circuit
