#include "circuit/crosstalk.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "circuit/transient.hpp"

namespace tsvcod::circuit {

double victim_bounce(const phys::TsvArrayGeometry& geom, const phys::Matrix& cap,
                     std::size_t victim, const DriverParams& driver,
                     const SimOptions& options) {
  options.validate();
  driver.validate(1.0 / options.frequency);
  if (victim >= geom.count()) throw std::invalid_argument("victim_bounce: victim index");
  const std::size_t n = geom.count();
  const double period = 1.0 / options.frequency;

  std::vector<Waveform> waves;
  waves.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::uint8_t> bits =
        i == victim ? std::vector<std::uint8_t>{0, 0, 0} : std::vector<std::uint8_t>{0, 1, 1};
    waves.push_back(bit_waveform(std::move(bits), period, driver.rise_time, driver.vdd));
  }
  const LinkNetlist link = build_link_netlist(geom, cap, waves, driver, options);

  // Fine time step; the held victim's start-up before t = period is ignored.
  const double dt = period / std::max(options.steps_per_cycle, 400);
  TransientSim sim(link.net, dt);
  const int probe = link.receiver_nodes[victim];
  double peak = 0.0;
  while (sim.time() < 3.0 * period) {
    sim.step();
    if (sim.time() > period) peak = std::max(peak, std::abs(sim.node_voltage(probe)));
  }
  return peak;
}

}  // namespace tsvcod::circuit
