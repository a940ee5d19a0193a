#include "circuit/crosstalk.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "circuit/transient.hpp"

namespace tsvcod::circuit {

namespace {

/// Simulate one scenario and return (peak |noise| on victim, 50 % delay of
/// the victim edge launched at t = period). `delay` is NaN when the victim
/// never crosses.
struct ScenarioResult {
  double peak = 0.0;
  double delay = std::nan("");
};

ScenarioResult run_scenario(const phys::TsvArrayGeometry& geom, const phys::Matrix& cap,
                            std::size_t victim, const DriverParams& driver,
                            const SimOptions& options, bool victim_rises,
                            std::uint8_t aggressor_from, std::uint8_t aggressor_to) {
  const std::size_t n = geom.count();
  const double period = 1.0 / options.frequency;

  std::vector<Waveform> waves;
  waves.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::uint8_t> bits;
    if (i == victim) {
      bits = victim_rises ? std::vector<std::uint8_t>{0, 1, 1} : std::vector<std::uint8_t>{0, 0, 0};
    } else {
      bits = {aggressor_from, aggressor_to, aggressor_to};
    }
    waves.push_back(bit_waveform(std::move(bits), period, driver.rise_time, driver.vdd));
  }
  const LinkNetlist link = build_link_netlist(geom, cap, waves, driver, options);

  // Fine time step for delay resolution.
  const double dt = period / std::max(options.steps_per_cycle, 400);
  TransientSim sim(link.net, dt);
  const int probe = link.receiver_nodes[victim];

  ScenarioResult out;
  const double settle = victim_rises ? 0.0 : period;  // ignore start-up of held victims
  while (sim.time() < 3.0 * period) {
    sim.step();
    const double v = sim.node_voltage(probe);
    if (!victim_rises && sim.time() > settle) {
      out.peak = std::max(out.peak, std::abs(v));
    }
    if (victim_rises && std::isnan(out.delay) && sim.time() > period &&
        v >= 0.5 * driver.vdd) {
      out.delay = sim.time() - period;
    }
  }
  return out;
}

}  // namespace

CrosstalkResult analyze_crosstalk(const phys::TsvArrayGeometry& geom, const phys::Matrix& cap,
                                  std::size_t victim, const DriverParams& driver,
                                  const SimOptions& options) {
  options.validate();
  driver.validate(1.0 / options.frequency);
  if (victim >= geom.count()) throw std::invalid_argument("analyze_crosstalk: victim index");
  CrosstalkResult out;
  // Quiet victim at 0, all aggressors rising together at t = period.
  out.victim_peak_noise =
      run_scenario(geom, cap, victim, driver, options, false, 0, 1).peak;
  // Victim rising alone (aggressors parked at 0).
  out.victim_delay_quiet =
      run_scenario(geom, cap, victim, driver, options, true, 0, 0).delay;
  // Victim rising while every aggressor falls (worst Miller case).
  out.victim_delay_opposed =
      run_scenario(geom, cap, victim, driver, options, true, 1, 0).delay;
  return out;
}

}  // namespace tsvcod::circuit
