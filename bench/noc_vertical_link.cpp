// Full-system 3D-NoC study (extends the paper's last experiment): simulate a
// 4x4x2 mesh under memory-fetch (hotspot) traffic, capture the words that
// physically cross one vertical TSV bundle — flit payload, valid line, idle
// hold cycles and all — and apply the bit-to-TSV assignment to that captured
// trace. Swept over payload types to show where the gains come from:
// incompressible random flits give little, DSP and DMA payloads plus the
// mostly-idle valid line give a lot. The bench exits 1 unless the claims
// recorded in EXPERIMENTS.md hold.
#include <cstdio>
#include <vector>

#include "common.hpp"
#include "noc/simulator.hpp"

using namespace tsvcod;

namespace {

constexpr std::size_t kCycles = 40000;

/// Optimal power's reduction (%) versus the mean random assignment.
double run(const char* name, noc::PayloadModel payload) {
  noc::Mesh3D mesh(4, 4, 2);
  noc::TrafficConfig cfg;
  cfg.spatial = noc::SpatialPattern::Hotspot;
  cfg.payload = payload;
  cfg.injection_rate = 0.25;
  cfg.flit_width = 32;

  noc::NocSimulator sim(mesh, cfg);
  sim.probe_link({noc::NodeId{1, 1, 0}, noc::Direction::ZPlus});
  const auto stats = sim.run(kCycles);

  // The 33 captured lines (32 data + valid) plus redundant/Vdd/GND stable
  // lines fill a 6x6 TSV bundle, as in the paper's Sec. 5 arrays.
  std::vector<std::uint64_t> words;
  words.reserve(sim.probe_trace().size());
  for (const auto w : sim.probe_trace()) {
    words.push_back(w | (std::uint64_t{1} << 34));  // Vdd line at 1
  }
  phys::TsvArrayGeometry geom;
  geom.rows = geom.cols = 6;
  geom.radius = 1e-6;
  geom.pitch = 4e-6;
  const core::Link link(geom);
  const auto st = stats::compute_stats(words, 36);

  auto opts = bench::default_study().optimize;
  opts.allow_invert.assign(36, 1);
  opts.allow_invert[34] = 0;  // Vdd
  opts.allow_invert[35] = 0;  // GND
  const auto best = core::optimize_assignment(st, link.model(), opts);
  const auto base = core::random_assignment_power(st, link.model(), 300);

  const double reduction = core::reduction_pct(base.mean, best.power);
  std::printf(
      "%-10s link util %4.1f %%  latency %5.1f cy | random %9.1f aF  optimal %9.1f aF  "
      "(-%.1f %%)\n",
      name, 100.0 * static_cast<double>(stats.probe_busy_cycles) / static_cast<double>(kCycles),
      stats.mean_latency, base.mean * 1e18, best.power * 1e18, reduction);
  return reduction;
}

}  // namespace

int main() {
  bench::print_header("3D-NoC vertical link: captured-trace assignment study (4x4x2, hotspot)",
                      "system-level extension of Sec. 7's NoC experiment");
  const double random = run("random", noc::PayloadModel::Random);
  const double dsp = run("DSP", noc::PayloadModel::Dsp);
  const double dma = run("imageDMA", noc::PayloadModel::ImageDma);

  bench::Claims claim("NoC vertical link");
  claim(random < 8.0, "random payloads: reduction < 8 %");
  claim(dsp >= 12.0 && dsp >= 2.0 * random, "DSP: reduction >= 12 % and >= 2x random");
  claim(dma >= 12.0 && dma >= 2.0 * random, "imageDMA: reduction >= 12 % and >= 2x random");
  return claim.verdict();
}
