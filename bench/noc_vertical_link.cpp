// Full-system 3D-NoC study (extends the paper's last experiment): simulate a
// 4x4x2 mesh under memory-fetch (hotspot) traffic, capture the words that
// physically cross one vertical TSV bundle — flit payload, valid line, idle
// hold cycles and all — and apply the bit-to-TSV assignment to that captured
// trace. Swept over payload types to show where the gains come from:
// incompressible random flits give little, DSP and DMA payloads plus the
// mostly-idle valid line give a lot.
//
//   noc_vertical_link [--cycles N] [--out PATH]
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common.hpp"
#include "noc/simulator.hpp"

using namespace tsvcod;

namespace {

struct Row {
  double link_util_pct = 0.0;
  double mean_latency = 0.0;
  double random_power_aF = 0.0;
  double optimal_power_aF = 0.0;
  double reduction_pct = 0.0;
};

Row run(const char* name, noc::PayloadModel payload, std::size_t cycles) {
  noc::Mesh3D mesh(4, 4, 2);
  noc::TrafficConfig cfg;
  cfg.spatial = noc::SpatialPattern::Hotspot;
  cfg.payload = payload;
  cfg.injection_rate = 0.25;
  cfg.flit_width = 32;

  noc::NocSimulator sim(mesh, cfg);
  sim.probe_link({noc::NodeId{1, 1, 0}, noc::Direction::ZPlus});
  const auto stats = sim.run(cycles);

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

  Row row;
  row.link_util_pct =
      100.0 * static_cast<double>(stats.probe_busy_cycles) / static_cast<double>(cycles);
  row.mean_latency = stats.mean_latency;
  row.random_power_aF = base.mean * 1e18;
  row.optimal_power_aF = best.power * 1e18;
  row.reduction_pct = core::reduction_pct(base.mean, best.power);
  std::printf(
      "%-10s link util %4.1f %%  latency %5.1f cy | random %9.1f aF  optimal %9.1f aF  "
      "(-%.1f %%)\n",
      name, row.link_util_pct, row.mean_latency, row.random_power_aF, row.optimal_power_aF,
      row.reduction_pct);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t cycles = 40000;
  std::string out = "BENCH_noc_vertical_link.json";
  for (int i = 1; i < argc; ++i) {
    const auto next = [&](const char* flag) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "noc_vertical_link: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--cycles")) {
      cycles = bench::size_flag("noc_vertical_link", "--cycles", next("--cycles"));
    } else if (!std::strcmp(argv[i], "--out")) {
      out = next("--out");
    } else {
      std::fprintf(stderr, "usage: noc_vertical_link [--cycles N] [--out PATH]\n");
      return 2;
    }
  }
  if (cycles < 100) cycles = 100;

  bench::print_header("3D-NoC vertical link: captured-trace assignment study (4x4x2, hotspot)",
                      "system-level extension of Sec. 7's NoC experiment");

  bench::BenchJson doc("noc_vertical_link");
  doc.param("cycles", static_cast<double>(cycles));
  const struct {
    const char* name;
    noc::PayloadModel payload;
  } sweeps[] = {
      {"random", noc::PayloadModel::Random},
      {"DSP", noc::PayloadModel::Dsp},
      {"imageDMA", noc::PayloadModel::ImageDma},
  };
  for (const auto& sweep : sweeps) {
    const Row row = run(sweep.name, sweep.payload, cycles);
    doc.begin_row()
        .field("name", sweep.name)
        .field("link_util_pct", row.link_util_pct)
        .field("mean_latency_cycles", row.mean_latency)
        .field("random_power_aF", row.random_power_aF)
        .field("optimal_power_aF", row.optimal_power_aF)
        .field("reduction_pct", row.reduction_pct);
  }
  doc.write(out);
  std::printf("\nBENCH {\"bench\": \"noc_vertical_link\", \"out\": \"%s\"}\n", out.c_str());
  return 0;
}
