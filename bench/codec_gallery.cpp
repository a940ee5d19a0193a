// Codec gallery (beyond the paper's figures, generalizing its Sec. 6):
// normalized TSV power of every codec in the library, with the identity and
// the optimal bit-to-TSV assignment, across four signal classes. The table
// answers the practical question the paper raises: which encoding + which
// assignment for which data — and shows that the assignment consistently
// stacks on top of whichever codec fits the workload. The bench exits 1
// unless the claims recorded in EXPERIMENTS.md hold.
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "coding/bus_invert.hpp"
#include "coding/correlator.hpp"
#include "coding/gray.hpp"
#include "coding/t0.hpp"
#include "common.hpp"
#include "streams/image_sensor.hpp"
#include "streams/random_streams.hpp"

using namespace tsvcod;

namespace {

constexpr std::size_t kSamples = 40000;

using CodecFactory = std::function<std::unique_ptr<coding::Codec>(std::size_t width)>;

struct CodecEntry {
  const char* name;
  CodecFactory make;  ///< null = uncoded
};

struct StreamEntry {
  const char* name;
  std::function<std::unique_ptr<streams::WordStream>(std::size_t width)> make;
};

/// Identity and optimal power [F] of one codec on one stream.
struct Cell {
  double identity, optimal;
};

/// One cell per codec, in the order of `codecs`.
std::vector<Cell> run(const StreamEntry& se, const std::vector<CodecEntry>& codecs) {
  std::vector<Cell> cells;
  std::printf("\n-- %s --\n", se.name);
  std::printf("%-18s %14s %14s %10s\n", "codec", "identity aF", "optimal aF", "opt red %");
  // Arrays sized so that codec outputs (payload + flag lines) fit exactly.
  for (const auto& ce : codecs) {
    // 8-bit payloads; flag-extending codecs get a 3x3, others a 2x4 hole.
    const std::size_t payload = 8;
    std::unique_ptr<streams::WordStream> stream = se.make(payload);
    std::size_t lines = payload;
    if (ce.make) {
      auto codec = ce.make(payload);
      lines = codec->width_out();
      stream = std::make_unique<coding::EncodedStream>(std::move(stream), std::move(codec));
    }
    phys::TsvArrayGeometry geom;
    geom.rows = lines == 9 ? 3 : 2;
    geom.cols = lines == 9 ? 3 : 4;
    geom.radius = 1e-6;
    geom.pitch = 4e-6;
    const core::Link link(geom);

    const auto st = link.measure(*stream, kSamples);
    const auto identity = core::SignedPermutation::identity(lines);
    const double p_id = link.power(st, identity);
    auto opts = bench::default_study().optimize;
    opts.schedule.iterations = 10000;
    const auto best = core::optimize_assignment(st, link.model(), opts);
    std::printf("%-18s %14.1f %14.1f %10.1f\n", ce.name, p_id * 1e18, best.power * 1e18,
                core::reduction_pct(p_id, best.power));
    cells.push_back({p_id, best.power});
  }
  return cells;
}

}  // namespace

int main() {
  bench::print_header("Codec gallery: every codec x {identity, optimal assignment}",
                      "extends Sec. 6: the assignment stacks on any encoding");

  const std::vector<CodecEntry> codecs{
      {"uncoded", nullptr},
      {"gray", [](std::size_t w) { return std::make_unique<coding::GrayCodec>(w); }},
      {"t0", [](std::size_t w) { return std::make_unique<coding::T0Codec>(w); }},
      {"bus-invert", [](std::size_t w) { return std::make_unique<coding::BusInvertCodec>(w); }},
      {"coupling-invert",
       [](std::size_t w) { return std::make_unique<coding::CouplingInvertCodec>(w); }},
      {"correlator", [](std::size_t w) { return std::make_unique<coding::CorrelatorCodec>(w, 4); }},
  };

  const std::vector<StreamEntry> streams_under_test{
      {"sequential addresses (branch 2%)",
       [](std::size_t w) { return std::make_unique<streams::SequentialStream>(w, 0.02, 5); }},
      {"Gaussian DSP (sigma 24, rho 0.5)",
       [](std::size_t w) { return std::make_unique<streams::GaussianAr1Stream>(w, 24.0, 0.5, 5); }},
      {"multiplexed Bayer colors",
       [](std::size_t) { return std::make_unique<streams::BayerMuxStream>(); }},
      {"uniform random",
       [](std::size_t w) { return std::make_unique<streams::UniformRandomStream>(w, 5); }},
  };

  std::vector<std::vector<Cell>> table;
  for (const auto& se : streams_under_test) table.push_back(run(se, codecs));

  // Indices into `codecs` and `streams_under_test`.
  enum { kUncoded, kGray, kT0, kBusInvert, kCouplingInvert, kCorrelator };
  enum { kAddresses, kDsp, kBayer, kUniform };
  std::printf("\n");
  bench::Claims claim("codec gallery");
  const auto& addresses = table[kAddresses];
  claim(addresses[kUncoded].identity >= 10.0 * addresses[kT0].identity,
        "T0 cuts address power >= 10x before the assignment");
  const auto& bayer = table[kBayer];
  bool lowest_identity = true;
  bool lowest_optimal = true;
  for (const Cell& c : bayer) {
    lowest_identity &= bayer[kCorrelator].identity <= c.identity;
    lowest_optimal &= bayer[kCorrelator].optimal <= c.optimal;
  }
  claim(lowest_identity && lowest_optimal,
        "the correlator gives the lowest identity and optimal power on muxed Bayer data");
  for (std::size_t s = 0; s < table.size(); ++s) {
    for (std::size_t c = 0; c < codecs.size(); ++c) {
      claim(table[s][c].optimal < table[s][c].identity,
            std::string(streams_under_test[s].name) + ", " + codecs[c].name +
                ": optimal < identity");
    }
  }
  const auto& uniform = table[kUniform];
  claim(uniform[kBusInvert].identity <= 0.9 * uniform[kUncoded].identity &&
            uniform[kCouplingInvert].identity <= 0.9 * uniform[kUncoded].identity,
        "bus-invert and coupling-invert >= 10 % below uncoded on uniform random data");
  return claim.verdict();
}
