#pragma once
// Traffic generation for the 3D-mesh NoC.
//
// Spatial patterns (who talks to whom):
//  * Uniform  — uniformly random destinations.
//  * Hotspot  — all traffic targets the top layer (logic-under-memory
//               stacking: every node fetches from the memory die above),
//               which concentrates flits on the vertical TSV links.
//  * Transpose— (x,y,z) -> (y,x,nz-1-z), a classic adversarial pattern.
//
// Payload models (what the flits carry — this is what the bit-to-TSV
// assignment exploits):
//  * Random   — incompressible data.
//  * Dsp      — 2 x 16 b Gaussian AR(1) samples packed per 32 b flit.
//  * ImageDma — consecutive bytes of a synthetic image, 4 pixels per flit.
//  * Mems     — interleaved 16 b MEMS accelerometer axes, 2 per 32 b flit
//               (the paper's Sec. 5.2 sensor workload on the network).
//
// Temporal shape: steady Bernoulli injection by default; setting
// `burst_on`/`burst_off` turns each node into a two-state Markov source
// (mean `burst_on` cycles injecting at `injection_rate`, mean `burst_off`
// cycles silent) — the bursty MEMS/DMA regime of the ROADMAP.
//
// Determinism and parallelism: every node owns an independent generator
// state seeded from (seed, node index) via opt::deterministic_seed, so
// injection at node n on cycle c is a pure function of (config, n, c) —
// independent of call interleaving across nodes. The parallel cycle kernel
// relies on exactly this to inject from worker ranks and still produce
// bit-identical traffic at every thread count.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "noc/topology.hpp"
#include "streams/word_stream.hpp"

namespace tsvcod::noc {

enum class SpatialPattern { Uniform, Hotspot, Transpose };
enum class PayloadModel { Random, Dsp, ImageDma, Mems };

struct TrafficConfig {
  SpatialPattern spatial = SpatialPattern::Hotspot;
  PayloadModel payload = PayloadModel::Random;
  double injection_rate = 0.1;  ///< flits per node per cycle (while bursting)
  std::size_t flit_width = 32;
  std::uint64_t seed = 1;
  /// Mean cycles of a node's injection burst / silence gap. Both 0 = steady
  /// injection (no burst modulation); both must be set together.
  double burst_on = 0.0;
  double burst_off = 0.0;

  /// Throws std::invalid_argument naming the offending field.
  void validate() const;
};

/// One flit: the transfer unit of the mesh (single-flit packets).
struct Flit {
  std::uint64_t payload = 0;
  NodeId src{};
  NodeId dst{};
  std::size_t injected_at = 0;  ///< cycle of injection
};

class TrafficGenerator {
 public:
  TrafficGenerator(const Mesh3D& mesh, const TrafficConfig& config);
  ~TrafficGenerator();
  TrafficGenerator(TrafficGenerator&&) noexcept;

  /// Flit injected at node `node_index` (Mesh3D::index) in this cycle (0 or
  /// 1 in this model). Node states are independent: concurrent calls for
  /// *different* nodes are safe and deterministic; calls for one node must
  /// stay in cycle order.
  std::optional<Flit> generate(std::size_t node_index, std::size_t cycle);

 private:
  struct NodeState;

  NodeId pick_destination(NodeId src, NodeState& st);

  const Mesh3D& mesh_;
  TrafficConfig config_;
  /// injection_rate rescaled to the raw 53-bit draw domain, so the per-cycle
  /// inject decision is one integer compare. Exactly equivalent to comparing
  /// real01() < rate: the draw m is uniform over [0, 2^53) and
  /// m * 2^-53 < rate  <=>  m < ceil(rate * 2^53) (both sides exact doubles).
  std::uint64_t inject_threshold_ = 0;
  std::vector<NodeState> nodes_;
};

}  // namespace tsvcod::noc
