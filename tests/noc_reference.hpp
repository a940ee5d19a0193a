#pragma once
// Reference mesh simulator: the pre-optimization design, kept on purpose.
//
// This is the deque-of-Flit, NodeId-everywhere, allocate-per-cycle simulator
// the batched engine (noc/simulator.hpp) replaced, adjusted to the engine's
// exact two-phase timing and arbitration discipline. It is the golden
// model of the NoC tests: it computes the same SimStats (injection,
// delivery, latency sum, ejection digest, per-link flit/toggle counters,
// occupancy high-water mark) through completely different data structures,
// so a differential test against the batched engine catches bookkeeping bugs
// in either one. Only test_noc links it.
//
// Unbounded queues (the batched engine's only queue model), no coding, no
// probe — the common core only.

#include "noc/traffic.hpp"

namespace tsvcod::noc {

struct SimStats;

/// Dimension-order (X, then Y, then Z) routing: the output direction a flit
/// at `at` takes towards `dst`; Local when it has arrived. XYZ order is
/// deadlock-free on a mesh.
Direction xyz_route(NodeId at, NodeId dst);

class ReferenceSimulator {
 public:
  ReferenceSimulator(const Mesh3D& mesh, const TrafficConfig& traffic);
  ~ReferenceSimulator();
  ReferenceSimulator(ReferenceSimulator&&) noexcept;

  /// Run `cycles` cycles. The populated SimStats fields are: injected,
  /// delivered, latency_cycles, mean_latency, max_queued, in_flight,
  /// ejection_digest, link_flits and link_toggles — each bit-identical to
  /// the batched engine under the same (mesh, traffic, cycles).
  SimStats run(std::size_t cycles);

 private:
  struct Node;

  const Mesh3D& mesh_;
  TrafficGenerator traffic_;
  std::vector<Node> nodes_;
  std::size_t flit_width_;
  std::size_t cycle_ = 0;
  std::size_t injected_ = 0;
  std::size_t delivered_ = 0;
  std::uint64_t latency_ = 0;
  std::size_t max_queued_ = 0;
  std::vector<std::uint64_t> digest_;
  std::vector<std::uint64_t> delivered_per_;
  std::vector<std::uint64_t> link_flits_;
  std::vector<std::uint64_t> link_toggles_;
  std::vector<std::uint64_t> link_last_word_;
};

}  // namespace tsvcod::noc
