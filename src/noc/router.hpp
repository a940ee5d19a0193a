#pragma once
// Batched router core for the 3D-mesh NoC.
//
// The store-and-forward model is unchanged from the original simulator —
// one flit per packet, at most one flit per output link per cycle,
// round-robin arbitration over the input ports contending for an output —
// but the data layout is rebuilt for throughput: each input port is a flat
// ring buffer of 24 B slots (payload u64, packed dst u32, injection cycle
// u32, plus the precomputed output port u8) so a push is one contiguous
// store instead of four scattered ones, a per-router bitmask tracks
// non-empty ports so idle routers cost one load per cycle, and arbitration
// works on plain arrays with zero steady-state allocation.
// Queues are unbounded (they grow geometrically), so every transfer register
// is drained into its ring the cycle after it is written and no output is
// ever blocked.
//
// Routing is resolved once, at enqueue time (XYZ dimension order is a pure
// function of (router, destination)), so arbitration never recomputes
// routes — it just matches head-of-queue port tags.

#include <cstdint>
#include <vector>

#include "noc/topology.hpp"

namespace tsvcod::noc {

/// One flit in transit, stripped to the fields the fabric needs.
struct PackedFlit {
  std::uint64_t payload = 0;
  std::uint32_t dst = 0;       ///< destination node index
  std::uint32_t injected = 0;  ///< cycle of injection
};

/// Flat ring buffer of flits queued at one input port. One slot per flit
/// keeps an enqueue/dequeue within a single cache line.
class FlitRing {
 public:
  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  /// Enqueue; storage grows geometrically.
  void push(const PackedFlit& flit, std::uint8_t out_port);

  /// Output port of the head flit. Only valid when !empty().
  std::uint8_t head_out() const { return slots_[head_].out; }

  /// Dequeue the head flit. Only valid when !empty().
  PackedFlit pop();

 private:
  struct Slot {
    PackedFlit flit;
    std::uint8_t out;
  };

  void grow();

  std::vector<Slot> slots_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

/// Per-router switching state: seven input rings plus the round-robin
/// arbitration pointers. All methods touch only this router's state, which
/// is what lets the cycle kernel run routers from any worker rank.
class Router {
 public:
  /// Enqueue a flit arriving on `port` whose precomputed output is
  /// `out_port`.
  void accept(Direction port, const PackedFlit& flit, Direction out_port);

  std::size_t queued() const;

  /// Pick at most one flit per output port this cycle. Granted flits are
  /// removed from their rings and written to `grants`; the return value has
  /// bit d set for every granted output port.
  std::uint8_t arbitrate(PackedFlit grants[kPortCount]);

  /// Bitmask of non-empty input ports (bit = static_cast<int>(Direction)).
  std::uint8_t occupied_mask() const { return occupied_; }

 private:
  FlitRing in_[kPortCount];
  std::uint8_t rr_[kPortCount] = {};  ///< round-robin pointer per output port
  std::uint8_t occupied_ = 0;
};

}  // namespace tsvcod::noc
