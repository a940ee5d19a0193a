#include "noc_reference.hpp"

#include <array>
#include <bit>
#include <deque>
#include <optional>

#include "noc/simulator.hpp"

namespace tsvcod::noc {

namespace {

// Must stay identical to the batched engine's combine for the differential
// digest comparison to be meaningful.
inline std::uint64_t digest_mix(std::uint64_t h, std::uint64_t a, std::uint64_t b) {
  h ^= a + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  h ^= b + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h;
}

}  // namespace

Direction xyz_route(NodeId at, NodeId dst) {
  if (at.x < dst.x) return Direction::XPlus;
  if (at.x > dst.x) return Direction::XMinus;
  if (at.y < dst.y) return Direction::YPlus;
  if (at.y > dst.y) return Direction::YMinus;
  if (at.z < dst.z) return Direction::ZPlus;
  if (at.z > dst.z) return Direction::ZMinus;
  return Direction::Local;
}

struct ReferenceSimulator::Node {
  std::array<std::deque<Flit>, kPortCount> in;
  std::array<int, kPortCount> rr{};
  // Transfer registers, receiver-side, one per incoming direction + local
  // ejection — the same two-phase timing as the batched engine.
  std::array<std::optional<Flit>, kPortCount> reg;
};

ReferenceSimulator::ReferenceSimulator(const Mesh3D& mesh, const TrafficConfig& traffic)
    : mesh_(mesh), traffic_(mesh, traffic), flit_width_(traffic.flit_width) {
  nodes_.resize(mesh.node_count());
  digest_.assign(mesh.node_count(), 0);
  delivered_per_.assign(mesh.node_count(), 0);
  const std::size_t slots = mesh.node_count() * static_cast<std::size_t>(kPortCount);
  link_flits_.assign(slots, 0);
  link_toggles_.assign(slots, 0);
  link_last_word_.assign(slots, 0);
}

ReferenceSimulator::~ReferenceSimulator() = default;
ReferenceSimulator::ReferenceSimulator(ReferenceSimulator&&) noexcept = default;

SimStats ReferenceSimulator::run(std::size_t cycles) {
  const std::size_t n = mesh_.node_count();
  for (std::size_t c = 0; c < cycles; ++c, ++cycle_) {
    // Phase A: arbitrate. Every router picks at most one flit per output
    // port, round-robin over the contending inputs, and moves it into the
    // receiver's transfer register.
    for (std::size_t r = 0; r < n; ++r) {
      Node& node = nodes_[r];
      const NodeId at = mesh_.node(r);
      // Head routes are gathered once per cycle (the batched engine's
      // discipline): an input sends at most one flit per cycle, even when
      // the flit behind the head wants a later output port.
      std::array<int, kPortCount> head_out;
      for (int p = 0; p < kPortCount; ++p) {
        const auto& q = node.in[static_cast<std::size_t>(p)];
        head_out[static_cast<std::size_t>(p)] =
            q.empty() ? -1 : static_cast<int>(xyz_route(at, q.front().dst));
      }
      for (int out = 0; out < kPortCount; ++out) {
        const auto dir = static_cast<Direction>(out);
        int winner = -1;
        for (int k = 0; k < kPortCount; ++k) {
          int p = node.rr[out] + k;
          if (p >= kPortCount) p -= kPortCount;
          if (head_out[static_cast<std::size_t>(p)] != out) continue;
          winner = p;
          break;
        }
        if (winner < 0) continue;
        auto& q = node.in[static_cast<std::size_t>(winner)];
        Flit flit = q.front();
        q.pop_front();
        node.rr[out] = winner + 1 == kPortCount ? 0 : winner + 1;
        if (dir == Direction::Local) {
          node.reg[static_cast<std::size_t>(Direction::Local)] = flit;
          continue;
        }
        const std::size_t slot = link_slot(r, dir);
        ++link_flits_[slot];
        link_toggles_[slot] +=
            static_cast<std::uint64_t>(std::popcount(link_last_word_[slot] ^ flit.payload));
        link_last_word_[slot] = flit.payload;
        // XYZ routing never points off-mesh, so the neighbour exists.
        nodes_[mesh_.index(*mesh_.neighbor(at, dir))].reg[static_cast<std::size_t>(out)] = flit;
      }
    }
    // Phase B: transfer. Drain registers into the rings, eject, inject.
    for (std::size_t r = 0; r < n; ++r) {
      Node& node = nodes_[r];
      for (int d = 0; d < 6; ++d) {
        auto& reg = node.reg[static_cast<std::size_t>(d)];
        if (!reg) continue;
        node.in[static_cast<std::size_t>(d)].push_back(*reg);
        reg.reset();
      }
      auto& eject = node.reg[static_cast<std::size_t>(Direction::Local)];
      if (eject) {
        ++delivered_;
        ++delivered_per_[r];
        const std::uint64_t lat = cycle_ - eject->injected_at + 1;
        latency_ += lat;
        digest_[r] = digest_mix(digest_[r], eject->payload, lat);
        eject.reset();
      }
      if (auto flit = traffic_.generate(r, cycle_)) {
        node.in[static_cast<std::size_t>(Direction::Local)].push_back(*flit);
        ++injected_;
      }
      std::size_t queued = 0;
      for (const auto& q : node.in) queued += q.size();
      if (queued > max_queued_) max_queued_ = queued;
    }
  }

  SimStats s;
  s.injected = injected_;
  s.delivered = delivered_;
  s.latency_cycles = latency_;
  s.mean_latency =
      delivered_ > 0 ? static_cast<double>(latency_) / static_cast<double>(delivered_) : 0.0;
  s.max_queued = max_queued_;
  // Same per-router fold as the batched engine, so the digests compare.
  for (std::size_t r = 0; r < n; ++r) {
    s.ejection_digest = digest_mix(s.ejection_digest, digest_[r], delivered_per_[r]);
  }
  s.link_flits = link_flits_;
  s.link_toggles = link_toggles_;
  std::size_t in_flight = 0;
  for (const auto& node : nodes_) {
    for (const auto& q : node.in) in_flight += q.size();
    for (const auto& reg : node.reg) in_flight += reg.has_value() ? 1 : 0;
  }
  s.in_flight = in_flight;
  return s;
}

}  // namespace tsvcod::noc
