#pragma once
// 3D-mesh NoC topology (paper Sec. 7, last experiment: "we assume a 3D
// network on chip, where the data is mainly transmitted over 2D links").
//
// Nodes sit on an nx x ny x nz grid; each node has up to six neighbours.
// Vertical (+z/-z) links are the TSV bundles this library optimizes; the
// planar links are metal wires (where the coupling-invert code of the last
// experiment comes from).
//
// Node indices are z-major ((z * ny + y) * nx + x), so a contiguous index
// range is a horizontal slab of the stack — the partition unit the parallel
// cycle kernel hands to each worker rank (DESIGN.md §5k).

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace tsvcod::noc {

enum class Direction : std::uint8_t { XPlus, XMinus, YPlus, YMinus, ZPlus, ZMinus, Local };

inline constexpr int kPortCount = 7;  ///< six directions + local injection/ejection

const char* direction_name(Direction d);

struct NodeId {
  std::size_t x = 0, y = 0, z = 0;
  bool operator==(const NodeId&) const = default;
};

class Mesh3D {
 public:
  Mesh3D(std::size_t nx, std::size_t ny, std::size_t nz);

  std::size_t nx() const { return nx_; }
  std::size_t ny() const { return ny_; }
  std::size_t nz() const { return nz_; }
  std::size_t node_count() const { return nx_ * ny_ * nz_; }

  std::size_t index(NodeId n) const;
  NodeId node(std::size_t index) const;

  /// Neighbour in a direction, if it exists.
  std::optional<NodeId> neighbor(NodeId n, Direction d) const;

  /// Neighbour of node `index` in direction `d` as an index, or `npos` when
  /// the link leaves the mesh. Pure index arithmetic — the form the batched
  /// cycle kernel uses (no NodeId round-trips on the hot path).
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t neighbor_index(std::size_t index, Direction d) const;

  /// True if the link (from, d) is vertical (a TSV bundle).
  static bool is_vertical(Direction d) {
    return d == Direction::ZPlus || d == Direction::ZMinus;
  }

 private:
  std::size_t nx_, ny_, nz_;
};

/// Identifies one unidirectional link: the sending node and its output port.
struct LinkId {
  NodeId from;
  Direction out = Direction::Local;
  bool operator==(const LinkId&) const = default;
};

/// "(x,y,z) -> Z+" — the form validation errors and trace tracks use.
std::string link_name(const LinkId& link);

/// Flat slot of link (node `index`, output `d`) in the per-link counter
/// vectors (SimStats::link_flits et al.): index * kPortCount + port.
inline std::size_t link_slot(std::size_t index, Direction d) {
  return index * static_cast<std::size_t>(kPortCount) + static_cast<std::size_t>(d);
}

/// True when `link` names an edge that exists in `mesh` (its source node is
/// in range and the output direction does not leave the mesh; Local never
/// names an inter-router link).
bool link_exists(const Mesh3D& mesh, const LinkId& link);

/// Throws std::invalid_argument naming `field` and the offending link when
/// the link does not exist (used by probe_link and the coding planner).
void validate_link(const Mesh3D& mesh, const LinkId& link, const char* field);

/// Every vertical (±z) link of the mesh in deterministic order: all Z+ links
/// by source index, then all Z- links by source index. These are the TSV
/// bundles the per-link coding layer prices and optimizes.
std::vector<LinkId> vertical_links(const Mesh3D& mesh);

}  // namespace tsvcod::noc
