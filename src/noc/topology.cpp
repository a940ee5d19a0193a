#include "noc/topology.hpp"

namespace tsvcod::noc {

const char* direction_name(Direction d) {
  switch (d) {
    case Direction::XPlus: return "X+";
    case Direction::XMinus: return "X-";
    case Direction::YPlus: return "Y+";
    case Direction::YMinus: return "Y-";
    case Direction::ZPlus: return "Z+";
    case Direction::ZMinus: return "Z-";
    case Direction::Local: return "Local";
  }
  return "?";
}

Mesh3D::Mesh3D(std::size_t nx, std::size_t ny, std::size_t nz) : nx_(nx), ny_(ny), nz_(nz) {
  const auto bad = [](const char* field, std::size_t v) {
    throw std::invalid_argument("Mesh3D: " + std::string(field) + " must be >= 1 (got " +
                                std::to_string(v) + ")");
  };
  if (nx == 0) bad("nx", nx);
  if (ny == 0) bad("ny", ny);
  if (nz == 0) bad("nz", nz);
}

std::size_t Mesh3D::index(NodeId n) const {
  if (n.x >= nx_ || n.y >= ny_ || n.z >= nz_) {
    throw std::out_of_range("Mesh3D::index: node (" + std::to_string(n.x) + "," +
                            std::to_string(n.y) + "," + std::to_string(n.z) +
                            ") outside the " + std::to_string(nx_) + "x" + std::to_string(ny_) +
                            "x" + std::to_string(nz_) + " mesh");
  }
  return (n.z * ny_ + n.y) * nx_ + n.x;
}

NodeId Mesh3D::node(std::size_t index) const {
  if (index >= node_count()) {
    throw std::out_of_range("Mesh3D::node: index " + std::to_string(index) + " >= node count " +
                            std::to_string(node_count()));
  }
  NodeId n;
  n.x = index % nx_;
  n.y = (index / nx_) % ny_;
  n.z = index / (nx_ * ny_);
  return n;
}

std::optional<NodeId> Mesh3D::neighbor(NodeId n, Direction d) const {
  switch (d) {
    case Direction::XPlus:
      if (n.x + 1 >= nx_) return std::nullopt;
      return NodeId{n.x + 1, n.y, n.z};
    case Direction::XMinus:
      if (n.x == 0) return std::nullopt;
      return NodeId{n.x - 1, n.y, n.z};
    case Direction::YPlus:
      if (n.y + 1 >= ny_) return std::nullopt;
      return NodeId{n.x, n.y + 1, n.z};
    case Direction::YMinus:
      if (n.y == 0) return std::nullopt;
      return NodeId{n.x, n.y - 1, n.z};
    case Direction::ZPlus:
      if (n.z + 1 >= nz_) return std::nullopt;
      return NodeId{n.x, n.y, n.z + 1};
    case Direction::ZMinus:
      if (n.z == 0) return std::nullopt;
      return NodeId{n.x, n.y, n.z - 1};
    case Direction::Local:
      return n;
  }
  return std::nullopt;
}

std::size_t Mesh3D::neighbor_index(std::size_t index, Direction d) const {
  const std::size_t x = index % nx_;
  const std::size_t y = (index / nx_) % ny_;
  const std::size_t z = index / (nx_ * ny_);
  switch (d) {
    case Direction::XPlus: return x + 1 < nx_ ? index + 1 : npos;
    case Direction::XMinus: return x > 0 ? index - 1 : npos;
    case Direction::YPlus: return y + 1 < ny_ ? index + nx_ : npos;
    case Direction::YMinus: return y > 0 ? index - nx_ : npos;
    case Direction::ZPlus: return z + 1 < nz_ ? index + nx_ * ny_ : npos;
    case Direction::ZMinus: return z > 0 ? index - nx_ * ny_ : npos;
    case Direction::Local: return index;
  }
  return npos;
}

std::string link_name(const LinkId& link) {
  return "(" + std::to_string(link.from.x) + "," + std::to_string(link.from.y) + "," +
         std::to_string(link.from.z) + ") -> " + direction_name(link.out);
}

bool link_exists(const Mesh3D& mesh, const LinkId& link) {
  if (link.out == Direction::Local) return false;
  if (link.from.x >= mesh.nx() || link.from.y >= mesh.ny() || link.from.z >= mesh.nz()) {
    return false;
  }
  return mesh.neighbor(link.from, link.out).has_value();
}

void validate_link(const Mesh3D& mesh, const LinkId& link, const char* field) {
  if (!link_exists(mesh, link)) {
    throw std::invalid_argument(std::string(field) + ": link " + link_name(link) +
                                " does not exist in the " + std::to_string(mesh.nx()) + "x" +
                                std::to_string(mesh.ny()) + "x" + std::to_string(mesh.nz()) +
                                " mesh");
  }
}

std::vector<LinkId> vertical_links(const Mesh3D& mesh) {
  std::vector<LinkId> out;
  const std::size_t layer = mesh.nx() * mesh.ny();
  out.reserve(2 * layer * (mesh.nz() > 0 ? mesh.nz() - 1 : 0));
  for (const Direction d : {Direction::ZPlus, Direction::ZMinus}) {
    for (std::size_t i = 0; i < mesh.node_count(); ++i) {
      if (mesh.neighbor_index(i, d) != Mesh3D::npos) out.push_back({mesh.node(i), d});
    }
  }
  return out;
}

}  // namespace tsvcod::noc
