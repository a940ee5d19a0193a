#include "phys/tsv_geometry.hpp"

#include <cmath>
#include <sstream>

namespace tsvcod::phys {

int TsvArrayGeometry::direct_neighbor_count(std::size_t i) const {
  const std::size_t r = row_of(i);
  const std::size_t c = col_of(i);
  int n = 0;
  if (r > 0) ++n;
  if (r + 1 < rows) ++n;
  if (c > 0) ++n;
  if (c + 1 < cols) ++n;
  return n;
}

double TsvArrayGeometry::distance(std::size_t i, std::size_t j) const {
  const Point2 a = position(i);
  const Point2 b = position(j);
  return std::hypot(a.x - b.x, a.y - b.y);
}

void TsvArrayGeometry::validate() const {
  if (rows == 0 || cols == 0) throw std::invalid_argument("TsvArrayGeometry: empty array");
  const auto require_length = [](const char* field, double value) {
    if (value > 0.0 && std::isfinite(value)) return;
    std::ostringstream msg;
    msg << "TsvArrayGeometry: " << field << " must be a finite length > 0 m, got " << value;
    throw std::invalid_argument(msg.str());
  };
  require_length("radius", radius);
  require_length("pitch", pitch);
  require_length("length", length);
  if (pitch < 2.0 * liner_radius()) {
    throw std::invalid_argument("TsvArrayGeometry: TSV liners overlap (pitch too small)");
  }
}

}  // namespace tsvcod::phys
