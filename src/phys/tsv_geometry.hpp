#pragma once
// Geometric description of a regular M x N TSV array (DAC'18, Sec. 2).
//
// TSVs are copper cylinders of radius r and length l (= substrate thickness,
// 50 um), on a regular grid with centre-to-centre pitch d, each wrapped in a
// SiO2 liner of thickness r/5. Positions are reported in a local coordinate
// frame with TSV (row 0, col 0) at the origin.

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "phys/depletion.hpp"

namespace tsvcod::phys {

struct Point2 {
  double x = 0.0;
  double y = 0.0;
};

struct TsvArrayGeometry {
  std::size_t rows = 0;
  std::size_t cols = 0;
  double radius = 1e-6;  ///< metal radius r [m]
  double pitch = 4e-6;   ///< centre-to-centre distance d [m]
  double length = 50e-6; ///< TSV length l [m]
  MosParams mos{};

  std::size_t count() const { return rows * cols; }
  double oxide_thickness() const { return radius / 5.0; }
  /// Outer radius of the oxide liner.
  double liner_radius() const { return radius + oxide_thickness(); }

  std::size_t index(std::size_t row, std::size_t col) const {
    if (row >= rows || col >= cols) throw std::out_of_range("TsvArrayGeometry::index");
    return row * cols + col;
  }
  std::size_t row_of(std::size_t i) const { return i / cols; }
  std::size_t col_of(std::size_t i) const { return i % cols; }

  Point2 position(std::size_t i) const {
    return {static_cast<double>(col_of(i)) * pitch, static_cast<double>(row_of(i)) * pitch};
  }

  /// Number of direct (N/E/S/W at distance d) neighbours of TSV i.
  int direct_neighbor_count(std::size_t i) const;

  /// Euclidean centre distance between TSVs i and j [m].
  double distance(std::size_t i, std::size_t j) const;

  void validate() const;

  /// Convenience factories for the geometries the paper evaluates.
  static TsvArrayGeometry itrs2018_min(std::size_t rows, std::size_t cols) {
    TsvArrayGeometry g;
    g.rows = rows;
    g.cols = cols;
    g.radius = 1e-6;
    g.pitch = 4e-6;
    return g;
  }
  static TsvArrayGeometry itrs2018_relaxed(std::size_t rows, std::size_t cols) {
    TsvArrayGeometry g;
    g.rows = rows;
    g.cols = cols;
    g.radius = 2e-6;
    g.pitch = 8e-6;
    return g;
  }
  /// The 5x5 r=1um / d=4.5um array of Fig. 2.
  static TsvArrayGeometry fig2_fine() {
    TsvArrayGeometry g;
    g.rows = 5;
    g.cols = 5;
    g.radius = 1e-6;
    g.pitch = 4.5e-6;
    return g;
  }
};

}  // namespace tsvcod::phys
