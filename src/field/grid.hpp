#pragma once
// Uniform 2-D grid describing a TSV-array cross-section for quasi-electro-
// static extraction.
//
// Each cell carries a complex relative permittivity
//     eps*_r = eps_r - j * sigma / (omega * eps0)
// so a lossy substrate (sigma > 0) and lossless dielectrics (oxide, depleted
// silicon) are handled uniformly. Cells can instead belong to a conductor
// (TSV metal core), identified by a non-negative conductor id; conductor
// cells are Dirichlet nodes in the field solve.
//
// The outer boundary is Dirichlet 0 V: it models the grounded substrate
// contact far away from the array.

#include <complex>
#include <cstdint>
#include <vector>

namespace tsvcod::field {

using Complex = std::complex<double>;

inline constexpr std::int32_t kNoConductor = -1;

class Grid {
 public:
  /// `width`/`height` are the physical domain size [m]; `cell` the square
  /// cell edge [m]. The cell count is rounded up to cover the domain.
  Grid(double width, double height, double cell);

  std::size_t nx() const { return nx_; }
  std::size_t ny() const { return ny_; }
  std::size_t size() const { return nx_ * ny_; }

  std::size_t index(std::size_t ix, std::size_t iy) const { return iy * nx_ + ix; }

  /// Cell-center coordinate [m].
  double x_of(std::size_t ix) const { return (static_cast<double>(ix) + 0.5) * cell_; }
  double y_of(std::size_t iy) const { return (static_cast<double>(iy) + 0.5) * cell_; }

  Complex eps(std::size_t i) const { return eps_[i]; }
  std::int32_t conductor(std::size_t i) const { return conductor_[i]; }

  /// Fill the whole domain with a background permittivity.
  void fill(Complex eps_r);

  /// Paint a filled disk. `conductor_id == kNoConductor` paints a dielectric
  /// disk with permittivity `eps_r`; otherwise the disk becomes conductor
  /// cells (eps ignored).
  void paint_disk(double cx, double cy, double radius, Complex eps_r,
                  std::int32_t conductor_id = kNoConductor);

  /// Paint an annulus r_in <= r < r_out as dielectric.
  void paint_annulus(double cx, double cy, double r_in, double r_out, Complex eps_r);

  std::int32_t conductor_count() const { return conductor_count_; }

 private:
  std::size_t nx_;
  std::size_t ny_;
  double cell_;
  std::vector<Complex> eps_;
  std::vector<std::int32_t> conductor_;
  std::int32_t conductor_count_ = 0;
};

}  // namespace tsvcod::field
