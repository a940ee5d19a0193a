#pragma once
// Reference models the tests compare the library against.
//
// None of these is on a production path: each is either the paper's algebra
// written out literally (the permutation matrix A_pi of Eq. 4/5, the T
// matrix of Eq. 3 and its Frobenius product with C, the probability form of
// Eq. 6/7), an analytic theory a generator must match (the dual-bit-type
// model of the AR(1) stream), or the client half of a format the library
// only reads (service frames), or a field-solver form the library replaced
// by a faster one that must stay bit-identical to it (the packed operator,
// the two-colour V-cycle, the bit-serial Gray decode), or the circuit stepper the state propagator
// replaced, which the propagator must track to 1e-12.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/netlist.hpp"
#include "circuit/tsv_link_sim.hpp"
#include "core/assignment.hpp"
#include "field/grid.hpp"
#include "phys/constants.hpp"
#include "phys/matrix.hpp"
#include "serve/protocol.hpp"
#include "stats/switching_types.hpp"
#include "tsv/linear_model.hpp"

namespace tsvcod::reference {

// --- Unit literals ----------------------------------------------------------

/// SI values for micrometre-scale test geometry: 10_um == 10e-6 (metres).
namespace literals {
constexpr double operator""_um(long double v) { return static_cast<double>(v) * 1e-6; }
constexpr double operator""_um(unsigned long long v) { return static_cast<double>(v) * 1e-6; }
constexpr double operator""_nm(long double v) { return static_cast<double>(v) * 1e-9; }
constexpr double operator""_nm(unsigned long long v) { return static_cast<double>(v) * 1e-9; }
constexpr double operator""_GHz(long double v) { return static_cast<double>(v) * 1e9; }
constexpr double operator""_GHz(unsigned long long v) { return static_cast<double>(v) * 1e9; }
constexpr double operator""_fF(long double v) { return static_cast<double>(v) * 1e-15; }
constexpr double operator""_fF(unsigned long long v) { return static_cast<double>(v) * 1e-15; }
}  // namespace literals

// --- Paper algebra ----------------------------------------------------------

/// The signed permutation matrix A_pi: A(line, bit) = +-1 (Eq. 5).
inline phys::Matrix permutation_matrix(const core::SignedPermutation& p) {
  const std::size_t n = p.size();
  phys::Matrix a(n, n);
  for (std::size_t bit = 0; bit < n; ++bit) {
    a(p.line_of_bit(bit), bit) = p.inverted(bit) ? -1.0 : 1.0;
  }
  return a;
}

/// T = T_s * 1_{NxN} - T_c (Eq. 3): T_ii = self_i, T_ij = self_i - coupling_ij.
inline phys::Matrix t_matrix(const stats::SwitchingStats& s) {
  phys::Matrix t(s.width, s.width);
  for (std::size_t i = 0; i < s.width; ++i) {
    for (std::size_t j = 0; j < s.width; ++j) {
      t(i, j) = i == j ? s.self[i] : s.self[i] - s.coupling(i, j);
    }
  }
  return t;
}

/// Frobenius inner product <A, B> = sum_ij A_ij * B_ij.
inline double frobenius(const phys::Matrix& a, const phys::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw std::invalid_argument("frobenius: shape mismatch");
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < a.data().size(); ++i) acc += a.data()[i] * b.data()[i];
  return acc;
}

/// The constructive rule from the paper's text that Sawtooth closes: start
/// at the largest coupling capacitance and recursively pick the TSV with the
/// largest accumulated coupling to the already chosen ones.
inline std::vector<std::size_t> greedy_coupling_order(const phys::Matrix& c) {
  const std::size_t n = c.rows();
  if (n != c.cols() || n == 0) throw std::invalid_argument("greedy_coupling_order: bad matrix");
  if (n == 1) return {0};

  std::size_t best_i = 0, best_j = 1;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (c(i, j) > c(best_i, best_j)) {
        best_i = i;
        best_j = j;
      }
    }
  }
  std::vector<std::size_t> order{best_i, best_j};
  std::vector<bool> used(n, false);
  used[best_i] = used[best_j] = true;

  while (order.size() < n) {
    std::size_t best = n;
    double best_acc = -1.0;
    for (std::size_t k = 0; k < n; ++k) {
      if (used[k]) continue;
      double acc = 0.0;
      for (const auto a : order) acc += c(k, a);
      if (acc > best_acc) {
        best_acc = acc;
        best = k;
      }
    }
    used[best] = true;
    order.push_back(best);
  }
  return order;
}

/// The linear model (Eq. 6/7) in the paper's probability form: eps_i =
/// pr_i - 1/2, then the library's eps form.
inline phys::Matrix evaluate(const tsv::LinearCapacitanceModel& model,
                             std::span<const double> probabilities) {
  std::vector<double> eps(probabilities.size());
  for (std::size_t i = 0; i < probabilities.size(); ++i) eps[i] = probabilities[i] - 0.5;
  return model.evaluate_eps(eps);
}

/// Normalized RMS error of the linear model (Eq. 6/7) against the backend,
/// sampled at `samples` random probability vectors (normalization: RMS of
/// the backend entries), mirroring the <2 % figure quoted in the paper.
inline double linearity_nrmse(const tsv::CapacitanceBackend& backend,
                              const tsv::LinearCapacitanceModel& model, std::size_t n,
                              int samples, unsigned seed = 1) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  double err2 = 0.0;
  double ref2 = 0.0;
  std::vector<double> pr(n);
  for (int s = 0; s < samples; ++s) {
    for (auto& p : pr) p = uni(rng);
    const phys::Matrix exact = backend(pr);
    const phys::Matrix approx = evaluate(model, pr);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        const double d = exact(i, j) - approx(i, j);
        err2 += d * d;
        ref2 += exact(i, j) * exact(i, j);
      }
    }
  }
  return ref2 > 0.0 ? std::sqrt(err2 / ref2) : 0.0;
}

/// True iff the codeword has no two adjacent 1s (the Fibonacci CAC invariant).
inline bool is_forbidden_pattern_free(std::uint64_t code) { return (code & (code >> 1)) == 0; }

/// Gray to binary one bit position at a time: the XOR of `width` shifted
/// copies of the code, masked to the width. The form `GrayCodec::decode`
/// replaced with a six-step prefix XOR, which it must match bit for bit.
inline std::uint64_t gray_to_binary_loop(std::uint64_t g, std::size_t width) {
  std::uint64_t b = 0;
  for (std::size_t shift = 0; shift < width; ++shift) b ^= g >> shift;
  return width >= 64 ? b : b & ((std::uint64_t{1} << width) - 1);
}

// --- Dual-bit-type model (Landman & Rabaey, TVLSI'95; paper Sec. 4) ---------
//
// Two's-complement encodings of zero-mean Gaussian processes have two bit
// regions: uncorrelated LSBs that toggle like fair coins, and MSBs that all
// mirror the sign bit. For a lag-1 autocorrelation rho, the sign of a
// stationary Gaussian AR(1) process changes with probability acos(rho)/pi,
// which is both the MSB self-switching activity and (for a shared sign) the
// pairwise MSB switching correlation. Between the breakpoints the behaviour
// interpolates. It is the theory the GaussianAr1Stream generator must match.

struct DbtParams {
  std::size_t width = 16;   ///< word width (two's complement)
  double sigma = 1024.0;    ///< standard deviation in LSBs
  double rho = 0.0;         ///< lag-1 temporal correlation, in (-1, 1)
};

/// Lower breakpoint BP0: bits below it are pure LSB-type (activity 1/2).
inline std::size_t dbt_bp0(const DbtParams& p) {
  // Landman-Rabaey: BP0 = log2(sigma) + log2(sqrt(1 - rho^2)) bounded to the word.
  const double bp =
      std::log2(std::max(p.sigma * std::sqrt(std::max(1e-12, 1.0 - p.rho * p.rho)), 1.0));
  return std::min<std::size_t>(p.width, static_cast<std::size_t>(std::max(0.0, std::floor(bp))));
}

/// Upper breakpoint BP1: bits at or above it are pure MSB/sign-type, from
/// about 3 sigma upwards.
inline std::size_t dbt_bp1(const DbtParams& p) {
  const double bp = std::log2(std::max(3.0 * p.sigma, 1.0));
  const std::size_t b = static_cast<std::size_t>(std::max(0.0, std::ceil(bp)));
  return std::min<std::size_t>(p.width, std::max(b, dbt_bp0(p)));
}

/// Sign-change probability of a stationary Gaussian AR(1) process.
inline double sign_toggle_probability(double rho) {
  if (!(rho > -1.0) || !(rho < 1.0)) {
    throw std::invalid_argument("sign_toggle_probability: rho must be in (-1, 1)");
  }
  return std::acos(rho) / phys::pi;
}

/// Analytic switching statistics for the DBT signal model.
inline stats::SwitchingStats dbt_stats(const DbtParams& p) {
  if (p.width == 0 || p.width > 64) throw std::invalid_argument("dbt_stats: bad width");
  const std::size_t bp0 = dbt_bp0(p);
  const std::size_t bp1 = dbt_bp1(p);
  const double msb_self = sign_toggle_probability(p.rho);

  stats::SwitchingStats s;
  s.width = p.width;
  s.transitions = 0;  // analytic, not measured
  s.self.resize(p.width);
  s.prob_one.assign(p.width, 0.5);  // zero-mean two's complement
  s.coupling = phys::Matrix(p.width, p.width);

  // "MSB-ness" of each bit: 0 below BP0, 1 above BP1, linear in between.
  auto msbness = [&](std::size_t bit) -> double {
    if (bit < bp0) return 0.0;
    if (bit >= bp1) return 1.0;
    if (bp1 == bp0) return 1.0;
    return static_cast<double>(bit - bp0 + 1) / static_cast<double>(bp1 - bp0 + 1);
  };

  for (std::size_t i = 0; i < p.width; ++i) {
    const double m = msbness(i);
    s.self[i] = 0.5 * (1.0 - m) + msb_self * m;
    s.coupling(i, i) = s.self[i];
  }
  // Pairwise switching correlation: only the shared sign region correlates.
  // Two pure MSBs switch in lockstep, so E{db_i db_j} = E{db^2} = msb_self.
  for (std::size_t i = 0; i < p.width; ++i) {
    for (std::size_t j = i + 1; j < p.width; ++j) {
      const double c = msbness(i) * msbness(j) * msb_self;
      s.coupling(i, j) = c;
      s.coupling(j, i) = c;
    }
  }
  return s;
}

// --- Field solver: the packed operator and the two-colour V-cycle -----------
//
// The solver iterates in grid space and sweeps red-black Gauss-Seidel as one
// wavefront pass per sweep. These are the forms it replaced: the operator
// over packed free unknowns (numbered in cell order) and a scalar V-cycle
// that sweeps each colour over the whole level, computes the full residual,
// restricts it, and prolongs into every free cell. Both do the arithmetic of
// the library's scalar forms, so the library must match them bit for bit.

/// y = A x over the packed free unknowns of `grid` (the pre-grid-space
/// `FieldProblem::apply`): complex products spelled out in std::complex's
/// order, each row's face sum accumulated from +0 in the order e, w, n, s.
class PackedFieldOperator {
 public:
  using Complex = field::Complex;

  explicit PackedFieldOperator(const field::Grid& grid) : nx_(grid.nx()), ny_(grid.ny()) {
    const std::size_t n = grid.size();
    index_.assign(n, -1);
    for (std::size_t i = 0; i < n; ++i) {
      if (grid.conductor(i) != field::kNoConductor) continue;
      index_[i] = static_cast<std::int64_t>(cells_.size());
      cells_.push_back(i);
    }
    w_east_.assign(n, Complex{});
    w_north_.assign(n, Complex{});
    for (std::size_t iy = 0; iy < ny_; ++iy) {
      for (std::size_t ix = 0; ix < nx_; ++ix) {
        const std::size_t i = iy * nx_ + ix;
        if (ix + 1 < nx_) w_east_[i] = harmonic_mean(grid.eps(i), grid.eps(i + 1));
        if (iy + 1 < ny_) w_north_[i] = harmonic_mean(grid.eps(i), grid.eps(i + nx_));
      }
    }
    diag_.assign(cells_.size(), Complex{});
    for (std::size_t u = 0; u < cells_.size(); ++u) {
      const std::size_t i = cells_[u];
      const std::size_t ix = i % nx_;
      const std::size_t iy = i / nx_;
      Complex d{};
      if (ix + 1 < nx_) d += w_east_[i];
      if (ix > 0) d += w_east_[i - 1];
      if (iy + 1 < ny_) d += w_north_[i];
      if (iy > 0) d += w_north_[i - nx_];
      if (ix == 0 || ix + 1 == nx_) d += grid.eps(i);
      if (iy == 0 || iy + 1 == ny_) d += grid.eps(i);
      diag_[u] = d;
    }
  }

  /// Cell index of each packed unknown.
  const std::vector<std::size_t>& free_cells() const { return cells_; }

  void apply(const std::vector<Complex>& x, std::vector<Complex>& y) const {
    std::size_t u = 0;
    for (std::size_t iy = 0; iy < ny_; ++iy) {
      for (std::size_t ix = 0, i = iy * nx_; ix < nx_; ++ix, ++i) {
        if (index_[i] < 0) continue;
        Complex off{};
        const auto face = [&](std::size_t j, Complex w) {
          if (index_[j] >= 0) off += mul(w, x[static_cast<std::size_t>(index_[j])]);
        };
        if (ix + 1 < nx_) face(i + 1, w_east_[i]);
        if (ix > 0) face(i - 1, w_east_[i - 1]);
        if (iy + 1 < ny_) face(i + nx_, w_north_[i]);
        if (iy > 0) face(i - nx_, w_north_[i - nx_]);
        y[u] = mul(diag_[u], x[u]) - off;
        ++u;
      }
    }
  }

  static Complex harmonic_mean(Complex a, Complex b) {
    const Complex s = a + b;
    if (std::abs(s) == 0.0) return Complex{0.0, 0.0};
    return 2.0 * a * b / s;
  }

 private:
  static Complex mul(Complex a, Complex b) {
    return {a.real() * b.real() - a.imag() * b.imag(), a.real() * b.imag() + a.imag() * b.real()};
  }

  std::size_t nx_, ny_;
  std::vector<std::int64_t> index_;
  std::vector<std::size_t> cells_;
  std::vector<Complex> w_east_, w_north_, diag_;
};

/// The scalar multigrid V-cycle in its two-colour form: each sweep updates
/// every red cell of the level, then every black cell; the residual is a
/// full level pass followed by a separate restriction; the coarse
/// correction is prolonged into every free cell before the post-sweep. The
/// hierarchy (coarsening, coefficients, coarsest dense LU) is built exactly
/// as field::Multigrid builds it.
class TwoColourMultigrid {
 public:
  using Complex = field::Complex;

  TwoColourMultigrid(std::size_t nx, std::size_t ny, const std::vector<std::uint8_t>& dirichlet,
                     const std::vector<Complex>& eps) {
    Level fine;
    fine.nx = nx;
    fine.ny = ny;
    fine.dirichlet = dirichlet;
    fine.eps = eps;
    levels_.push_back(std::move(fine));
    while (levels_.size() < 24) {
      const Level& f = levels_.back();
      if (f.free_count() <= 256 || f.nx < 8 || f.ny < 8) break;
      Level c;
      c.nx = (f.nx + 1) / 2;
      c.ny = (f.ny + 1) / 2;
      c.dirichlet.assign(c.nx * c.ny, 0);
      c.eps.assign(c.nx * c.ny, Complex{});
      std::vector<int> count(c.nx * c.ny, 0);
      for (std::size_t iy = 0; iy < f.ny; ++iy) {
        for (std::size_t ix = 0; ix < f.nx; ++ix) {
          const std::size_t k = (iy / 2) * c.nx + ix / 2;
          if (f.dirichlet[iy * f.nx + ix]) c.dirichlet[k] = 1;
          c.eps[k] += f.eps[iy * f.nx + ix];
          ++count[k];
        }
      }
      for (std::size_t k = 0; k < c.eps.size(); ++k) c.eps[k] /= static_cast<double>(count[k]);
      levels_.push_back(std::move(c));
    }
    for (auto& lv : levels_) lv.build_coefficients();
    factor_coarsest();
  }

  /// `sweeps` two-colour sweeps on the finest level (Dirichlet x zeroed).
  void smooth(const std::vector<Complex>& rhs, std::vector<Complex>& x, int sweeps) const {
    const Level& lv = levels_.front();
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (lv.dirichlet[i]) x[i] = Complex{};
    }
    for (int s = 0; s < sweeps; ++s) lv.sweep(rhs, x);
  }

  /// One V-cycle from zero: z ~= A^-1 r.
  std::vector<Complex> v_cycle(const std::vector<Complex>& r) const {
    const std::size_t depth = levels_.size();
    std::vector<std::vector<Complex>> xs(depth), rs(depth);
    for (std::size_t l = 0; l < depth; ++l) {
      xs[l].assign(levels_[l].nx * levels_[l].ny, Complex{});
      rs[l].assign(levels_[l].nx * levels_[l].ny, Complex{});
    }
    rs[0] = r;
    for (std::size_t l = 0; l + 1 < depth; ++l) {
      const Level& lv = levels_[l];
      const Level& cv = levels_[l + 1];
      lv.sweep(rs[l], xs[l]);
      std::vector<Complex> res(lv.nx * lv.ny);
      lv.residual(rs[l], xs[l], res);
      for (std::size_t iy = 0; iy < lv.ny; ++iy) {
        for (std::size_t ix = 0; ix < lv.nx; ++ix) {
          const std::size_t i = iy * lv.nx + ix;
          if (!lv.dirichlet[i]) rs[l + 1][(iy / 2) * cv.nx + ix / 2] += res[i];
        }
      }
      for (std::size_t c = 0; c < rs[l + 1].size(); ++c) {
        if (cv.dirichlet[c]) rs[l + 1][c] = Complex{};
      }
    }
    solve_coarsest(rs[depth - 1], xs[depth - 1]);
    for (std::size_t l = depth - 1; l-- > 0;) {
      const Level& lv = levels_[l];
      const Level& cv = levels_[l + 1];
      for (std::size_t iy = 0; iy < lv.ny; ++iy) {
        for (std::size_t ix = 0; ix < lv.nx; ++ix) {
          const std::size_t i = iy * lv.nx + ix;
          if (!lv.dirichlet[i]) xs[l][i] += xs[l + 1][(iy / 2) * cv.nx + ix / 2];
        }
      }
      lv.sweep(rs[l], xs[l]);
    }
    return xs[0];
  }

  std::size_t depth() const { return levels_.size(); }

 private:
  struct Level {
    std::size_t nx = 0, ny = 0;
    std::vector<std::uint8_t> dirichlet;
    std::vector<Complex> eps, w_east, w_north, diag, inv_diag;

    std::size_t free_count() const {
      return static_cast<std::size_t>(std::count(dirichlet.begin(), dirichlet.end(), 0));
    }

    void build_coefficients() {
      const std::size_t n = nx * ny;
      w_east.assign(n, Complex{});
      w_north.assign(n, Complex{});
      for (std::size_t iy = 0; iy < ny; ++iy) {
        for (std::size_t ix = 0; ix < nx; ++ix) {
          const std::size_t i = iy * nx + ix;
          if (ix + 1 < nx) w_east[i] = PackedFieldOperator::harmonic_mean(eps[i], eps[i + 1]);
          if (iy + 1 < ny) w_north[i] = PackedFieldOperator::harmonic_mean(eps[i], eps[i + nx]);
        }
      }
      diag.assign(n, Complex{});
      inv_diag.assign(n, Complex{});
      for (std::size_t iy = 0; iy < ny; ++iy) {
        for (std::size_t ix = 0; ix < nx; ++ix) {
          const std::size_t i = iy * nx + ix;
          if (dirichlet[i]) continue;
          Complex d{};
          if (ix + 1 < nx) d += w_east[i];
          if (ix > 0) d += w_east[i - 1];
          if (iy + 1 < ny) d += w_north[i];
          if (iy > 0) d += w_north[i - nx];
          if (ix == 0 || ix + 1 == nx) d += eps[i];
          if (iy == 0 || iy + 1 == ny) d += eps[i];
          diag[i] = d;
          inv_diag[i] = std::abs(d) > 0.0 ? 1.0 / d : Complex{};
        }
      }
    }

    Complex off_diagonal(const std::vector<Complex>& x, std::size_t ix, std::size_t iy) const {
      const std::size_t i = iy * nx + ix;
      Complex off{};
      if (ix + 1 < nx && !dirichlet[i + 1]) off += w_east[i] * x[i + 1];
      if (ix > 0 && !dirichlet[i - 1]) off += w_east[i - 1] * x[i - 1];
      if (iy + 1 < ny && !dirichlet[i + nx]) off += w_north[i] * x[i + nx];
      if (iy > 0 && !dirichlet[i - nx]) off += w_north[i - nx] * x[i - nx];
      return off;
    }

    // All red cells, then all black cells.
    void sweep(const std::vector<Complex>& rhs, std::vector<Complex>& x) const {
      for (std::size_t color = 0; color < 2; ++color) {
        for (std::size_t iy = 0; iy < ny; ++iy) {
          for (std::size_t ix = (color + iy) % 2; ix < nx; ix += 2) {
            const std::size_t i = iy * nx + ix;
            if (!dirichlet[i]) x[i] = inv_diag[i] * (rhs[i] + off_diagonal(x, ix, iy));
          }
        }
      }
    }

    void residual(const std::vector<Complex>& rhs, const std::vector<Complex>& x,
                  std::vector<Complex>& out) const {
      for (std::size_t iy = 0; iy < ny; ++iy) {
        for (std::size_t ix = 0; ix < nx; ++ix) {
          const std::size_t i = iy * nx + ix;
          out[i] = dirichlet[i] ? Complex{}
                                : rhs[i] - (diag[i] * x[i] - off_diagonal(x, ix, iy));
        }
      }
    }
  };

  void factor_coarsest() {
    const Level& lv = levels_.back();
    index_.assign(lv.nx * lv.ny, -1);
    for (std::size_t i = 0; i < lv.dirichlet.size(); ++i) {
      if (lv.dirichlet[i]) continue;
      index_[i] = static_cast<std::int64_t>(cells_.size());
      cells_.push_back(i);
    }
    const std::size_t n = cells_.size();
    if (n == 0 || n > 4096) throw std::invalid_argument("TwoColourMultigrid: no dense coarsest solve");
    lu_.assign(n * n, Complex{});
    for (std::size_t row = 0; row < n; ++row) {
      const std::size_t i = cells_[row];
      const std::size_t ix = i % lv.nx;
      const std::size_t iy = i / lv.nx;
      lu_[row * n + row] = lv.diag[i];
      const auto couple = [&](std::size_t j, Complex w) {
        if (index_[j] >= 0) lu_[row * n + static_cast<std::size_t>(index_[j])] -= w;
      };
      if (ix + 1 < lv.nx) couple(i + 1, lv.w_east[i]);
      if (ix > 0) couple(i - 1, lv.w_east[i - 1]);
      if (iy + 1 < lv.ny) couple(i + lv.nx, lv.w_north[i]);
      if (iy > 0) couple(i - lv.nx, lv.w_north[i - lv.nx]);
    }
    pivot_.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      std::size_t best = k;
      double best_mag = std::abs(lu_[k * n + k]);
      for (std::size_t r = k + 1; r < n; ++r) {
        const double mag = std::abs(lu_[r * n + k]);
        if (mag > best_mag) {
          best_mag = mag;
          best = r;
        }
      }
      pivot_[k] = best;
      if (best != k) {
        for (std::size_t c = 0; c < n; ++c) std::swap(lu_[k * n + c], lu_[best * n + c]);
      }
      const Complex pv = lu_[k * n + k];
      if (std::abs(pv) == 0.0) continue;
      for (std::size_t r = k + 1; r < n; ++r) {
        const Complex m = lu_[r * n + k] / pv;
        lu_[r * n + k] = m;
        if (std::abs(m) == 0.0) continue;
        for (std::size_t c = k + 1; c < n; ++c) lu_[r * n + c] -= m * lu_[k * n + c];
      }
    }
  }

  void solve_coarsest(const std::vector<Complex>& rhs, std::vector<Complex>& x) const {
    const std::size_t n = cells_.size();
    std::vector<Complex> y(n);
    for (std::size_t row = 0; row < n; ++row) y[row] = rhs[cells_[row]];
    for (std::size_t k = 0; k < n; ++k) {
      if (pivot_[k] != k) std::swap(y[k], y[pivot_[k]]);
      for (std::size_t r = k + 1; r < n; ++r) y[r] -= lu_[r * n + k] * y[k];
    }
    for (std::size_t k = n; k-- > 0;) {
      for (std::size_t c = k + 1; c < n; ++c) y[k] -= lu_[k * n + c] * y[c];
      const Complex d = lu_[k * n + k];
      y[k] = std::abs(d) > 0.0 ? y[k] / d : Complex{};
    }
    for (auto& v : x) v = Complex{};
    for (std::size_t row = 0; row < n; ++row) x[cells_[row]] = y[row];
  }

  std::vector<Level> levels_;
  std::vector<std::int64_t> index_;
  std::vector<std::size_t> cells_;
  std::vector<Complex> lu_;
  std::vector<std::size_t> pivot_;
};

// --- Circuit transient: the per-step LU substitution -------------------------

/// The MNA stepper that circuit::TransientSim's state propagator replaced,
/// with the same API and the same companion models. The MNA matrix is
/// LU-factorized once (dense Doolittle, partial pivoting) and only the
/// nonzeros of L and U are kept, row by row in column order. Each step
/// assembles the history right-hand side from the capacitor voltages and
/// inductor currents and runs the forward and back substitution over those
/// nonzeros, which gives the dense substitution's bits exactly.
class ReferenceTransientSim {
 public:
  ReferenceTransientSim(const circuit::Netlist& netlist, double dt) : net_(netlist), dt_(dt) {
    if (!(dt > 0.0) || !std::isfinite(dt)) {
      throw std::invalid_argument("ReferenceTransientSim: dt must be finite and positive");
    }
    n_nodes_ = net_.node_count();
    n_src_ = static_cast<int>(net_.sources().size());
    n_ind_ = static_cast<int>(net_.inductors().size());
    dim_ = n_nodes_ + n_src_ + n_ind_;
    x_.assign(static_cast<std::size_t>(dim_), 0.0);
    rhs_.assign(static_cast<std::size_t>(dim_), 0.0);
    cap_v_.assign(net_.capacitors().size(), 0.0);
    v_src_.resize(static_cast<std::size_t>(n_src_));
    for (int s = 0; s < n_src_; ++s) v_src_[sz(s)] = net_.sources()[sz(s)].v(t_);
    v_next_.assign(static_cast<std::size_t>(n_src_), 0.0);
    src_energy_.assign(static_cast<std::size_t>(n_src_), 0.0);
    phys::Matrix a = assemble();
    factorize(a);
  }

  void step() {
    const double t_next = t_ + dt_;
    std::fill(rhs_.begin(), rhs_.end(), 0.0);
    // Capacitor history currents (backward-Euler companion: G = C/dt).
    for (std::size_t k = 0; k < net_.capacitors().size(); ++k) {
      const auto& c = net_.capacitors()[k];
      const double hist = c.farads / dt_ * cap_v_[k];
      if (c.a != kGround) rhs_[sz(c.a - 1)] += hist;
      if (c.b != kGround) rhs_[sz(c.b - 1)] -= hist;
    }
    for (int s = 0; s < n_src_; ++s) {
      const double v = net_.sources()[sz(s)].v(t_next);
      v_next_[sz(s)] = v;
      rhs_[sz(n_nodes_ + s)] = v;
    }
    // Inductor history (backward Euler: v = (L/dt)(i_new - i_old)).
    for (int l = 0; l < n_ind_; ++l) {
      const auto& ind = net_.inductors()[sz(l)];
      const double i_prev = x_[sz(n_nodes_ + n_src_ + l)];
      rhs_[sz(n_nodes_ + n_src_ + l)] = -ind.henries / dt_ * i_prev;
    }
    solve_step();
    t_ = t_next;
    // Delivered energies (trapezoid); delivered current is the negated
    // MNA branch current.
    for (int s = 0; s < n_src_; ++s) {
      const std::size_t row = sz(n_nodes_ + s);
      const double p_prev = v_src_[sz(s)] * -x_[row];
      const double p_new = v_next_[sz(s)] * -rhs_[row];
      src_energy_[sz(s)] += 0.5 * (p_prev + p_new) * dt_;
    }
    x_.swap(rhs_);
    v_src_.swap(v_next_);
    for (std::size_t k = 0; k < net_.capacitors().size(); ++k) {
      const auto& c = net_.capacitors()[k];
      const double va = c.a == kGround ? 0.0 : x_[sz(c.a - 1)];
      const double vb = c.b == kGround ? 0.0 : x_[sz(c.b - 1)];
      cap_v_[k] = va - vb;
    }
  }

  void run_until(double t_end) {
    while (t_ + 0.5 * dt_ < t_end) step();
  }

  double time() const { return t_; }
  double node_voltage(int node) const { return node == kGround ? 0.0 : x_.at(sz(node - 1)); }
  double source_energy(int id) const { return src_energy_.at(sz(id)); }

 private:
  static constexpr int kGround = circuit::Netlist::kGround;
  static std::size_t sz(int i) { return static_cast<std::size_t>(i); }

  struct SparseRows {
    std::vector<std::size_t> start;  ///< row k spans [start[k], start[k + 1])
    std::vector<int> col;
    std::vector<double> val;
  };

  phys::Matrix assemble() const {
    phys::Matrix a(sz(dim_), sz(dim_));
    const auto stamp_conductance = [&](int p, int q, double g) {
      if (p != kGround) a(sz(p - 1), sz(p - 1)) += g;
      if (q != kGround) a(sz(q - 1), sz(q - 1)) += g;
      if (p != kGround && q != kGround) {
        a(sz(p - 1), sz(q - 1)) -= g;
        a(sz(q - 1), sz(p - 1)) -= g;
      }
    };
    for (const auto& r : net_.resistors()) stamp_conductance(r.a, r.b, 1.0 / r.ohms);
    for (const auto& c : net_.capacitors()) stamp_conductance(c.a, c.b, c.farads / dt_);
    const auto stamp_branch = [&](std::size_t row, int p, int q) {
      if (p != kGround) a(row, sz(p - 1)) = a(sz(p - 1), row) = 1.0;
      if (q != kGround) a(row, sz(q - 1)) = a(sz(q - 1), row) = -1.0;
    };
    for (int s = 0; s < n_src_; ++s) {
      const auto& src = net_.sources()[sz(s)];
      stamp_branch(sz(n_nodes_ + s), src.plus, src.minus);
    }
    for (int l = 0; l < n_ind_; ++l) {
      const auto& ind = net_.inductors()[sz(l)];
      const std::size_t row = sz(n_nodes_ + n_src_ + l);
      stamp_branch(row, ind.a, ind.b);
      a(row, row) = -ind.henries / dt_;
    }
    return a;
  }

  void factorize(phys::Matrix& a) {
    const std::size_t n = sz(dim_);
    pivot_.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      std::size_t p = k;
      double best = std::abs(a(k, k));
      for (std::size_t r = k + 1; r < n; ++r) {
        if (std::abs(a(r, k)) > best) {
          best = std::abs(a(r, k));
          p = r;
        }
      }
      if (best < 1e-300) throw std::runtime_error("ReferenceTransientSim: singular MNA matrix");
      pivot_[k] = p;
      if (p != k) {
        for (std::size_t c = 0; c < n; ++c) std::swap(a(k, c), a(p, c));
      }
      const double pivot = a(k, k);
      for (std::size_t r = k + 1; r < n; ++r) {
        const double f = a(r, k) / pivot;
        a(r, k) = f;
        if (f == 0.0) continue;
        for (std::size_t c = k + 1; c < n; ++c) a(r, c) -= f * a(k, c);
      }
    }
    lower_.start.assign(1, 0);
    upper_.start.assign(1, 0);
    u_diag_.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      for (std::size_t c = 0; c < n; ++c) {
        const double v = a(k, c);
        if (c == k) {
          u_diag_[k] = v;
        } else if (v != 0.0) {
          SparseRows& rows = c < k ? lower_ : upper_;
          rows.col.push_back(static_cast<int>(c));
          rows.val.push_back(v);
        }
      }
      lower_.start.push_back(lower_.col.size());
      upper_.start.push_back(upper_.col.size());
    }
  }

  void solve_step() {
    const std::size_t n = rhs_.size();
    double* b = rhs_.data();
    for (std::size_t k = 0; k < n; ++k) {
      if (pivot_[k] != k) std::swap(b[k], b[pivot_[k]]);
      double v = b[k];
      for (std::size_t e = lower_.start[k]; e < lower_.start[k + 1]; ++e) {
        v -= lower_.val[e] * b[lower_.col[e]];
      }
      b[k] = v;
    }
    for (std::size_t k = n; k-- > 0;) {
      double v = b[k];
      for (std::size_t e = upper_.start[k]; e < upper_.start[k + 1]; ++e) {
        v -= upper_.val[e] * b[upper_.col[e]];
      }
      b[k] = v / u_diag_[k];
    }
  }

  const circuit::Netlist& net_;
  double dt_;
  double t_ = 0.0;
  int n_nodes_, n_src_, n_ind_, dim_;
  std::vector<std::size_t> pivot_;
  SparseRows lower_, upper_;
  std::vector<double> u_diag_;
  std::vector<double> x_, rhs_, cap_v_, v_src_, v_next_, src_energy_;
};

/// `circuit::simulate_link`'s driver waveforms: bit k of word t on TSV k
/// during cycle t.
inline std::vector<circuit::Waveform> link_waveforms(std::size_t tsvs,
                                                     std::span<const std::uint64_t> words,
                                                     double period,
                                                     const circuit::DriverParams& driver) {
  std::vector<circuit::Waveform> waves;
  for (std::size_t i = 0; i < tsvs; ++i) {
    std::vector<std::uint8_t> bits(words.size());
    for (std::size_t t = 0; t < words.size(); ++t) {
      bits[t] = static_cast<std::uint8_t>((words[t] >> i) & 1u);
    }
    waves.push_back(circuit::bit_waveform(std::move(bits), period, driver.rise_time, driver.vdd));
  }
  return waves;
}

/// `circuit::simulate_link`'s dynamic energy [J], stepped by the reference.
inline double link_energy(const phys::TsvArrayGeometry& geom, const phys::Matrix& cap,
                          std::span<const std::uint64_t> words,
                          const circuit::DriverParams& driver = {},
                          const circuit::SimOptions& options = {}) {
  const double period = 1.0 / options.frequency;
  const auto waves = link_waveforms(geom.count(), words, period, driver);
  const circuit::LinkNetlist link = circuit::build_link_netlist(geom, cap, waves, driver, options);
  ReferenceTransientSim sim(link.net, period / options.steps_per_cycle);
  sim.run_until(period * static_cast<double>(words.size()));
  double energy = 0.0;
  for (const int id : link.source_ids) energy += sim.source_energy(id);
  return energy;
}

/// The waveforms of one crosstalk scenario: the victim rises at t = period
/// or stays at 0, every aggressor moves from `from` to `to` at t = period.
/// `circuit::victim_bounce` drives the held victim against rising aggressors.
inline std::vector<circuit::Waveform> crosstalk_waveforms(std::size_t tsvs, std::size_t victim,
                                                          double period,
                                                          const circuit::DriverParams& driver,
                                                          bool victim_rises, std::uint8_t from,
                                                          std::uint8_t to) {
  std::vector<circuit::Waveform> waves;
  for (std::size_t i = 0; i < tsvs; ++i) {
    const std::uint8_t v = victim_rises ? 1 : 0;
    std::vector<std::uint8_t> bits = i == victim ? std::vector<std::uint8_t>{0, v, v}
                                                 : std::vector<std::uint8_t>{from, to, to};
    waves.push_back(circuit::bit_waveform(std::move(bits), period, driver.rise_time, driver.vdd));
  }
  return waves;
}

/// `circuit::victim_bounce`, stepped by the reference.
inline double victim_bounce(const phys::TsvArrayGeometry& geom, const phys::Matrix& cap,
                            std::size_t victim, const circuit::DriverParams& driver = {},
                            const circuit::SimOptions& options = {}) {
  const double period = 1.0 / options.frequency;
  const auto waves = crosstalk_waveforms(geom.count(), victim, period, driver, false, 0, 1);
  const circuit::LinkNetlist link = circuit::build_link_netlist(geom, cap, waves, driver, options);
  ReferenceTransientSim sim(link.net, period / std::max(options.steps_per_cycle, 400));
  const int probe = link.receiver_nodes[victim];
  double peak = 0.0;
  while (sim.time() < 3.0 * period) {
    sim.step();
    if (sim.time() > period) peak = std::max(peak, std::abs(sim.node_voltage(probe)));
  }
  return peak;
}

// --- Service frames ---------------------------------------------------------

/// Serialize a frame: the client half of serve/protocol.hpp's format.
inline std::string encode_frame(const serve::Frame& frame) {
  const auto store_u32le = [](std::string& out, std::uint32_t v) {
    for (int k = 0; k < 4; ++k) out.push_back(static_cast<char>((v >> (8 * k)) & 0xff));
  };
  std::string payload;
  switch (frame.type) {
    case serve::FrameType::data:
      payload.reserve(frame.words.size() * 8);
      for (const std::uint64_t w : frame.words) {
        store_u32le(payload, static_cast<std::uint32_t>(w & 0xffffffffu));
        store_u32le(payload, static_cast<std::uint32_t>(w >> 32));
      }
      break;
    case serve::FrameType::open: payload = frame.text; break;
    case serve::FrameType::stats:
    case serve::FrameType::close:
    case serve::FrameType::shutdown: break;
  }
  if (payload.size() > serve::kMaxFramePayload) {
    throw std::runtime_error("serve: frame payload exceeds 64 MiB cap");
  }

  std::string out;
  out.reserve(12 + payload.size());
  store_u32le(out, static_cast<std::uint32_t>(payload.size()));
  out.push_back(static_cast<char>(frame.type));
  out.append(3, '\0');
  store_u32le(out, frame.session);
  out += payload;
  return out;
}

}  // namespace tsvcod::reference
