#include "field/solver.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>

#include "obs/obs.hpp"
#include "obs/profile.hpp"
#include "phys/constants.hpp"
#include "simd/dispatch.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TSVCOD_FIELD_X86_KERNELS 1
#include "field/simd_lanes.hpp"
#endif

namespace tsvcod::field {

namespace {

Complex harmonic_mean(Complex a, Complex b) {
  const Complex s = a + b;
  if (std::abs(s) == 0.0) return Complex{0.0, 0.0};
  return 2.0 * a * b / s;
}

// Complex arithmetic spelled out in real and imaginary parts, in the exact
// operation order the compiler emits for std::complex<double> (a*b is
// (ar*br - ai*bi, ar*bi + ai*br); norm is re*re + im*im). Results are
// bit-identical for finite operands; only the NaN-recovery call
// (__muldc3) that std::complex multiplication carries is gone.
inline Complex mul(Complex a, Complex b) {
  return {a.real() * b.real() - a.imag() * b.imag(), a.real() * b.imag() + a.imag() * b.real()};
}

/// conj(a) * b, with the conjugate's negated imaginary part as an operand.
inline Complex conj_mul(Complex a, Complex b) {
  const double ai = -a.imag();
  return {a.real() * b.real() - ai * b.imag(), a.real() * b.imag() + ai * b.real()};
}

inline double norm(Complex a) { return a.real() * a.real() + a.imag() * a.imag(); }

double norm2(const std::vector<Complex>& v) {
  double acc = 0.0;
  for (const auto& c : v) acc += norm(c);
  return std::sqrt(acc);
}

Complex dot(const std::vector<Complex>& a, const std::vector<Complex>& b) {
  Complex acc{0.0, 0.0};
  for (std::size_t i = 0; i < a.size(); ++i) acc += conj_mul(a[i], b[i]);
  return acc;
}

// ---------------------------------------------------------------------------
// The grid operator y = A x. A free cell's row is
//   y_i = diag_i x_i - (w_e x_e + w_w x_w + w_n x_n + w_s x_s),
// the face sum accumulated from +0 in the fixed order e, w, n, s. Faces to
// Dirichlet neighbours need no test: x is zero there, so their terms are
// +-0 and leave the sum unchanged. Dirichlet rows of y are +0. The vector
// clones cover interior rows and compute every product as mul + add of a
// sign-flipped mul, which rounds exactly like the scalar mul().
// ---------------------------------------------------------------------------

struct Operator {
  std::size_t nx = 0, ny = 0;
  const std::uint8_t* dir = nullptr;
  const Complex* we = nullptr;
  const Complex* wn = nullptr;
  const Complex* diag = nullptr;
};

// Kept out of line: inlined into an AVX2 clone, GCC's vectorizer pairs the
// products of mul() into an FMADDSUB even under -ffp-contract=off, which
// rounds differently from the scalar form.
__attribute__((noinline)) void apply_cell(const Operator& a, const Complex* x, Complex* y,
                                          std::size_t ix, std::size_t iy) {
  const std::size_t i = iy * a.nx + ix;
  if (a.dir[i]) {
    y[i] = Complex{};
    return;
  }
  Complex off{};
  if (ix + 1 < a.nx) off += mul(a.we[i], x[i + 1]);
  if (ix > 0) off += mul(a.we[i - 1], x[i - 1]);
  if (iy + 1 < a.ny) off += mul(a.wn[i], x[i + a.nx]);
  if (iy > 0) off += mul(a.wn[i - a.nx], x[i - a.nx]);
  y[i] = mul(a.diag[i], x[i]) - off;
}

void apply_row_scalar(const Operator& a, const Complex* x, Complex* y, std::size_t iy) {
  for (std::size_t ix = 0; ix < a.nx; ++ix) apply_cell(a, x, y, ix, iy);
}

// ---------------------------------------------------------------------------
// BiCGStab vector updates, each fused with the reductions over its result.
// Every reduction adds one cell at a time, in cell order, into its own
// accumulator, which the caller starts at +0. The scalar forms work on the
// cell range [b, e); the AVX-512 forms compute the products of four cells
// at once, exactly as the scalar forms round them, add them into the
// accumulators one cell at a time, and hand the tail to the scalar form.
// The scalar forms stay out of line so that no vector clone inlines (and
// re-vectorizes) them.
// ---------------------------------------------------------------------------

struct Krylov {
  // p = r + beta (p - omega v)
  void (*update_p)(std::size_t b, std::size_t e, Complex beta, Complex omega, const Complex* r,
                   const Complex* v, Complex* p);
  // r0v += conj(r0) v, vv += |v|^2
  void (*dot_norm)(std::size_t b, std::size_t e, const Complex* r0, const Complex* v,
                   Complex& r0v, double& vv);
  // s = r - alpha v, ss += |s|^2
  void (*update_s)(std::size_t b, std::size_t e, Complex alpha, const Complex* r,
                   const Complex* v, Complex* s, double& ss);
  // tt += conj(t) t, ts += conj(t) s
  void (*dots_t)(std::size_t b, std::size_t e, const Complex* t, const Complex* s, Complex& tt,
                 Complex& ts);
  // x += alpha p + omega s, r = s - omega t, rr += |r|^2, r0r += conj(r0) r
  void (*update_xr)(std::size_t b, std::size_t e, Complex alpha, Complex omega, const Complex* p,
                    const Complex* s, const Complex* t, const Complex* r0, Complex* x, Complex* r,
                    double& rr, Complex& r0r);
};

__attribute__((noinline)) void update_p_scalar(std::size_t b, std::size_t e, Complex beta,
                                               Complex omega, const Complex* r, const Complex* v,
                                               Complex* p) {
  for (std::size_t i = b; i < e; ++i) p[i] = r[i] + mul(beta, p[i] - mul(omega, v[i]));
}

__attribute__((noinline)) void dot_norm_scalar(std::size_t b, std::size_t e, const Complex* r0,
                                               const Complex* v, Complex& r0v, double& vv) {
  for (std::size_t i = b; i < e; ++i) {
    r0v += conj_mul(r0[i], v[i]);
    vv += norm(v[i]);
  }
}

__attribute__((noinline)) void update_s_scalar(std::size_t b, std::size_t e, Complex alpha,
                                               const Complex* r, const Complex* v, Complex* s,
                                               double& ss) {
  for (std::size_t i = b; i < e; ++i) {
    s[i] = r[i] - mul(alpha, v[i]);
    ss += norm(s[i]);
  }
}

__attribute__((noinline)) void dots_t_scalar(std::size_t b, std::size_t e, const Complex* t,
                                             const Complex* s, Complex& tt, Complex& ts) {
  for (std::size_t i = b; i < e; ++i) {
    tt += conj_mul(t[i], t[i]);
    ts += conj_mul(t[i], s[i]);
  }
}

__attribute__((noinline)) void update_xr_scalar(std::size_t b, std::size_t e, Complex alpha,
                                                Complex omega, const Complex* p, const Complex* s,
                                                const Complex* t, const Complex* r0, Complex* x,
                                                Complex* r, double& rr, Complex& r0r) {
  for (std::size_t i = b; i < e; ++i) {
    x[i] += mul(alpha, p[i]) + mul(omega, s[i]);
    r[i] = s[i] - mul(omega, t[i]);
    rr += norm(r[i]);
    r0r += conj_mul(r0[i], r[i]);
  }
}

#if defined(TSVCOD_FIELD_X86_KERNELS)

// GCC's one-operand AVX-512 permute intrinsics expand to masked builtins
// with an undefined passthrough vector, which trips -Wmaybe-uninitialized
// at -O2; the passthrough is never selected (mask is all-ones).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

// Clears the upper halves of the vector registers before a vector clone
// hands its last cells to the out-of-line scalar code. GCC may emit no
// vzeroupper before such calls, and dirty upper state slows every later
// non-VEX SSE instruction of the process (the solver's own scalar code and
// whatever runs after it).
__attribute__((target("avx"))) inline void leave_wide_state() { _mm256_zeroupper(); }

// Interleaved complex product per (re, im) pair: wr*x + (-wi*xi, wi*xr),
// i.e. (wr*xr - wi*xi, wr*xi + wi*xr) with both products rounded, as mul().
__attribute__((target("avx2,fma"))) inline __m256d cmul256(__m256d w, __m256d x) {
  const __m256d neg_re = _mm256_set_pd(0.0, -0.0, 0.0, -0.0);
  const __m256d wr = _mm256_movedup_pd(w);
  const __m256d wi = _mm256_permute_pd(w, 0xF);
  const __m256d xs = _mm256_permute_pd(x, 0x5);
  return _mm256_add_pd(_mm256_mul_pd(wr, x), _mm256_xor_pd(_mm256_mul_pd(wi, xs), neg_re));
}

__attribute__((target("avx512f,avx512dq"))) inline __m512d cmul512(__m512d w, __m512d x) {
  const __m512d neg_re = _mm512_set_pd(0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0);
  const __m512d wr = _mm512_movedup_pd(w);
  const __m512d wi = _mm512_permute_pd(w, 0xFF);
  const __m512d xs = _mm512_permute_pd(x, 0x55);
  return _mm512_add_pd(_mm512_mul_pd(wr, x), _mm512_xor_pd(_mm512_mul_pd(wi, xs), neg_re));
}

__attribute__((target("avx2,fma"))) void apply_row_avx2(const Operator& a, const Complex* x_c,
                                                        Complex* y_c, std::size_t iy) {
  const std::size_t nx = a.nx;
  if (iy == 0 || iy + 1 == a.ny || nx < 4) {
    apply_row_scalar(a, x_c, y_c, iy);
    return;
  }
  const double* we = reinterpret_cast<const double*>(a.we);
  const double* wn = reinterpret_cast<const double*>(a.wn);
  const double* dg = reinterpret_cast<const double*>(a.diag);
  const double* x = reinterpret_cast<const double*>(x_c);
  double* y = reinterpret_cast<double*>(y_c);
  apply_cell(a, x_c, y_c, 0, iy);
  std::size_t ix = 1;
  for (; ix + 2 <= nx - 1; ix += 2) {
    const std::size_t i = iy * nx + ix;
    const std::size_t d = 2 * i;
    __m256d off = _mm256_add_pd(_mm256_setzero_pd(),
                                cmul256(_mm256_loadu_pd(we + d), _mm256_loadu_pd(x + d + 2)));
    off = _mm256_add_pd(off, cmul256(_mm256_loadu_pd(we + d - 2), _mm256_loadu_pd(x + d - 2)));
    off = _mm256_add_pd(off, cmul256(_mm256_loadu_pd(wn + d), _mm256_loadu_pd(x + d + 2 * nx)));
    off = _mm256_add_pd(
        off, cmul256(_mm256_loadu_pd(wn + d - 2 * nx), _mm256_loadu_pd(x + d - 2 * nx)));
    const __m256d ax =
        _mm256_sub_pd(cmul256(_mm256_loadu_pd(dg + d), _mm256_loadu_pd(x + d)), off);
    const long long m0 = a.dir[i] ? -1 : 0;
    const long long m1 = a.dir[i + 1] ? -1 : 0;
    _mm256_storeu_pd(
        y + d, _mm256_andnot_pd(_mm256_castsi256_pd(_mm256_set_epi64x(m1, m1, m0, m0)), ax));
  }
  leave_wide_state();
  for (; ix < nx; ++ix) apply_cell(a, x_c, y_c, ix, iy);
}

__attribute__((target("avx512f,avx512dq"))) void apply_row_avx512(const Operator& a,
                                                                  const Complex* x_c,
                                                                  Complex* y_c, std::size_t iy) {
  const std::size_t nx = a.nx;
  if (iy == 0 || iy + 1 == a.ny || nx < 6) {
    apply_row_scalar(a, x_c, y_c, iy);
    return;
  }
  const double* we = reinterpret_cast<const double*>(a.we);
  const double* wn = reinterpret_cast<const double*>(a.wn);
  const double* dg = reinterpret_cast<const double*>(a.diag);
  const double* x = reinterpret_cast<const double*>(x_c);
  double* y = reinterpret_cast<double*>(y_c);
  apply_cell(a, x_c, y_c, 0, iy);
  std::size_t ix = 1;
  for (; ix + 4 <= nx - 1; ix += 4) {
    const std::size_t i = iy * nx + ix;
    const std::size_t d = 2 * i;
    __m512d off = _mm512_add_pd(_mm512_setzero_pd(),
                                cmul512(_mm512_loadu_pd(we + d), _mm512_loadu_pd(x + d + 2)));
    off = _mm512_add_pd(off, cmul512(_mm512_loadu_pd(we + d - 2), _mm512_loadu_pd(x + d - 2)));
    off = _mm512_add_pd(off, cmul512(_mm512_loadu_pd(wn + d), _mm512_loadu_pd(x + d + 2 * nx)));
    off = _mm512_add_pd(
        off, cmul512(_mm512_loadu_pd(wn + d - 2 * nx), _mm512_loadu_pd(x + d - 2 * nx)));
    const __m512d ax =
        _mm512_sub_pd(cmul512(_mm512_loadu_pd(dg + d), _mm512_loadu_pd(x + d)), off);
    _mm512_storeu_pd(y + d, _mm512_maskz_mov_pd(free_lanes4(a.dir + i), ax));
  }
  leave_wide_state();
  for (; ix < nx; ++ix) apply_cell(a, x_c, y_c, ix, iy);
}

// Krylov lanes: four cells per 512-bit vector, (re, im) interleaved.
__attribute__((target("avx512f,avx512dq"))) inline __m512d load4(const Complex* p) {
  return _mm512_loadu_pd(reinterpret_cast<const double*>(p));
}

__attribute__((target("avx512f,avx512dq"))) inline void store4(Complex* p, __m512d v) {
  _mm512_storeu_pd(reinterpret_cast<double*>(p), v);
}

__attribute__((target("avx512f,avx512dq"))) inline __m512d splat4(Complex c) {
  return _mm512_set_pd(c.imag(), c.real(), c.imag(), c.real(), c.imag(), c.real(), c.imag(),
                       c.real());
}

// conj(a) * b per cell, as conj_mul(): the conjugate's negated imaginary
// part is an operand.
__attribute__((target("avx512f,avx512dq"))) inline __m512d conj_mul4(__m512d a, __m512d b) {
  const __m512d neg_im = _mm512_set_pd(-0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0);
  return cmul512(_mm512_xor_pd(a, neg_im), b);
}

// |a|^2 = re*re + im*im per cell, in the even lanes.
__attribute__((target("avx512f,avx512dq"))) inline __m512d norm4(__m512d a) {
  const __m512d sq = _mm512_mul_pd(a, a);
  return _mm512_add_pd(sq, _mm512_permute_pd(sq, 0x55));
}

// Serial accumulation of four cells' lanes, in cell order.
inline void add_cells(const double* lanes, double& acc) {
  for (std::size_t k = 0; k < 4; ++k) acc += lanes[2 * k];
}

inline void add_cells(const double* lanes, Complex& acc) {
  for (std::size_t k = 0; k < 4; ++k) acc += Complex{lanes[2 * k], lanes[2 * k + 1]};
}

__attribute__((target("avx512f,avx512dq"))) void update_p_avx512(std::size_t b, std::size_t e,
                                                                 Complex beta, Complex omega,
                                                                 const Complex* r,
                                                                 const Complex* v, Complex* p) {
  const __m512d vb = splat4(beta), vo = splat4(omega);
  std::size_t i = b;
  for (; i + 4 <= e; i += 4) {
    const __m512d d = _mm512_sub_pd(load4(p + i), cmul512(vo, load4(v + i)));
    store4(p + i, _mm512_add_pd(load4(r + i), cmul512(vb, d)));
  }
  leave_wide_state();
  update_p_scalar(i, e, beta, omega, r, v, p);
}

__attribute__((target("avx512f,avx512dq"))) void dot_norm_avx512(std::size_t b, std::size_t e,
                                                                 const Complex* r0,
                                                                 const Complex* v, Complex& r0v,
                                                                 double& vv) {
  alignas(64) double dots[8] = {}, norms[8] = {};
  std::size_t i = b;
  for (; i + 4 <= e; i += 4) {
    const __m512d vi = load4(v + i);
    _mm512_store_pd(dots, conj_mul4(load4(r0 + i), vi));
    _mm512_store_pd(norms, norm4(vi));
    add_cells(dots, r0v);
    add_cells(norms, vv);
  }
  leave_wide_state();
  dot_norm_scalar(i, e, r0, v, r0v, vv);
}

__attribute__((target("avx512f,avx512dq"))) void update_s_avx512(std::size_t b, std::size_t e,
                                                                 Complex alpha, const Complex* r,
                                                                 const Complex* v, Complex* s,
                                                                 double& ss) {
  const __m512d va = splat4(alpha);
  alignas(64) double norms[8] = {};
  std::size_t i = b;
  for (; i + 4 <= e; i += 4) {
    const __m512d si = _mm512_sub_pd(load4(r + i), cmul512(va, load4(v + i)));
    store4(s + i, si);
    _mm512_store_pd(norms, norm4(si));
    add_cells(norms, ss);
  }
  leave_wide_state();
  update_s_scalar(i, e, alpha, r, v, s, ss);
}

__attribute__((target("avx512f,avx512dq"))) void dots_t_avx512(std::size_t b, std::size_t e,
                                                               const Complex* t, const Complex* s,
                                                               Complex& tt, Complex& ts) {
  alignas(64) double dtt[8] = {}, dts[8] = {};
  std::size_t i = b;
  for (; i + 4 <= e; i += 4) {
    const __m512d ti = load4(t + i);
    _mm512_store_pd(dtt, conj_mul4(ti, ti));
    _mm512_store_pd(dts, conj_mul4(ti, load4(s + i)));
    add_cells(dtt, tt);
    add_cells(dts, ts);
  }
  leave_wide_state();
  dots_t_scalar(i, e, t, s, tt, ts);
}

__attribute__((target("avx512f,avx512dq"))) void update_xr_avx512(
    std::size_t b, std::size_t e, Complex alpha, Complex omega, const Complex* p,
    const Complex* s, const Complex* t, const Complex* r0, Complex* x, Complex* r, double& rr,
    Complex& r0r) {
  const __m512d va = splat4(alpha), vo = splat4(omega);
  alignas(64) double norms[8] = {}, dots[8] = {};
  std::size_t i = b;
  for (; i + 4 <= e; i += 4) {
    const __m512d si = load4(s + i);
    const __m512d step = _mm512_add_pd(cmul512(va, load4(p + i)), cmul512(vo, si));
    store4(x + i, _mm512_add_pd(load4(x + i), step));
    const __m512d ri = _mm512_sub_pd(si, cmul512(vo, load4(t + i)));
    store4(r + i, ri);
    _mm512_store_pd(norms, norm4(ri));
    _mm512_store_pd(dots, conj_mul4(load4(r0 + i), ri));
    add_cells(norms, rr);
    add_cells(dots, r0r);
  }
  leave_wide_state();
  update_xr_scalar(i, e, alpha, omega, p, s, t, r0, x, r, rr, r0r);
}

#pragma GCC diagnostic pop

#endif  // TSVCOD_FIELD_X86_KERNELS

Krylov krylov_kernels() {
#if defined(TSVCOD_FIELD_X86_KERNELS)
  if (simd::active_level() == simd::Level::avx512) {
    return {update_p_avx512, dot_norm_avx512, update_s_avx512, dots_t_avx512, update_xr_avx512};
  }
#endif
  return {update_p_scalar, dot_norm_scalar, update_s_scalar, dots_t_scalar, update_xr_scalar};
}

}  // namespace

void SolverOptions::validate() const {
  if (!(tolerance > 0.0 && tolerance < 1.0)) {
    std::ostringstream msg;
    msg << "SolverOptions: tolerance must be a finite number in (0, 1), got " << tolerance;
    throw std::invalid_argument(msg.str());
  }
  if (max_iterations < 1) {
    throw std::invalid_argument("SolverOptions: max_iterations must be >= 1, got " +
                                std::to_string(max_iterations));
  }
}

FieldProblem::FieldProblem(const Grid& grid) : grid_(grid) {
  const std::size_t n = grid.size();
  dirichlet_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (grid.conductor(i) == kNoConductor) {
      ++free_count_;
    } else {
      dirichlet_[i] = 1;
    }
  }
  update_coefficients();
}

void FieldProblem::update_coefficients() {
  // Precompute east/north face weights for every cell.
  const std::size_t n = grid_.size();
  const std::size_t nx = grid_.nx();
  const std::size_t ny = grid_.ny();
  w_east_.assign(n, Complex{});
  w_north_.assign(n, Complex{});
  for (std::size_t iy = 0; iy < ny; ++iy) {
    for (std::size_t ix = 0; ix < nx; ++ix) {
      const std::size_t i = grid_.index(ix, iy);
      if (ix + 1 < nx) w_east_[i] = harmonic_mean(grid_.eps(i), grid_.eps(grid_.index(ix + 1, iy)));
      if (iy + 1 < ny) w_north_[i] = harmonic_mean(grid_.eps(i), grid_.eps(grid_.index(ix, iy + 1)));
    }
  }
  // Operator diagonal per free cell: every in-domain face weight (Dirichlet
  // neighbours included), then the domain-boundary faces, which see a
  // Dirichlet 0 through the cell's own permittivity.
  diag_.assign(n, Complex{});
  for (std::size_t iy = 0; iy < ny; ++iy) {
    for (std::size_t ix = 0, i = iy * nx; ix < nx; ++ix, ++i) {
      if (dirichlet_[i]) continue;
      Complex d{};
      if (ix + 1 < nx) d += w_east_[i];
      if (ix > 0) d += w_east_[i - 1];
      if (iy + 1 < ny) d += w_north_[i];
      if (iy > 0) d += w_north_[i - nx];
      if (ix == 0 || ix + 1 == nx) d += grid_.eps(i);
      if (iy == 0 || iy + 1 == ny) d += grid_.eps(i);
      diag_[i] = d;
    }
  }
  std::lock_guard<std::mutex> lock(mg_mutex_);
  if (mg_) {
    std::vector<Complex> eps(n);
    for (std::size_t i = 0; i < n; ++i) eps[i] = grid_.eps(i);
    mg_->update_coefficients(eps);
  }
}

const Multigrid* FieldProblem::multigrid() const {
  std::lock_guard<std::mutex> lock(mg_mutex_);
  if (!mg_attempted_) {
    mg_attempted_ = true;
    if (Multigrid::viable(grid_.nx(), grid_.ny(), unknowns())) {
      const std::size_t n = grid_.size();
      std::vector<Complex> eps(n);
      for (std::size_t i = 0; i < n; ++i) eps[i] = grid_.eps(i);
      mg_ = std::make_unique<Multigrid>(grid_.nx(), grid_.ny(), dirichlet_, eps);
    }
  }
  return mg_.get();
}

void FieldProblem::apply(const std::vector<Complex>& x, std::vector<Complex>& y) const {
  const std::size_t n = grid_.size();
  if (x.size() != n || y.size() != n) {
    throw std::invalid_argument("FieldProblem::apply: vectors must be full-grid sized");
  }
  const Operator a{grid_.nx(), grid_.ny(), dirichlet_.data(), w_east_.data(), w_north_.data(),
                   diag_.data()};
  auto row = apply_row_scalar;
#if defined(TSVCOD_FIELD_X86_KERNELS)
  switch (simd::active_level()) {
    case simd::Level::avx512:
      row = apply_row_avx512;
      break;
    case simd::Level::avx2:
      row = apply_row_avx2;
      break;
    default:
      break;
  }
#endif
  for (std::size_t iy = 0; iy < a.ny; ++iy) row(a, x.data(), y.data(), iy);
}

std::vector<Complex> FieldProblem::solve(std::int32_t active, const SolverOptions& opts,
                                         SolveStats* stats) const {
  return solve(active, opts, std::span<const Complex>{}, stats);
}

std::vector<Complex> FieldProblem::rhs(std::int32_t active) const {
  const std::size_t nx = grid_.nx();
  const std::size_t ny = grid_.ny();
  std::vector<Complex> b(grid_.size(), Complex{});
  for (std::size_t iy = 0; iy < ny; ++iy) {
    for (std::size_t ix = 0, i = iy * nx; ix < nx; ++ix, ++i) {
      if (dirichlet_[i]) continue;
      auto dirichlet = [&](std::size_t j, Complex w) {
        if (grid_.conductor(j) == active) b[i] += w;  // phi = 1 there
      };
      if (ix + 1 < nx && dirichlet_[i + 1]) dirichlet(i + 1, w_east_[i]);
      if (ix > 0 && dirichlet_[i - 1]) dirichlet(i - 1, w_east_[i - 1]);
      if (iy + 1 < ny && dirichlet_[i + nx]) dirichlet(i + nx, w_north_[i]);
      if (iy > 0 && dirichlet_[i - nx]) dirichlet(i - nx, w_north_[i - nx]);
    }
  }
  return b;
}

std::vector<Complex> FieldProblem::solve(std::int32_t active, const SolverOptions& opts,
                                         std::span<const Complex> phi0, SolveStats* stats) const {
  opts.validate();
  obs::Span span("field.solve");
  long long vcycles = 0;
  const std::size_t n = grid_.size();
  if (!phi0.empty() && phi0.size() != n) {
    throw std::invalid_argument("solve: warm-start potential must be full-grid sized");
  }

  // Right-hand side: contributions of Dirichlet neighbours (active conductor
  // at 1 V; everything else at 0 V).
  const std::vector<Complex> b = rhs(active);

  // Resolve the preconditioner: multigrid falls back to Jacobi when the grid
  // is too small to coarsen.
  const Multigrid* mg = nullptr;
  if (opts.preconditioner == Preconditioner::multigrid) mg = multigrid();
  const Preconditioner pc = mg ? Preconditioner::multigrid : Preconditioner::jacobi;

  // Every Krylov vector is full-grid and zero at Dirichlet cells.
  std::vector<Complex> x(n, Complex{});
  double res = 0.0;
  int it = 0;
  bool trivial = false;

  if (norm2(b) == 0.0) {
    // No free cell touches the active conductor: phi = 0 is the exact
    // solution. Report it honestly instead of mimicking an iterative solve.
    trivial = true;
  } else {
    // Left preconditioner application z = M^-1 y; the V-cycle works in the
    // Krylov vectors themselves.
    Multigrid::Workspace ws;
    if (mg) ws = mg->make_workspace();
    auto precond = [&](const std::vector<Complex>& y, std::vector<Complex>& z) {
      if (!mg) {
        for (std::size_t i = 0; i < n; ++i) z[i] = dirichlet_[i] ? Complex{} : y[i] / diag_[i];
        return;
      }
      ++vcycles;
      mg->v_cycle(y, z, ws);
    };
    std::vector<Complex> tmp(n);
    auto apply_prec = [&](const std::vector<Complex>& in, std::vector<Complex>& out) {
      apply(in, tmp);
      precond(tmp, out);
    };

    std::vector<Complex> bs(n);
    precond(b, bs);
    const double bnorm = norm2(bs);

    // Initial guess and (preconditioned) initial residual.
    std::vector<Complex> r(n);
    if (phi0.empty()) {
      r = bs;
    } else {
      for (std::size_t i = 0; i < n; ++i) x[i] = dirichlet_[i] ? Complex{} : phi0[i];
      apply(x, tmp);
      for (std::size_t i = 0; i < n; ++i) tmp[i] = b[i] - tmp[i];
      precond(tmp, r);
    }

    if (bnorm == 0.0) {
      // Pathological: the preconditioner annihilated a nonzero rhs. Report
      // the zero iterate as a (trivially scaled) converged solution.
      x.assign(n, Complex{});
      trivial = true;
    } else {
      const Krylov kk = krylov_kernels();
      std::vector<Complex> r0 = r;
      std::vector<Complex> p(n, Complex{}), v(n, Complex{}), s(n), t(n);
      Complex rho{1.0, 0.0}, alpha{1.0, 0.0}, omega{1.0, 0.0};
      const double r0norm = norm2(r0);
      double rnorm = norm2(r);
      Complex r0r = dot(r0, r);
      res = rnorm / bnorm;
      // The vector updates share passes with the reductions that read their
      // results; each reduction still runs in cell order.
      if (res >= opts.tolerance) {
        for (; it < opts.max_iterations; ++it) {
          const Complex rho1 = r0r;
          // Breakdown guard, scaled like the alpha guard below: an
          // absolute 1e-300 cutoff false-triggers on well-scaled systems
          // whose norms are simply small.
          if (std::abs(rho1) <= 1e-30 * r0norm * rnorm) break;
          if (it == 0) {
            p = r;
          } else {
            const Complex beta = (rho1 / rho) * (alpha / omega);
            kk.update_p(0, n, beta, omega, r.data(), v.data(), p.data());
          }
          rho = rho1;
          apply_prec(p, v);
          // Breakdown guard: r0 ⟂ v makes alpha blow up to inf/NaN and taint
          // the whole potential vector. Bail out and report non-convergence.
          Complex r0v{};
          double vv = 0.0;
          kk.dot_norm(0, n, r0.data(), v.data(), r0v, vv);
          if (std::abs(r0v) <= 1e-30 * r0norm * std::sqrt(vv)) break;
          alpha = rho / r0v;
          double ss = 0.0;
          kk.update_s(0, n, alpha, r.data(), v.data(), s.data(), ss);
          const double snorm = std::sqrt(ss);
          if (snorm / bnorm < opts.tolerance) {
            for (std::size_t i = 0; i < n; ++i) x[i] += mul(alpha, p[i]);
            res = snorm / bnorm;
            ++it;
            break;
          }
          apply_prec(s, t);
          Complex tt{}, ts{};
          kk.dots_t(0, n, t.data(), s.data(), tt, ts);
          if (std::abs(tt) < 1e-300) break;
          omega = ts / tt;
          double rr = 0.0;
          r0r = Complex{};
          kk.update_xr(0, n, alpha, omega, p.data(), s.data(), t.data(), r0.data(), x.data(),
                       r.data(), rr, r0r);
          rnorm = std::sqrt(rr);
          res = rnorm / bnorm;
          if (res < opts.tolerance) {
            ++it;
            break;
          }
        }
      }
    }
  }
  const bool converged = trivial || (std::isfinite(res) && res < opts.tolerance);
  if (stats) {
    stats->iterations = it;
    stats->residual = res;
    stats->trivial = trivial;
    stats->preconditioner = pc;
    // isfinite: a residual poisoned by overflow must never count as converged.
    stats->converged = converged;
  }
  obs::profile_work("iterations", static_cast<std::uint64_t>(it));
  if (vcycles > 0) obs::profile_work("vcycles", static_cast<std::uint64_t>(vcycles));
  if (pc == Preconditioner::jacobi) obs::profile_work("jacobi", 1);
  if (trivial) obs::profile_work("trivial", 1);
  if (!converged) obs::profile_work("nonconverged", 1);
  if (!phi0.empty()) obs::profile_work("warm_started", 1);

  // The iterate is the potential; pin the Dirichlet values exactly.
  for (std::size_t i = 0; i < n; ++i) {
    if (dirichlet_[i]) x[i] = grid_.conductor(i) == active ? Complex{1.0, 0.0} : Complex{};
  }
  return x;
}

std::vector<Complex> FieldProblem::conductor_charges(const std::vector<Complex>& phi) const {
  if (phi.size() != grid_.size()) throw std::invalid_argument("conductor_charges: bad phi size");
  const std::size_t nx = grid_.nx();
  const std::size_t ny = grid_.ny();
  std::vector<Complex> q(static_cast<std::size_t>(grid_.conductor_count()), Complex{});
  for (std::size_t iy = 0; iy < ny; ++iy) {
    for (std::size_t ix = 0; ix < nx; ++ix) {
      const std::size_t i = grid_.index(ix, iy);
      const std::int32_t c = grid_.conductor(i);
      if (c == kNoConductor) continue;
      auto flux = [&](std::size_t j, Complex w) {
        if (grid_.conductor(j) == c) return;  // internal face, no net flux
        q[static_cast<std::size_t>(c)] += w * (phi[i] - phi[j]);
      };
      if (ix + 1 < nx) flux(i + 1, w_east_[i]);
      if (ix > 0) flux(i - 1, w_east_[i - 1]);
      if (iy + 1 < ny) flux(i + nx, w_north_[i]);
      if (iy > 0) flux(i - nx, w_north_[i - nx]);
      // Conductors never touch the outer boundary in our geometries; if they
      // did, the boundary face would contribute with the cell's own eps.
      if (ix == 0 || ix + 1 == nx) q[static_cast<std::size_t>(c)] += grid_.eps(i) * phi[i];
      if (iy == 0 || iy + 1 == ny) q[static_cast<std::size_t>(c)] += grid_.eps(i) * phi[i];
    }
  }
  for (auto& v : q) v *= phys::eps0;
  return q;
}

}  // namespace tsvcod::field
