#include "field/multigrid.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

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

// The one V-cycle configuration (one sweep before and one after each coarse
// correction): hierarchy depth cap, and the free-cell count at or below
// which coarsening stops and the level is solved directly.
constexpr std::size_t kMaxLevels = 24;
constexpr std::size_t kCoarsestUnknowns = 256;

// Degenerate-geometry escape hatch: if coarsening stalls (kMaxLevels or a
// sliver dimension) while the level is still too big to factor densely,
// replace the direct solve with this many smoothing sweeps from zero.
constexpr std::size_t kMaxDenseUnknowns = 4096;
constexpr int kFallbackSweeps = 6;

// ---------------------------------------------------------------------------
// Gauss-Seidel / residual row kernels.
//
// The scalar forms below are the reference semantics; the AVX2/AVX-512
// clones vectorize the 5-point stencil over interior rows (both neighbors
// exist, so no existence guards) and lean on the v_cycle invariant that
// x[i] == 0 at every Dirichlet cell: a face term against a Dirichlet
// neighbor is then exactly w * 0 = +-0, so the `!dirichlet[j]` guards drop
// out of the vector body, and a Gauss-Seidel candidate at a Dirichlet cell
// is inv_diag(=0) * (...) = +-0, so writing it back cannot break the
// invariant either. A colour's cells only read the opposite colour, so
// packing a full vector of same-colour cells of one row (every other
// complex; two narrow loads + one lane shuffle per operand) and updating
// all lanes at once reproduces the sequential update with no wasted lanes.
// Complex arithmetic is interleaved (re, im) pairs; one 256-bit vector holds
// 2 complexes, one 512-bit vector holds 4.
// ---------------------------------------------------------------------------

// Red cells have (ix + iy) even, black cells odd.
constexpr std::size_t kRed = 0;
constexpr std::size_t kBlack = 1;

struct Stencil {
  std::size_t nx = 0, ny = 0;
  const std::uint8_t* dir = nullptr;
  const Complex* we = nullptr;    // w_east
  const Complex* wn = nullptr;    // w_north
  const Complex* diag = nullptr;
  const Complex* idg = nullptr;   // inv_diag
};

// Deduces Multigrid's private Level type.
template <typename LevelT>
Stencil stencil_of(const LevelT& lv) {
  return {lv.nx,          lv.ny,          lv.dirichlet.data(), lv.w_east.data(),
          lv.w_north.data(), lv.diag.data(), lv.inv_diag.data()};
}

// One guarded Gauss-Seidel update (any cell, including boundaries): the
// original scalar semantics, also used for edge columns / boundary rows of
// the vector paths. Face order e, w, n, s is fixed.
inline void gs_cell(const Stencil& s, const Complex* rhs, Complex* x, std::size_t ix,
                    std::size_t iy) {
  const std::size_t i = iy * s.nx + ix;
  if (s.dir[i]) return;
  Complex off{};
  if (ix + 1 < s.nx && !s.dir[i + 1]) off += s.we[i] * x[i + 1];
  if (ix > 0 && !s.dir[i - 1]) off += s.we[i - 1] * x[i - 1];
  if (iy + 1 < s.ny && !s.dir[i + s.nx]) off += s.wn[i] * x[i + s.nx];
  if (iy > 0 && !s.dir[i - s.nx]) off += s.wn[i - s.nx] * x[i - s.nx];
  x[i] = s.idg[i] * (rhs[i] + off);
}

// Residual of cell (ix, iy) into out_row[ix], where out_row holds row iy.
inline void res_cell(const Stencil& s, const Complex* rhs, const Complex* x, Complex* out_row,
                     std::size_t ix, std::size_t iy) {
  const std::size_t i = iy * s.nx + ix;
  if (s.dir[i]) {
    out_row[ix] = Complex{};
    return;
  }
  Complex off{};
  if (ix + 1 < s.nx && !s.dir[i + 1]) off += s.we[i] * x[i + 1];
  if (ix > 0 && !s.dir[i - 1]) off += s.we[i - 1] * x[i - 1];
  if (iy + 1 < s.ny && !s.dir[i + s.nx]) off += s.wn[i] * x[i + s.nx];
  if (iy > 0 && !s.dir[i - s.nx]) off += s.wn[i - s.nx] * x[i - s.nx];
  out_row[ix] = rhs[i] - (s.diag[i] * x[i] - off);
}

// Gauss-Seidel update of the `color` cells of row iy.
void gs_row_scalar(const Stencil& s, const Complex* rhs, Complex* x, std::size_t iy,
                   std::size_t color) {
  for (std::size_t ix = (color + iy) % 2; ix < s.nx; ix += 2) gs_cell(s, rhs, x, ix, iy);
}

// Residual of row iy into out_row.
void residual_row_scalar(const Stencil& s, const Complex* rhs, const Complex* x, Complex* out_row,
                         std::size_t iy) {
  for (std::size_t ix = 0; ix < s.nx; ++ix) res_cell(s, rhs, x, out_row, ix, iy);
}

#if defined(TSVCOD_FIELD_X86_KERNELS)

// GCC's one-operand AVX-512 permute intrinsics expand to masked builtins
// with an undefined passthrough vector, which trips -Wmaybe-uninitialized
// at -O2; the passthrough is never selected (mask is all-ones).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

// Interleaved complex multiply: (wr*xr - wi*xi, wr*xi + wi*xr) per pair.
__attribute__((target("avx2,fma"))) inline __m256d cmul256(__m256d w, __m256d x) {
  const __m256d wr = _mm256_movedup_pd(w);
  const __m256d wi = _mm256_permute_pd(w, 0xF);
  const __m256d xs = _mm256_permute_pd(x, 0x5);
  return _mm256_fmaddsub_pd(wr, x, _mm256_mul_pd(wi, xs));
}

__attribute__((target("avx512f,avx512dq"))) inline __m512d cmul512(__m512d w, __m512d x) {
  const __m512d wr = _mm512_movedup_pd(w);
  const __m512d wi = _mm512_permute_pd(w, 0xFF);
  const __m512d xs = _mm512_permute_pd(x, 0x55);
  return _mm512_fmaddsub_pd(wr, x, _mm512_mul_pd(wi, xs));
}

// Same-color gathers for the GS sweeps: red-black cells sit at every other
// complex, so two narrow loads packed with one insert/shuffle fill a vector
// with nothing but current-color cells (or their same-offset neighbors).
// Complexes at double offsets d and d+4 -> lanes {0,1} and {2,3}.
__attribute__((target("avx2,fma"))) inline __m256d gather2(const double* p, std::size_t d) {
  return _mm256_insertf128_pd(_mm256_castpd128_pd256(_mm_loadu_pd(p + d)),
                              _mm_loadu_pd(p + d + 4), 1);
}

// Complexes at double offsets d, d+4, d+8, d+12 -> the four 128-bit lanes.
__attribute__((target("avx512f,avx512dq"))) inline __m512d gather4(const double* p,
                                                                   std::size_t d) {
  const __m512d lo = _mm512_loadu_pd(p + d);
  const __m512d hi = _mm512_loadu_pd(p + d + 8);
  return _mm512_shuffle_f64x2(lo, hi, _MM_SHUFFLE(2, 0, 2, 0));
}

__attribute__((target("avx2,fma"))) void gs_row_avx2(const Stencil& s, const Complex* rhs_c,
                                                     Complex* x_c, std::size_t iy,
                                                     std::size_t color) {
  const std::size_t nx = s.nx, ny = s.ny;
  const std::size_t ix0 = (color + iy) % 2;
  if (iy == 0 || iy + 1 == ny || nx < 6) {
    for (std::size_t ix = ix0; ix < nx; ix += 2) gs_cell(s, rhs_c, x_c, ix, iy);
    return;
  }
  const double* we = reinterpret_cast<const double*>(s.we);
  const double* wn = reinterpret_cast<const double*>(s.wn);
  const double* idg = reinterpret_cast<const double*>(s.idg);
  const double* rhs = reinterpret_cast<const double*>(rhs_c);
  double* x = reinterpret_cast<double*>(x_c);
  if (ix0 == 0) gs_cell(s, rhs_c, x_c, 0, iy);
  // Pack the current-color cells at columns c, c+2 into one full vector;
  // every lane does useful work. Needs c >= 1 (west neighbor) and
  // c + 3 <= nx - 1 (east neighbor of the second cell).
  std::size_t c = ix0 == 1 ? 1 : 2;
  for (; c + 4 <= nx; c += 4) {
    const std::size_t d = 2 * (iy * nx + c);
    __m256d off = cmul256(gather2(we, d), gather2(x, d + 2));
    off = _mm256_add_pd(off, cmul256(gather2(we, d - 2), gather2(x, d - 2)));
    off = _mm256_add_pd(off, cmul256(gather2(wn, d), gather2(x, d + 2 * nx)));
    off = _mm256_add_pd(off, cmul256(gather2(wn, d - 2 * nx), gather2(x, d - 2 * nx)));
    const __m256d cand = cmul256(gather2(idg, d), _mm256_add_pd(gather2(rhs, d), off));
    _mm_storeu_pd(x + d, _mm256_castpd256_pd128(cand));
    _mm_storeu_pd(x + d + 4, _mm256_extractf128_pd(cand, 1));
  }
  for (; c < nx; c += 2) gs_cell(s, rhs_c, x_c, c, iy);
}

__attribute__((target("avx512f,avx512dq"))) void gs_row_avx512(const Stencil& s,
                                                               const Complex* rhs_c, Complex* x_c,
                                                               std::size_t iy, std::size_t color) {
  const std::size_t nx = s.nx, ny = s.ny;
  const std::size_t ix0 = (color + iy) % 2;
  if (iy == 0 || iy + 1 == ny || nx < 10) {
    for (std::size_t ix = ix0; ix < nx; ix += 2) gs_cell(s, rhs_c, x_c, ix, iy);
    return;
  }
  const double* we = reinterpret_cast<const double*>(s.we);
  const double* wn = reinterpret_cast<const double*>(s.wn);
  const double* idg = reinterpret_cast<const double*>(s.idg);
  const double* rhs = reinterpret_cast<const double*>(rhs_c);
  double* x = reinterpret_cast<double*>(x_c);
  if (ix0 == 0) gs_cell(s, rhs_c, x_c, 0, iy);
  // Pack the current-color cells at columns c, c+2, c+4, c+6 into one
  // full vector. Needs c >= 1 (west neighbor) and c + 7 <= nx - 1 (east
  // neighbor of the last cell).
  std::size_t c = ix0 == 1 ? 1 : 2;
  for (; c + 8 <= nx; c += 8) {
    const std::size_t d = 2 * (iy * nx + c);
    __m512d off = cmul512(gather4(we, d), gather4(x, d + 2));
    off = _mm512_add_pd(off, cmul512(gather4(we, d - 2), gather4(x, d - 2)));
    off = _mm512_add_pd(off, cmul512(gather4(wn, d), gather4(x, d + 2 * nx)));
    off = _mm512_add_pd(off, cmul512(gather4(wn, d - 2 * nx), gather4(x, d - 2 * nx)));
    const __m512d cand = cmul512(gather4(idg, d), _mm512_add_pd(gather4(rhs, d), off));
    _mm_storeu_pd(x + d, _mm512_extractf64x2_pd(cand, 0));
    _mm_storeu_pd(x + d + 4, _mm512_extractf64x2_pd(cand, 1));
    _mm_storeu_pd(x + d + 8, _mm512_extractf64x2_pd(cand, 2));
    _mm_storeu_pd(x + d + 12, _mm512_extractf64x2_pd(cand, 3));
  }
  for (; c < nx; c += 2) gs_cell(s, rhs_c, x_c, c, iy);
}

__attribute__((target("avx2,fma"))) void residual_row_avx2(const Stencil& s, const Complex* rhs_c,
                                                           const Complex* x_c, Complex* out_c,
                                                           std::size_t iy) {
  const std::size_t nx = s.nx, ny = s.ny;
  if (iy == 0 || iy + 1 == ny || nx < 6) {
    for (std::size_t ix = 0; ix < nx; ++ix) res_cell(s, rhs_c, x_c, out_c, ix, iy);
    return;
  }
  const double* we = reinterpret_cast<const double*>(s.we);
  const double* wn = reinterpret_cast<const double*>(s.wn);
  const double* dg = reinterpret_cast<const double*>(s.diag);
  const double* rhs = reinterpret_cast<const double*>(rhs_c);
  const double* x = reinterpret_cast<const double*>(x_c);
  double* out = reinterpret_cast<double*>(out_c);
  res_cell(s, rhs_c, x_c, out_c, 0, iy);
  std::size_t ix = 1;
  for (; ix + 2 <= nx - 1; ix += 2) {
    const std::size_t i = iy * nx + ix;
    const std::size_t d = 2 * i;
    __m256d off = cmul256(_mm256_loadu_pd(we + d), _mm256_loadu_pd(x + d + 2));
    off = _mm256_add_pd(off, cmul256(_mm256_loadu_pd(we + d - 2), _mm256_loadu_pd(x + d - 2)));
    off = _mm256_add_pd(off, cmul256(_mm256_loadu_pd(wn + d), _mm256_loadu_pd(x + d + 2 * nx)));
    off = _mm256_add_pd(
        off, cmul256(_mm256_loadu_pd(wn + d - 2 * nx), _mm256_loadu_pd(x + d - 2 * nx)));
    const __m256d ax = _mm256_sub_pd(cmul256(_mm256_loadu_pd(dg + d), _mm256_loadu_pd(x + d)),
                                     off);
    __m256d cand = _mm256_sub_pd(_mm256_loadu_pd(rhs + d), ax);
    // Dirichlet rows of the residual are identically zero.
    const long long m0 = s.dir[i] ? -1 : 0;
    const long long m1 = s.dir[i + 1] ? -1 : 0;
    cand = _mm256_andnot_pd(_mm256_castsi256_pd(_mm256_set_epi64x(m1, m1, m0, m0)), cand);
    _mm256_storeu_pd(out + 2 * ix, cand);
  }
  for (; ix < nx; ++ix) res_cell(s, rhs_c, x_c, out_c, ix, iy);
}

__attribute__((target("avx512f,avx512dq"))) void residual_row_avx512(const Stencil& s,
                                                                     const Complex* rhs_c,
                                                                     const Complex* x_c,
                                                                     Complex* out_c,
                                                                     std::size_t iy) {
  const std::size_t nx = s.nx, ny = s.ny;
  if (iy == 0 || iy + 1 == ny || nx < 10) {
    for (std::size_t ix = 0; ix < nx; ++ix) res_cell(s, rhs_c, x_c, out_c, ix, iy);
    return;
  }
  const double* we = reinterpret_cast<const double*>(s.we);
  const double* wn = reinterpret_cast<const double*>(s.wn);
  const double* dg = reinterpret_cast<const double*>(s.diag);
  const double* rhs = reinterpret_cast<const double*>(rhs_c);
  const double* x = reinterpret_cast<const double*>(x_c);
  double* out = reinterpret_cast<double*>(out_c);
  res_cell(s, rhs_c, x_c, out_c, 0, iy);
  std::size_t ix = 1;
  for (; ix + 4 <= nx - 1; ix += 4) {
    const std::size_t i = iy * nx + ix;
    const std::size_t d = 2 * i;
    __m512d off = cmul512(_mm512_loadu_pd(we + d), _mm512_loadu_pd(x + d + 2));
    off = _mm512_add_pd(off, cmul512(_mm512_loadu_pd(we + d - 2), _mm512_loadu_pd(x + d - 2)));
    off = _mm512_add_pd(off, cmul512(_mm512_loadu_pd(wn + d), _mm512_loadu_pd(x + d + 2 * nx)));
    off = _mm512_add_pd(
        off, cmul512(_mm512_loadu_pd(wn + d - 2 * nx), _mm512_loadu_pd(x + d - 2 * nx)));
    const __m512d ax = _mm512_sub_pd(cmul512(_mm512_loadu_pd(dg + d), _mm512_loadu_pd(x + d)),
                                     off);
    const __m512d cand = _mm512_sub_pd(_mm512_loadu_pd(rhs + d), ax);
    _mm512_storeu_pd(out + 2 * ix, _mm512_maskz_mov_pd(free_lanes4(s.dir + i), cand));
  }
  for (; ix < nx; ++ix) res_cell(s, rhs_c, x_c, out_c, ix, iy);
}

#pragma GCC diagnostic pop

#endif  // TSVCOD_FIELD_X86_KERNELS

// The row kernels of the active dispatch level, chosen once per pass.
struct RowKernels {
  void (*gs)(const Stencil&, const Complex* rhs, Complex* x, std::size_t iy, std::size_t color);
  void (*residual)(const Stencil&, const Complex* rhs, const Complex* x, Complex* out_row,
                   std::size_t iy);
};

RowKernels row_kernels() {
#if defined(TSVCOD_FIELD_X86_KERNELS)
  switch (simd::active_level()) {
    case simd::Level::avx512:
      return {gs_row_avx512, residual_row_avx512};
    case simd::Level::avx2:
      return {gs_row_avx2, residual_row_avx2};
    default:
      break;
  }
#endif
  return {gs_row_scalar, residual_row_scalar};
}

// One red-black Gauss-Seidel sweep as a single pass: red row iy+1, then
// black row iy. A red update reads black rows iy..iy+2, none updated yet; a
// black update reads red rows iy-1..iy+1, all updated already. So every cell
// sees exactly the values of the two-colour order (all red, then all black)
// and does the same arithmetic. Per row, in increasing order,
// `prepare(iy)` runs before any cell of the row is read, and `done(iy)` once
// rows iy-1..iy+1 hold their final values.
template <typename Prepare, typename Done>
void sweep(const RowKernels& k, const Stencil& s, const Complex* rhs, Complex* x,
           Prepare&& prepare, Done&& done) {
  prepare(std::size_t{0});
  if (s.ny > 1) prepare(std::size_t{1});
  k.gs(s, rhs, x, 0, kRed);
  for (std::size_t iy = 0; iy + 1 < s.ny; ++iy) {
    if (iy + 2 < s.ny) prepare(iy + 2);
    k.gs(s, rhs, x, iy + 1, kRed);
    k.gs(s, rhs, x, iy, kBlack);
    if (iy > 0) done(iy - 1);
  }
  k.gs(s, rhs, x, s.ny - 1, kBlack);
  if (s.ny > 1) done(s.ny - 2);
  done(s.ny - 1);
}

void sweep(const RowKernels& k, const Stencil& s, const Complex* rhs, Complex* x) {
  const auto nothing = [](std::size_t) {};
  sweep(k, s, rhs, x, nothing, nothing);
}

// Residual rhs - A x of fine row iy into `row`, restricted into the coarse
// right-hand side `rc` (coarse nx = `cnx`, Dirichlet mask `cdir`). Called
// for rows 0, 1, ... in order: each coarse cell sums its fine children in
// row-major order from +0 (the adjoint of piecewise-constant prolongation),
// and coarse Dirichlet cells come out zero. A Dirichlet child's residual is
// exactly +0, and adding +0 to a sum that started at +0 changes no bit, so
// children need no Dirichlet test.
void residual_restrict_row(const RowKernels& k, const Stencil& s, const Complex* rhs,
                           const Complex* x, Complex* row, std::size_t cnx,
                           const std::uint8_t* cdir, Complex* rc, std::size_t iy) {
  k.residual(s, rhs, x, row, iy);
  const bool first = iy % 2 == 0;
  const bool last = !first || iy + 1 == s.ny;
  Complex* crow = rc + (iy >> 1) * cnx;
  const std::uint8_t* cdrow = cdir + (iy >> 1) * cnx;
  for (std::size_t cx = 0; cx < cnx; ++cx) {
    Complex acc = first ? Complex{} : crow[cx];
    acc += row[2 * cx];
    if (2 * cx + 1 < s.nx) acc += row[2 * cx + 1];
    crow[cx] = last && cdrow[cx] ? Complex{} : acc;
  }
}

}  // namespace

bool Multigrid::viable(std::size_t nx, std::size_t ny, std::size_t free_count) {
  return nx >= 8 && ny >= 8 && free_count > kCoarsestUnknowns;
}

Multigrid::Multigrid(std::size_t nx, std::size_t ny, const std::vector<std::uint8_t>& dirichlet,
                     const std::vector<Complex>& eps) {
  if (dirichlet.size() != nx * ny || eps.size() != nx * ny) {
    throw std::invalid_argument("Multigrid: dirichlet/eps size must be nx*ny");
  }
  Level fine;
  fine.nx = nx;
  fine.ny = ny;
  fine.dirichlet = dirichlet;
  fine.eps = eps;
  fine.free_count = 0;
  for (const auto d : dirichlet) fine.free_count += d ? 0u : 1u;
  levels_.push_back(std::move(fine));

  // Coarsen structure (Dirichlet masks) until the level is small enough for
  // a direct solve or cannot shrink meaningfully any further.
  while (levels_.size() < kMaxLevels) {
    const Level& f = levels_.back();
    if (f.free_count <= kCoarsestUnknowns) break;
    if (f.nx < 8 || f.ny < 8) break;
    Level c;
    c.nx = (f.nx + 1) / 2;
    c.ny = (f.ny + 1) / 2;
    // Pinned only when every child is (see multigrid.hpp).
    c.dirichlet.assign(c.nx * c.ny, 1);
    for (std::size_t iy = 0; iy < f.ny; ++iy) {
      for (std::size_t ix = 0; ix < f.nx; ++ix) {
        if (!f.dirichlet[iy * f.nx + ix]) c.dirichlet[(iy / 2) * c.nx + ix / 2] = 0;
      }
    }
    c.free_count = 0;
    for (const auto d : c.dirichlet) c.free_count += d ? 0u : 1u;
    levels_.push_back(std::move(c));
  }

  // Coarsest-level unknown numbering (for the dense factorization).
  const Level& last = levels_.back();
  coarse_free_index_.assign(last.nx * last.ny, -1);
  for (std::size_t i = 0; i < last.dirichlet.size(); ++i) {
    if (!last.dirichlet[i]) {
      coarse_free_index_[i] = static_cast<std::int64_t>(coarse_free_cells_.size());
      coarse_free_cells_.push_back(i);
    }
  }

  update_coefficients(eps);
}

void Multigrid::update_coefficients(const std::vector<Complex>& eps) {
  if (eps.size() != levels_.front().nx * levels_.front().ny) {
    throw std::invalid_argument("Multigrid::update_coefficients: eps size mismatch");
  }
  levels_.front().eps = eps;
  rebuild_level_coefficients(levels_.front());
  for (std::size_t l = 1; l < levels_.size(); ++l) {
    coarsen_eps(levels_[l - 1], levels_[l]);
    rebuild_level_coefficients(levels_[l]);
  }
  factor_coarsest();
}

void Multigrid::coarsen_eps(const Level& fine, Level& coarse) const {
  coarse.eps.assign(coarse.nx * coarse.ny, Complex{});
  std::vector<int> count(coarse.nx * coarse.ny, 0);
  for (std::size_t iy = 0; iy < fine.ny; ++iy) {
    for (std::size_t ix = 0; ix < fine.nx; ++ix) {
      const std::size_t c = (iy / 2) * coarse.nx + ix / 2;
      coarse.eps[c] += fine.eps[iy * fine.nx + ix];
      ++count[c];
    }
  }
  for (std::size_t c = 0; c < coarse.eps.size(); ++c) {
    coarse.eps[c] /= static_cast<double>(count[c]);
  }
}

void Multigrid::rebuild_level_coefficients(Level& lv) {
  const std::size_t nx = lv.nx;
  const std::size_t ny = lv.ny;
  const std::size_t n = nx * ny;
  lv.w_east.assign(n, Complex{});
  lv.w_north.assign(n, Complex{});
  for (std::size_t iy = 0; iy < ny; ++iy) {
    for (std::size_t ix = 0; ix < nx; ++ix) {
      const std::size_t i = iy * nx + ix;
      if (ix + 1 < nx) lv.w_east[i] = harmonic_mean(lv.eps[i], lv.eps[i + 1]);
      if (iy + 1 < ny) lv.w_north[i] = harmonic_mean(lv.eps[i], lv.eps[i + nx]);
    }
  }
  lv.diag.assign(n, Complex{});
  lv.inv_diag.assign(n, Complex{});
  for (std::size_t iy = 0; iy < ny; ++iy) {
    for (std::size_t ix = 0; ix < nx; ++ix) {
      const std::size_t i = iy * nx + ix;
      if (lv.dirichlet[i]) continue;
      Complex d{};
      if (ix + 1 < nx) d += lv.w_east[i];
      if (ix > 0) d += lv.w_east[i - 1];
      if (iy + 1 < ny) d += lv.w_north[i];
      if (iy > 0) d += lv.w_north[i - nx];
      // Domain boundary: Dirichlet 0 with the cell's own permittivity, the
      // same convention as FieldProblem::apply.
      if (ix == 0 || ix + 1 == nx) d += lv.eps[i];
      if (iy == 0 || iy + 1 == ny) d += lv.eps[i];
      lv.diag[i] = d;
      lv.inv_diag[i] = std::abs(d) > 0.0 ? 1.0 / d : Complex{};
    }
  }
}

void Multigrid::factor_coarsest() {
  const std::size_t n = coarse_free_cells_.size();
  if (n == 0 || n > kMaxDenseUnknowns) {
    lu_.clear();
    pivot_.clear();
    return;
  }
  const Level& lv = levels_.back();
  const std::size_t nx = lv.nx;
  lu_.assign(n * n, Complex{});
  for (std::size_t row = 0; row < n; ++row) {
    const std::size_t i = coarse_free_cells_[row];
    const std::size_t ix = i % nx;
    const std::size_t iy = i / nx;
    lu_[row * n + row] = lv.diag[i];
    auto couple = [&](std::size_t j, Complex w) {
      const std::int64_t col = coarse_free_index_[j];
      if (col >= 0) lu_[row * n + static_cast<std::size_t>(col)] -= w;
    };
    if (ix + 1 < nx) couple(i + 1, lv.w_east[i]);
    if (ix > 0) couple(i - 1, lv.w_east[i - 1]);
    if (iy + 1 < lv.ny) couple(i + nx, lv.w_north[i]);
    if (iy > 0) couple(i - nx, lv.w_north[i - nx]);
  }
  // In-place LU with partial pivoting.
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
    pivot_[k] = static_cast<int>(best);
    if (best != k) {
      for (std::size_t c = 0; c < n; ++c) std::swap(lu_[k * n + c], lu_[best * n + c]);
    }
    const Complex pv = lu_[k * n + k];
    if (std::abs(pv) == 0.0) continue;  // singular row: leave zero, solve skips it
    for (std::size_t r = k + 1; r < n; ++r) {
      const Complex m = lu_[r * n + k] / pv;
      lu_[r * n + k] = m;
      if (std::abs(m) == 0.0) continue;
      for (std::size_t c = k + 1; c < n; ++c) lu_[r * n + c] -= m * lu_[k * n + c];
    }
  }
}

Multigrid::Workspace Multigrid::make_workspace() const {
  Workspace ws;
  ws.x.resize(levels_.size());
  ws.r.resize(levels_.size());
  for (std::size_t l = 1; l < levels_.size(); ++l) {
    const std::size_t n = levels_[l].nx * levels_[l].ny;
    ws.x[l].assign(n, Complex{});
    ws.r[l].assign(n, Complex{});
  }
  ws.row.assign(levels_.front().nx, Complex{});
  ws.packed.assign(coarse_free_cells_.size(), Complex{});
  return ws;
}

void Multigrid::apply_smoother(const std::vector<Complex>& rhs, std::vector<Complex>& x,
                               int sweeps) const {
  const Level& lv = levels_.front();
  const std::size_t n = lv.nx * lv.ny;
  if (rhs.size() != n || x.size() != n) {
    throw std::invalid_argument("Multigrid::apply_smoother: vectors must be nx*ny");
  }
  // Establish the x[dirichlet] == 0 invariant the kernels rely on (v_cycle
  // maintains it internally; an external caller may not).
  for (std::size_t i = 0; i < n; ++i) {
    if (lv.dirichlet[i]) x[i] = Complex{};
  }
  const RowKernels k = row_kernels();
  for (int s = 0; s < sweeps; ++s) sweep(k, stencil_of(lv), rhs.data(), x.data());
}

void Multigrid::apply_residual(const std::vector<Complex>& rhs, const std::vector<Complex>& x,
                               std::vector<Complex>& out) const {
  const Level& lv = levels_.front();
  const std::size_t n = lv.nx * lv.ny;
  if (rhs.size() != n || x.size() != n || out.size() != n) {
    throw std::invalid_argument("Multigrid::apply_residual: vectors must be nx*ny");
  }
  const RowKernels k = row_kernels();
  const Stencil s = stencil_of(lv);
  for (std::size_t iy = 0; iy < lv.ny; ++iy) {
    k.residual(s, rhs.data(), x.data(), out.data() + iy * lv.nx, iy);
  }
}

void Multigrid::solve_coarsest(const Complex* rhs, Complex* x,
                               std::vector<Complex>& packed) const {
  const Level& lv = levels_.back();
  const std::size_t cells = lv.nx * lv.ny;
  std::fill_n(x, cells, Complex{});
  if (lu_.empty()) {
    // No factorization (degenerately large coarsest level): smooth hard.
    const RowKernels k = row_kernels();
    for (int s = 0; s < kFallbackSweeps; ++s) sweep(k, stencil_of(lv), rhs, x);
    return;
  }
  const std::size_t n = coarse_free_cells_.size();
  // Gather, permuted forward substitution, back substitution, scatter.
  std::vector<Complex>& y = packed;
  for (std::size_t row = 0; row < n; ++row) y[row] = rhs[coarse_free_cells_[row]];
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t p = static_cast<std::size_t>(pivot_[k]);
    if (p != k) std::swap(y[k], y[p]);
    for (std::size_t r = k + 1; r < n; ++r) y[r] -= lu_[r * n + k] * y[k];
  }
  for (std::size_t k = n; k-- > 0;) {
    for (std::size_t c = k + 1; c < n; ++c) y[k] -= lu_[k * n + c] * y[c];
    const Complex d = lu_[k * n + k];
    y[k] = std::abs(d) > 0.0 ? y[k] / d : Complex{};
  }
  for (std::size_t row = 0; row < n; ++row) x[coarse_free_cells_[row]] = y[row];
}

void Multigrid::v_cycle(const std::vector<Complex>& r, std::vector<Complex>& z,
                        Workspace& ws) const {
  const std::size_t n = levels_.front().nx * levels_.front().ny;
  if (r.size() != n || z.size() != n) {
    throw std::invalid_argument("Multigrid::v_cycle: vectors must be nx*ny");
  }
  const RowKernels k = row_kernels();
  const std::size_t depth = levels_.size();
  // Level 0 runs in the caller's vectors, coarser levels in the workspace.
  const auto rhs_at = [&](std::size_t l) { return l == 0 ? r.data() : ws.r[l].data(); };
  const auto x_at = [&](std::size_t l) { return l == 0 ? z.data() : ws.x[l].data(); };

  // Descend, one pass per level: the pre-sweep from zero (each row zeroed
  // just before its first read), and behind it the residual of every
  // finished row, restricted into the next level's right-hand side.
  for (std::size_t l = 0; l + 1 < depth; ++l) {
    const Level& lv = levels_[l];
    const Level& cv = levels_[l + 1];
    const Stencil s = stencil_of(lv);
    const Complex* rhs = rhs_at(l);
    Complex* x = x_at(l);
    sweep(
        k, s, rhs, x, [&](std::size_t iy) { std::fill_n(x + iy * lv.nx, lv.nx, Complex{}); },
        [&](std::size_t iy) {
          residual_restrict_row(k, s, rhs, x, ws.row.data(), cv.nx, cv.dirichlet.data(),
                                ws.r[l + 1].data(), iy);
        });
  }
  solve_coarsest(rhs_at(depth - 1), x_at(depth - 1), ws.packed);

  // Ascend: post-sweep, adding the piecewise-constant prolongation of the
  // coarse correction to each free black cell of a row just before the row's
  // first read. Red cells are skipped: the sweep overwrites them unread.
  for (std::size_t l = depth - 1; l-- > 0;) {
    const Level& lv = levels_[l];
    const std::size_t cnx = levels_[l + 1].nx;
    const Complex* xc = x_at(l + 1);
    Complex* x = x_at(l);
    const auto prolong_black = [&](std::size_t iy) {
      const Complex* crow = xc + (iy >> 1) * cnx;
      Complex* xrow = x + iy * lv.nx;
      const std::uint8_t* drow = lv.dirichlet.data() + iy * lv.nx;
      for (std::size_t ix = (kBlack + iy) % 2; ix < lv.nx; ix += 2) {
        if (!drow[ix]) xrow[ix] += crow[ix >> 1];
      }
    };
    sweep(k, stencil_of(lv), rhs_at(l), x, prolong_black, [](std::size_t) {});
  }
}

}  // namespace tsvcod::field
