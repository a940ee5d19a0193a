#include "core/evaluator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "simd/dispatch.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TSVCOD_EVAL_X86_KERNELS 1
#include <immintrin.h>
#endif

namespace tsvcod::core {

// ---------------------------------------------------------------------------
// Row reduction kernel. Every O(N) update of the evaluator is built from
//
//   S = sum_j (sa + self[j] - 2 ga sign[j] coup[j]) * (cref[j] + dc[j] (ea + eps[j]))
//
// over the contiguous per-line arrays: `coup` is the line-space coupling row
// of the bit being priced, `cref`/`dc` the model rows of the line it sits on
// (model rows never move — they are line geometry), and (sa, ea, ga) the
// self/eps/sign parameters of that bit, broadcast. Lanes the caller must
// exclude (the diagonal, the partner line of a swap) are subtracted back
// scalar-wise with the same per-lane formula; the vector clones reassociate
// the reduction and contract to FMA, so results differ from scalar only at
// eps scale (the evaluator_drift oracle bounds it).
// ---------------------------------------------------------------------------

struct detail::RowArgs {
  const double* self;
  const double* eps;
  const double* sign;
  const double* coup;  ///< line-space coupling row of the priced bit
  const double* cref;  ///< model rows of the priced line
  const double* dc;
  std::size_t n;
  double sa, ea, ga;  ///< broadcast self / eps / sign of the priced bit
};

namespace {

using detail::RowArgs;

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
constexpr double kNotCached = std::numeric_limits<double>::quiet_NaN();

inline double row_lane(const RowArgs& a, std::size_t j) {
  return (a.sa + a.self[j] - 2.0 * a.ga * a.sign[j] * a.coup[j]) *
         (a.cref[j] + a.dc[j] * (a.ea + a.eps[j]));
}

double row_sum_scalar(const RowArgs& a) {
  double acc = 0.0;
  for (std::size_t j = 0; j < a.n; ++j) acc += row_lane(a, j);
  return acc;
}

#if defined(TSVCOD_EVAL_X86_KERNELS)

__attribute__((target("avx2,fma"))) double row_sum_avx2(const RowArgs& a) {
  const __m256d vsa = _mm256_set1_pd(a.sa);
  const __m256d vea = _mm256_set1_pd(a.ea);
  const __m256d vg2 = _mm256_set1_pd(-2.0 * a.ga);
  __m256d acc = _mm256_setzero_pd();
  std::size_t j = 0;
  for (; j + 4 <= a.n; j += 4) {
    const __m256d t = _mm256_add_pd(
        _mm256_add_pd(vsa, _mm256_loadu_pd(a.self + j)),
        _mm256_mul_pd(vg2,
                      _mm256_mul_pd(_mm256_loadu_pd(a.sign + j), _mm256_loadu_pd(a.coup + j))));
    const __m256d c =
        _mm256_fmadd_pd(_mm256_loadu_pd(a.dc + j), _mm256_add_pd(vea, _mm256_loadu_pd(a.eps + j)),
                        _mm256_loadu_pd(a.cref + j));
    acc = _mm256_fmadd_pd(t, c, acc);
  }
  // Fixed lane-combining order: (l0+l2) + (l1+l3), then low + high.
  const __m128d lo = _mm256_castpd256_pd128(acc);
  const __m128d hi = _mm256_extractf128_pd(acc, 1);
  const __m128d pair = _mm_add_pd(lo, hi);
  double r = _mm_cvtsd_f64(pair) + _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
  for (; j < a.n; ++j) r += row_lane(a, j);
  return r;
}

#if !defined(__clang__)
// GCC 12's _mm512_reduce_add_pd extracts halves through an intrinsic whose
// unused pass-through operand is a self-initialized `__Y = __Y;`, which
// -Wuninitialized reports once inlined here; that value is never read.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
__attribute__((target("avx512f,avx512dq"))) double row_sum_avx512(const RowArgs& a) {
  const __m512d vsa = _mm512_set1_pd(a.sa);
  const __m512d vea = _mm512_set1_pd(a.ea);
  const __m512d vg2 = _mm512_set1_pd(-2.0 * a.ga);
  __m512d acc = _mm512_setzero_pd();
  std::size_t j = 0;
  for (; j + 8 <= a.n; j += 8) {
    const __m512d t = _mm512_add_pd(
        _mm512_add_pd(vsa, _mm512_loadu_pd(a.self + j)),
        _mm512_mul_pd(vg2,
                      _mm512_mul_pd(_mm512_loadu_pd(a.sign + j), _mm512_loadu_pd(a.coup + j))));
    const __m512d c =
        _mm512_fmadd_pd(_mm512_loadu_pd(a.dc + j), _mm512_add_pd(vea, _mm512_loadu_pd(a.eps + j)),
                        _mm512_loadu_pd(a.cref + j));
    acc = _mm512_fmadd_pd(t, c, acc);
  }
  // _mm512_reduce_add_pd has a fixed tree order per the intrinsic contract.
  double r = _mm512_reduce_add_pd(acc);
  for (; j < a.n; ++j) r += row_lane(a, j);
  return r;
}
#if !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // TSVCOD_EVAL_X86_KERNELS

using RowFn = double (*)(const RowArgs&);

RowFn resolve_row_fn() {
#if defined(TSVCOD_EVAL_X86_KERNELS)
  switch (simd::active_level()) {
    case simd::Level::avx512:
      return &row_sum_avx512;
    case simd::Level::avx2:
      return &row_sum_avx2;
    default:
      break;
  }
#endif
  return &row_sum_scalar;
}

}  // namespace

PowerEvaluator::PowerEvaluator(const stats::SwitchingStats& bit_stats,
                               const tsv::LinearCapacitanceModel& model,
                               SignedPermutation initial)
    : bits_(bit_stats), model_(model), assignment_(std::move(initial)) {
  reset(assignment_);
}

void PowerEvaluator::reset(SignedPermutation assignment) {
  assignment_ = std::move(assignment);
  const std::size_t n = bits_.width;
  if (model_.size() != n || assignment_.size() != n) {
    throw std::invalid_argument("PowerEvaluator: size mismatch");
  }
  n_ = n;
  line_self_.resize(n);
  line_eps_.resize(n);
  line_sign_.resize(n);
  for (std::size_t l = 0; l < n; ++l) refresh_line(l);
  rebuild_line_coupling();
  power_ = recompute();
  row_fn_ = resolve_row_fn();
  terms_cache_.assign(n, {kNotCached, 0.0, 0.0});
}

void PowerEvaluator::refresh_line(std::size_t line) {
  const std::size_t bit = assignment_.bit_of_line(line);
  const bool inv = assignment_.inverted(bit);
  line_self_[line] = bits_.self[bit];
  const double p = inv ? 1.0 - bits_.prob_one[bit] : bits_.prob_one[bit];
  line_eps_[line] = p - 0.5;
  line_sign_[line] = inv ? -1.0 : 1.0;
}

void PowerEvaluator::rebuild_line_coupling() {
  coup_line_.resize(n_ * n_);
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t bi = assignment_.bit_of_line(i);
    double* row = coup_line_.data() + i * n_;
    for (std::size_t j = 0; j < n_; ++j) row[j] = bits_.coupling(bi, assignment_.bit_of_line(j));
  }
}

void PowerEvaluator::swap_coupling_lines(std::size_t la, std::size_t lb) {
  // coup_line_ is the coupling matrix conjugated by the line<->bit
  // permutation; transposing two lines swaps the corresponding row pair and
  // column pair (symmetry keeps the 2x2 block consistent).
  double* ra = coup_line_.data() + la * n_;
  double* rb = coup_line_.data() + lb * n_;
  for (std::size_t j = 0; j < n_; ++j) std::swap(ra[j], rb[j]);
  for (std::size_t i = 0; i < n_; ++i) {
    std::swap(coup_line_[i * n_ + la], coup_line_[i * n_ + lb]);
  }
}

namespace {

// Out of line and cold, so that check_bit's compare inlines into score().
[[noreturn, gnu::cold, gnu::noinline]] void throw_bad_bit(std::size_t bit, std::size_t n,
                                                         const char* fn) {
  std::ostringstream os;
  os << "PowerEvaluator::" << fn << ": bit index " << bit << " out of range for width " << n;
  throw std::out_of_range(os.str());
}

}  // namespace

inline void PowerEvaluator::check_bit(std::size_t bit, const char* fn) const {
  if (bit >= n_) throw_bad_bit(bit, n_, fn);
}

double PowerEvaluator::c_prime(std::size_t li, std::size_t lj) const {
  return model_.c_ref()(li, lj) + model_.delta_c()(li, lj) * (line_eps_[li] + line_eps_[lj]);
}

double PowerEvaluator::k_coupling(std::size_t li, std::size_t lj) const {
  return line_sign_[li] * line_sign_[lj] * coup_line_[li * n_ + lj];
}

double PowerEvaluator::recompute() const {
  const std::size_t n = n_;
  double p = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    p += line_self_[i] * c_prime(i, i);
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      p += (line_self_[i] - k_coupling(i, j)) * c_prime(i, j);
    }
  }
  return p;
}

RowArgs PowerEvaluator::current_row(std::size_t line) const {
  return {line_self_.data(),
          line_eps_.data(),
          line_sign_.data(),
          coup_line_.data() + line * n_,
          model_.c_ref().data().data() + line * n_,
          model_.delta_c().data().data() + line * n_,
          n_,
          line_self_[line],
          line_eps_[line],
          line_sign_[line]};
}

const PowerEvaluator::LineTerms& PowerEvaluator::line_terms(std::size_t line) const {
  // A genuine NaN sum reads as "not cached" and is recomputed, to the same bits.
  LineTerms& t = terms_cache_[line];
  if (std::isnan(t.total)) {
    const RowArgs args = current_row(line);
    t.row = row_fn_(args) - row_lane(args, line);
    t.ground = line_self_[line] * c_prime(line, line);
    t.total = t.row + t.ground;
  }
  return t;
}

double PowerEvaluator::terms_involving(std::size_t la, std::size_t lb) const {
  // Ordered-pair algebra: pair {i,j} contributes (self_i + self_j - 2k) C_ij
  // once; the row kernel sums every lane, so the diagonal lane is swapped
  // out for the ground term, and the duplicate {la,lb} lane of the second
  // row is subtracted (the first row already counted the pair). Only that
  // pair lane is computed here; the rest comes from the line cache.
  const LineTerms& a = line_terms(la);
  if (lb == kNone) return a.total;
  const LineTerms& b = line_terms(lb);
  return a.total + ((b.row - row_lane(current_row(lb), la)) + b.ground);
}

double PowerEvaluator::swap_bits(std::size_t bit_a, std::size_t bit_b) {
  check_bit(bit_a, "swap_bits");
  check_bit(bit_b, "swap_bits");
  if (bit_a == bit_b) return power_;
  const double before =
      terms_involving(assignment_.line_of_bit(bit_a), assignment_.line_of_bit(bit_b));
  return commit({false, bit_a, bit_b}, before);
}

double PowerEvaluator::toggle_inversion(std::size_t bit) {
  check_bit(bit, "toggle_inversion");
  return commit({true, bit, 0}, terms_involving(assignment_.line_of_bit(bit), kNone));
}

double PowerEvaluator::apply(const Move& m, const Score& scored) {
  if (!m.is_toggle && m.a == m.b) return power_;
  return commit(m, scored.before);
}

double PowerEvaluator::commit(const Move& m, double before) {
  for (LineTerms& t : terms_cache_) t.total = kNotCached;
  if (m.is_toggle) {
    const std::size_t l = assignment_.line_of_bit(m.a);
    assignment_.toggle_inversion(m.a);
    refresh_line(l);
    power_ += terms_involving(l, kNone) - before;
    return power_;
  }
  const std::size_t la = assignment_.line_of_bit(m.a);
  const std::size_t lb = assignment_.line_of_bit(m.b);
  assignment_.swap_bits(m.a, m.b);
  refresh_line(la);
  refresh_line(lb);
  swap_coupling_lines(la, lb);
  power_ += terms_involving(la, lb) - before;
  return power_;
}

PowerEvaluator::Score PowerEvaluator::score(const Move& m) const {
  const RowFn fn = row_fn_;
  const double* self = line_self_.data();
  const double* eps = line_eps_.data();
  const double* sign = line_sign_.data();
  const double* coup = coup_line_.data();
  const double* cref = model_.c_ref().data().data();
  const double* dc = model_.delta_c().data().data();

  if (m.is_toggle) {
    check_bit(m.a, "score");
    const std::size_t l = assignment_.line_of_bit(m.a);
    const double sl = self[l], el = eps[l], gl = sign[l];
    // A toggle flips (eps, sign) of one line; self and the coupling gather
    // are untouched. The "after" row sum runs over the *current* arrays with
    // the line's flipped parameters broadcast, so only the j == l lane is
    // stale — exactly the lane the sum excludes anyway.
    const double before = terms_involving(l, kNone);
    const RowArgs nxt{self, eps, sign, coup + l * n_, cref + l * n_, dc + l * n_,
                      n_,   sl,  -el,  -gl};
    const double ground_after = sl * (cref[l * n_ + l] + dc[l * n_ + l] * (-el + -el));
    const double after = fn(nxt) - row_lane(nxt, l) + ground_after;
    return {power_ + (after - before), before};
  }
  check_bit(m.a, "score");
  check_bit(m.b, "score");
  if (m.a == m.b) return {power_, 0.0};
  const std::size_t la = assignment_.line_of_bit(m.a);
  const std::size_t lb = assignment_.line_of_bit(m.b);
  const double before = terms_involving(la, lb);
  // After the swap, line la carries lb's current (self, eps, sign) triple
  // and lb's coupling row (and vice versa); the model rows stay put. The
  // two row sums are therefore priced from the current arrays with the
  // partner's row/parameters, and only the j == la / j == lb lanes are
  // stale: both diagonals drop out, and the {la,lb} pair lane is re-added
  // once with its true post-swap value.
  const double sa = self[lb], ea = eps[lb], ga = sign[lb];  // new la triple
  const double sb = self[la], eb = eps[la], gb = sign[la];  // new lb triple
  const RowArgs a1{self, eps, sign, coup + lb * n_, cref + la * n_, dc + la * n_,
                   n_,   sa,  ea,   ga};
  const RowArgs a2{self, eps, sign, coup + la * n_, cref + lb * n_, dc + lb * n_,
                   n_,   sb,  eb,   gb};
  const double pair = (sa + sb - 2.0 * (ga * gb) * coup[lb * n_ + la]) *
                      (cref[la * n_ + lb] + dc[la * n_ + lb] * (ea + eb));
  const double ground_a = sa * (cref[la * n_ + la] + dc[la * n_ + la] * (ea + ea));
  const double ground_b = sb * (cref[lb * n_ + lb] + dc[lb * n_ + lb] * (eb + eb));
  const double after = fn(a1) - row_lane(a1, la) - row_lane(a1, lb) + pair + ground_a +
                       fn(a2) - row_lane(a2, lb) - row_lane(a2, la) + ground_b;
  return {power_ + (after - before), before};
}

}  // namespace tsvcod::core
