#include "stats/bitplane.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "obs/obs.hpp"
#include "obs/profile.hpp"
#include "opt/parallel.hpp"
#include "simd/dispatch.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TSVCOD_STATS_X86_KERNELS 1
#include <immintrin.h>
#endif

namespace tsvcod::stats {

namespace {

constexpr std::uint64_t mask_of(std::size_t width) {
  return width >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
}

// ---------------------------------------------------------------------------
// Block reduction, compiled in up to four ISA flavors on x86-64 and selected
// per block at runtime: a portable baseline (std::popcount lowers to a ~15-op
// SWAR sequence), a POPCNT-instruction variant, an AVX2 variant and an
// AVX-512 variant that needs F + DQ + VPOPCNTDQ (Ice Lake and newer, plus
// Zen 4+). The default build targets the portable baseline so the binary
// still runs anywhere; every flavor consumes the same masked words and
// produces the same exact integer counts — bit-identical by construction,
// and cross-checked at every level by the stats oracle.
//
// Every flavor transposes one 64x64 bit matrix per block, the value words,
// and derives each toggle plane in plane space —
// TG_i = VAL_i ^ ((VAL_i << 1) | prev_bit_i) — because a plane's bit t-1
// neighbor within the plane *is* the line's previous value. The transpose
// itself is the six-stage block-swap network of transpose64, run on eight
// zmm registers at avx512 and sixteen ymm registers at avx2; VPOPCNTQ then
// reduces eight line pairs per instruction in the AVX-512 O(w^2) pair loop.
// ---------------------------------------------------------------------------

// Column masks of the six swap stages, j = 32, 16, 8, 4, 2, 1: the bits whose
// column index has bit j clear.
constexpr std::uint64_t kSwapMasks[6] = {
    0x00000000FFFFFFFFull, 0x0000FFFF0000FFFFull, 0x00FF00FF00FF00FFull,
    0x0F0F0F0F0F0F0F0Full, 0x3333333333333333ull, 0x5555555555555555ull,
};

// Hacker's-Delight-style recursive block swap, phrased in LSB-first
// coordinates: at step j the blocks (row bit-j clear, column bit-j set) and
// (row bit-j set, column bit-j clear) trade places, so the final bit t of
// a[i] is the original bit i of a[t]. The reference the vector forms must
// reproduce bit for bit.
void transpose64_scalar(std::uint64_t a[64]) {
  int m = 0;
  for (unsigned j = 32; j != 0; j >>= 1, ++m) {
    for (unsigned k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const std::uint64_t t = ((a[k] >> j) ^ a[k | j]) & kSwapMasks[m];
      a[k] ^= t << j;
      a[k | j] ^= t;
    }
  }
}

#if defined(__GNUC__) || defined(__clang__)
#define TSVCOD_ALWAYS_INLINE inline __attribute__((always_inline))
#define TSVCOD_POPC(x) __builtin_popcountll(x)
#else
#define TSVCOD_ALWAYS_INLINE inline
#define TSVCOD_POPC(x) std::popcount(x)
#endif

TSVCOD_ALWAYS_INLINE void reduce_block_body(std::size_t width, const std::uint64_t* tg,
                                            const std::uint64_t* val, SwitchingCounts& counts) {
  for (std::size_t i = 0; i < width; ++i) {
    counts.self[i] += static_cast<std::uint64_t>(TSVCOD_POPC(tg[i]));
    counts.ones[i] += static_cast<std::uint64_t>(TSVCOD_POPC(val[i]));
  }
  for (std::size_t i = 0; i < width; ++i) {
    const std::uint64_t tgi = tg[i];
    if (tgi == 0) continue;  // quiet line: every pair term is zero
    const std::uint64_t vali = val[i];
    std::int64_t* row = &counts.cross[i * width];
    for (std::size_t j = i + 1; j < width; ++j) {
      const std::uint64_t both = tgi & tg[j];
      if (both == 0) continue;
      const int opposite = TSVCOD_POPC(both & (vali ^ val[j]));
      row[j] += TSVCOD_POPC(both) - 2 * opposite;
    }
  }
}

/// One whole block: `block` is 64 masked post-transition words starting on a
/// block boundary, `prev` the masked word preceding block[0].
using BlockFn = void (*)(std::size_t, const std::uint64_t*, std::uint64_t, SwitchingCounts&);

/// The block body below AVX-512: one transpose of the value words, then the
/// toggle planes derived in plane space (see the dispatch comment).
template <void (*Transpose)(std::uint64_t*)>
TSVCOD_ALWAYS_INLINE void block_reduce_scalar_body(std::size_t width, const std::uint64_t* block,
                                                   std::uint64_t prev, SwitchingCounts& counts) {
  std::uint64_t val[64];
  std::uint64_t tg[64];
  std::memcpy(val, block, sizeof(val));
  Transpose(val);
  for (std::size_t i = 0; i < 64; ++i) tg[i] = val[i] ^ ((val[i] << 1) | ((prev >> i) & 1u));
  reduce_block_body(width, tg, val, counts);
}

void block_reduce_portable(std::size_t width, const std::uint64_t* block, std::uint64_t prev,
                           SwitchingCounts& counts) {
  block_reduce_scalar_body<transpose64_scalar>(width, block, prev, counts);
}

#if defined(TSVCOD_STATS_X86_KERNELS)
// The p-th index k with bit `step` clear (step a power of two): the low
// partner of the p-th pair (k, k | step) of a swap stage. Affine in p, so the
// compiler unrolls the stage loops below and keeps the registers in registers.
constexpr int pair_row(int p, int step) { return ((p & ~(step - 1)) << 1) | (p & (step - 1)); }

// transpose64_scalar's network with rows 4r..4r+3 in ymm register r. Stages
// 32 to 4 pair whole registers; stages 2 and 1 pair lanes l and l^j inside
// one register: the partner row arrives through a lane permutation, and each
// lane keeps its own column half (m for low rows, ~m for high rows) and takes
// the other half from the partner shifted into place.
__attribute__((target("avx2"))) void transpose64_avx2(std::uint64_t a[64]) {
  __m256i r[16];
  for (int k = 0; k < 16; ++k) {
    r[k] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + 4 * k));
  }
  for (int m = 0, j = 32; j >= 4; j >>= 1, ++m) {
    const __m256i mask = _mm256_set1_epi64x(static_cast<long long>(kSwapMasks[m]));
    const int step = j / 4;
    for (int p = 0; p < 8; ++p) {
      const int k = pair_row(p, step);
      const __m256i t =
          _mm256_and_si256(_mm256_xor_si256(_mm256_srli_epi64(r[k], j), r[k | step]), mask);
      r[k] = _mm256_xor_si256(r[k], _mm256_slli_epi64(t, j));
      r[k | step] = _mm256_xor_si256(r[k | step], t);
    }
  }
  for (int m = 4, j = 2; j != 0; j >>= 1, ++m) {
    const __m256i keep =
        j == 2 ? _mm256_set_epi64x(static_cast<long long>(~kSwapMasks[m]),
                                   static_cast<long long>(~kSwapMasks[m]),
                                   static_cast<long long>(kSwapMasks[m]),
                                   static_cast<long long>(kSwapMasks[m]))
               : _mm256_set_epi64x(static_cast<long long>(~kSwapMasks[m]),
                                   static_cast<long long>(kSwapMasks[m]),
                                   static_cast<long long>(~kSwapMasks[m]),
                                   static_cast<long long>(kSwapMasks[m]));
    for (int k = 0; k < 16; ++k) {
      // Lane l's partner is lane l^j: swap 128-bit halves (j = 2) or the two
      // 64-bit lanes of each half (j = 1).
      const __m256i p = j == 2 ? _mm256_permute4x64_epi64(r[k], 0x4E)
                               : _mm256_shuffle_epi32(r[k], 0x4E);
      const __m256i moved =
          j == 2 ? _mm256_blend_epi32(_mm256_slli_epi64(p, 2), _mm256_srli_epi64(p, 2), 0xF0)
                 : _mm256_blend_epi32(_mm256_slli_epi64(p, 1), _mm256_srli_epi64(p, 1), 0xCC);
      r[k] = _mm256_or_si256(_mm256_and_si256(keep, r[k]), _mm256_andnot_si256(keep, moved));
    }
  }
  for (int k = 0; k < 16; ++k) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + 4 * k), r[k]);
  }
}

__attribute__((target("popcnt"))) void block_reduce_popcnt(std::size_t width,
                                                           const std::uint64_t* block,
                                                           std::uint64_t prev,
                                                           SwitchingCounts& counts) {
  block_reduce_scalar_body<transpose64_scalar>(width, block, prev, counts);
}

__attribute__((target("avx2,popcnt"))) void block_reduce_avx2(std::size_t width,
                                                              const std::uint64_t* block,
                                                              std::uint64_t prev,
                                                              SwitchingCounts& counts) {
  block_reduce_scalar_body<transpose64_avx2>(width, block, prev, counts);
}

#if !defined(__clang__)
// GCC 12's AVX-512 intrinsics seed their unused source operands with a
// self-initialized `__m512i __Y = __Y;`, which -Wuninitialized reports once
// inlined here; those values are never read.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
// The same network with rows 8r..8r+7 in zmm register r: stages 32, 16 and 8
// pair whole registers, and stages 4, 2 and 1 pair lanes as transpose64_avx2
// does, with the shift direction picked per lane by a mask.
__attribute__((target("avx512f"))) void transpose64_avx512(std::uint64_t a[64]) {
  __m512i r[8];
  for (int k = 0; k < 8; ++k) r[k] = _mm512_loadu_si512(a + 8 * k);
  for (int m = 0, j = 32; j >= 8; j >>= 1, ++m) {
    const __m512i mask = _mm512_set1_epi64(static_cast<long long>(kSwapMasks[m]));
    const int step = j / 8;
    for (int p = 0; p < 4; ++p) {
      const int k = pair_row(p, step);
      const __m512i t = _mm512_and_si512(
          _mm512_xor_si512(_mm512_srli_epi64(r[k], static_cast<unsigned>(j)), r[k | step]), mask);
      r[k] = _mm512_xor_si512(r[k], _mm512_slli_epi64(t, static_cast<unsigned>(j)));
      r[k | step] = _mm512_xor_si512(r[k | step], t);
    }
  }
  for (int m = 3, j = 4; j != 0; j >>= 1, ++m) {
    const __m512i partner = _mm512_set_epi64(7 ^ j, 6 ^ j, 5 ^ j, 4 ^ j, 3 ^ j, 2 ^ j, 1 ^ j, j);
    // Lanes with bit j set hold the high rows of each pair.
    const __mmask8 high = j == 4 ? 0xF0 : j == 2 ? 0xCC : 0xAA;
    const __m512i keep = _mm512_mask_blend_epi64(
        high, _mm512_set1_epi64(static_cast<long long>(kSwapMasks[m])),
        _mm512_set1_epi64(static_cast<long long>(~kSwapMasks[m])));
    for (int k = 0; k < 8; ++k) {
      const __m512i p = _mm512_permutexvar_epi64(partner, r[k]);
      const __m512i moved = _mm512_mask_srli_epi64(_mm512_slli_epi64(p, static_cast<unsigned>(j)),
                                                   high, p, static_cast<unsigned>(j));
      r[k] = _mm512_ternarylogic_epi64(keep, r[k], moved, 0xCA);  // keep ? r : moved
    }
  }
  for (int k = 0; k < 8; ++k) _mm512_storeu_si512(a + 8 * k, r[k]);
}


__attribute__((target("avx512f,avx512dq,avx512vpopcntdq,popcnt"))) void block_reduce_avx512(
    std::size_t width, const std::uint64_t* block, std::uint64_t prev, SwitchingCounts& counts) {
  alignas(64) std::uint64_t val[64];
  alignas(64) std::uint64_t tg[64];
  std::memcpy(val, block, sizeof(val));
  transpose64_avx512(val);
  // Derive the toggle planes in plane space (see the dispatch comment): the
  // bit below a plane bit is the line's previous value, with `prev`
  // broadcasting the incoming word into every plane's bit 0. Planes at or
  // above `width` are all-zero (the words are masked), so deriving all 64 is
  // safe and keeps the loop branch-free.
  for (std::size_t i = 0; i < 64; i += 8) {
    const __m512i v = _mm512_load_si512(val + i);
    __m512i below = _mm512_slli_epi64(v, 1);
    below = _mm512_mask_or_epi64(below, static_cast<__mmask8>(prev >> i), below,
                                 _mm512_set1_epi64(1));
    _mm512_store_si512(tg + i, _mm512_xor_si512(v, below));
  }
  std::size_t i = 0;
  for (; i + 8 <= width; i += 8) {
    const __m512i po = _mm512_popcnt_epi64(_mm512_load_si512(val + i));
    const __m512i ps = _mm512_popcnt_epi64(_mm512_load_si512(tg + i));
    _mm512_storeu_si512(counts.ones.data() + i,
                        _mm512_add_epi64(_mm512_loadu_si512(counts.ones.data() + i), po));
    _mm512_storeu_si512(counts.self.data() + i,
                        _mm512_add_epi64(_mm512_loadu_si512(counts.self.data() + i), ps));
  }
  for (; i < width; ++i) {
    counts.ones[i] += static_cast<std::uint64_t>(__builtin_popcountll(val[i]));
    counts.self[i] += static_cast<std::uint64_t>(__builtin_popcountll(tg[i]));
  }
  if (width == 64) {
    // Full-width pair loop with no scalar edges: the first vector of each row
    // starts at the row's 8-aligned floor with the lanes j <= r zeroed — they
    // land on unused lower-triangle cross slots and add 0.
    for (std::size_t r = 0; r < 63; ++r) {
      const std::uint64_t tgr = tg[r];
      if (tgr == 0) continue;  // quiet line: every pair term is zero
      const __m512i vtgr = _mm512_set1_epi64(static_cast<long long>(tgr));
      const __m512i vvalr = _mm512_set1_epi64(static_cast<long long>(val[r]));
      std::int64_t* row = counts.cross.data() + r * 64;
      const std::size_t j0 = (r + 1) & ~std::size_t{7};
      {
        const __mmask8 keep = static_cast<__mmask8>(0xFFu << ((r + 1) - j0));
        const __m512i both = _mm512_and_si512(vtgr, _mm512_load_si512(tg + j0));
        const __m512i opp =
            _mm512_and_si512(both, _mm512_xor_si512(vvalr, _mm512_load_si512(val + j0)));
        __m512i cnt = _mm512_sub_epi64(_mm512_popcnt_epi64(both),
                                       _mm512_slli_epi64(_mm512_popcnt_epi64(opp), 1));
        cnt = _mm512_maskz_mov_epi64(keep, cnt);
        _mm512_storeu_si512(row + j0, _mm512_add_epi64(_mm512_loadu_si512(row + j0), cnt));
      }
      for (std::size_t j = j0 + 8; j < 64; j += 8) {
        const __m512i both = _mm512_and_si512(vtgr, _mm512_load_si512(tg + j));
        const __m512i opp =
            _mm512_and_si512(both, _mm512_xor_si512(vvalr, _mm512_load_si512(val + j)));
        const __m512i cnt = _mm512_sub_epi64(_mm512_popcnt_epi64(both),
                                             _mm512_slli_epi64(_mm512_popcnt_epi64(opp), 1));
        _mm512_storeu_si512(row + j, _mm512_add_epi64(_mm512_loadu_si512(row + j), cnt));
      }
    }
  } else {
    // Narrower arrays: scalar peel to 8-alignment, vector middle, scalar
    // tail. Vector stores stay strictly inside the row (j + 8 <= width).
    for (std::size_t r = 0; r + 1 < width; ++r) {
      const std::uint64_t tgr = tg[r];
      if (tgr == 0) continue;
      const std::uint64_t valr = val[r];
      std::int64_t* row = counts.cross.data() + r * width;
      std::size_t j = r + 1;
      for (; j < width && (j & 7) != 0; ++j) {
        const std::uint64_t both = tgr & tg[j];
        if (both == 0) continue;
        const int opposite = __builtin_popcountll(both & (valr ^ val[j]));
        row[j] += __builtin_popcountll(both) - 2 * opposite;
      }
      const __m512i vtgr = _mm512_set1_epi64(static_cast<long long>(tgr));
      const __m512i vvalr = _mm512_set1_epi64(static_cast<long long>(valr));
      for (; j + 8 <= width; j += 8) {
        const __m512i both = _mm512_and_si512(vtgr, _mm512_load_si512(tg + j));
        const __m512i opp =
            _mm512_and_si512(both, _mm512_xor_si512(vvalr, _mm512_load_si512(val + j)));
        const __m512i cnt = _mm512_sub_epi64(_mm512_popcnt_epi64(both),
                                             _mm512_slli_epi64(_mm512_popcnt_epi64(opp), 1));
        _mm512_storeu_si512(row + j, _mm512_add_epi64(_mm512_loadu_si512(row + j), cnt));
      }
      for (; j < width; ++j) {
        const std::uint64_t both = tgr & tg[j];
        if (both == 0) continue;
        const int opposite = __builtin_popcountll(both & (valr ^ val[j]));
        row[j] += __builtin_popcountll(both) - 2 * opposite;
      }
    }
  }
}
#if !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#endif  // TSVCOD_STATS_X86_KERNELS

// Resolved per block batch through the shared dispatch utility so a
// TSVCOD_SIMD / force_level() clamp takes effect immediately (the old
// function-local static froze the choice at first use). The counters are
// exact integers, so every level is bit-identical by construction; the clamp
// only trades speed.
BlockFn block_fn() {
  switch (simd::active_level()) {
#if defined(TSVCOD_STATS_X86_KERNELS)
    case simd::Level::avx512:
      return &block_reduce_avx512;
    case simd::Level::avx2:
      return &block_reduce_avx2;
    case simd::Level::popcnt:
      return &block_reduce_popcnt;
#endif
    default:
      return &block_reduce_portable;
  }
}

[[noreturn]] void throw_too_few_words(std::size_t width, std::uint64_t words) {
  std::ostringstream os;
  os << "switching stats: need at least 2 words to estimate transition statistics, have "
     << words << " (width " << width << ")";
  throw std::logic_error(os.str());
}

}  // namespace

void transpose64(std::uint64_t a[64]) {
  switch (simd::active_level()) {
#if defined(TSVCOD_STATS_X86_KERNELS)
    case simd::Level::avx512:
      transpose64_avx512(a);
      return;
    case simd::Level::avx2:
      transpose64_avx2(a);
      return;
#endif
    default:
      transpose64_scalar(a);
  }
}

SwitchingCounts::SwitchingCounts(std::size_t w)
    : width(w), ones(w, 0), self(w, 0), cross(w * w, 0) {}

void SwitchingCounts::merge(const SwitchingCounts& other) {
  if (other.width != width) {
    throw std::invalid_argument("SwitchingCounts::merge: width mismatch");
  }
  words += other.words;
  transitions += other.transitions;
  for (std::size_t i = 0; i < width; ++i) {
    ones[i] += other.ones[i];
    self[i] += other.self[i];
  }
  for (std::size_t k = 0; k < cross.size(); ++k) cross[k] += other.cross[k];
}

SwitchingStats SwitchingCounts::finalize() const {
  if (words < 2) throw_too_few_words(width, words);
  SwitchingStats s;
  s.width = width;
  s.transitions = static_cast<std::size_t>(transitions);
  const double nt = static_cast<double>(transitions);
  const double nw = static_cast<double>(words);
  s.self.resize(width);
  s.prob_one.resize(width);
  s.coupling = phys::Matrix(width, width);
  for (std::size_t i = 0; i < width; ++i) {
    s.self[i] = static_cast<double>(self[i]) / nt;
    s.prob_one[i] = static_cast<double>(ones[i]) / nw;
    s.coupling(i, i) = s.self[i];
    for (std::size_t j = i + 1; j < width; ++j) {
      const double c = static_cast<double>(at(i, j)) / nt;
      s.coupling(i, j) = c;
      s.coupling(j, i) = c;
    }
  }
  return s;
}

StatsAccumulator::StatsAccumulator(std::size_t width)
    : width_(width), mask_(mask_of(width)), counts_(width) {
  if (width == 0 || width > 64) {
    throw std::invalid_argument("StatsAccumulator: width must be in [1, 64]");
  }
}

StatsAccumulator::StatsAccumulator(std::size_t width, std::uint64_t seam)
    : StatsAccumulator(width) {
  prev_ = seam & mask_;
  block_prev_ = prev_;
  chained_ = true;
}

void StatsAccumulator::add(std::uint64_t word) {
  word &= mask_;
  if (!chained_) {
    // First word: its bits count toward `ones`, but there is no transition
    // yet, so it never enters a block.
    for (std::uint64_t v = word; v != 0; v &= v - 1) {
      ++counts_.ones[static_cast<std::size_t>(std::countr_zero(v))];
    }
    ++counts_.words;
    prev_ = word;
    block_prev_ = word;
    samples_ = 1;
    chained_ = true;
    return;
  }
  block_[n_++] = word;
  prev_ = word;
  ++samples_;
  if (n_ == 64) flush_block();
}

void StatsAccumulator::add(std::span<const std::uint64_t> words) {
  std::size_t k = 0;
  const std::size_t n = words.size();
  while (k < n) {
    // On a block boundary with a full block available, reduce straight from
    // the caller's buffer instead of staging 64 words through block_.
    if (n_ == 0 && chained_ && n - k >= 64) {
      const std::uint64_t* src = words.data() + k;
      if (mask_ == ~std::uint64_t{0}) {
        flush_from(src);
      } else {
        std::uint64_t masked[64];
        for (std::size_t t = 0; t < 64; ++t) masked[t] = src[t] & mask_;
        flush_from(masked);
      }
      samples_ += 64;
      k += 64;
    } else {
      add(words[k++]);
    }
  }
}

void StatsAccumulator::add_repeated(std::uint64_t word, std::uint64_t count) {
  word &= mask_;
  if (count > 0 && (!chained_ || word != prev_)) {
    add(word);
    --count;
  }
  if (count == 0) return;
  // A copy of prev_ toggles nothing, so it adds to `ones`, `words` and
  // `transitions` only. Counting it straight into counts_ leaves the
  // buffered block as it was: its next word transitions from prev_ either
  // way.
  for (std::uint64_t v = word; v != 0; v &= v - 1) {
    counts_.ones[static_cast<std::size_t>(std::countr_zero(v))] += count;
  }
  counts_.words += count;
  counts_.transitions += count;
  samples_ += count;
}

void StatsAccumulator::flush_block() {
  flush_from(block_);
  n_ = 0;
}

void StatsAccumulator::flush_from(const std::uint64_t* block) {
  block_fn()(width_, block, block_prev_, counts_);
  counts_.words += 64;
  counts_.transitions += 64;
  block_prev_ = block[63];
  prev_ = block_prev_;
  ++blocks_;
}

SwitchingCounts StatsAccumulator::counts() const {
  SwitchingCounts out = counts_;
  if (n_ == 0) return out;
  // The buffered partial block goes through the block kernel too, padded
  // to 64 words with repeats of its last word. A repeat toggles nothing, so
  // the padding adds only to `ones`, which is taken back out; `words` and
  // `transitions` count the real tail alone.
  std::uint64_t padded[64];
  std::memcpy(padded, block_, n_ * sizeof(std::uint64_t));
  const std::uint64_t last = block_[n_ - 1];
  std::fill(padded + n_, padded + 64, last);
  block_fn()(width_, padded, block_prev_, out);
  for (std::uint64_t v = last; v != 0; v &= v - 1) {
    out.ones[static_cast<std::size_t>(std::countr_zero(v))] -= 64 - n_;
  }
  out.words += n_;
  out.transitions += n_;
  return out;
}

namespace {

/// Counts of `words`; when `seamed`, the transition chain starts at `seam`
/// (the last word of the preceding chunk, whose one-bits that chunk already
/// counted) and every word of `words` is a transition target. 0- and 1-word
/// spans yield partial counts instead of throwing: chunk counts merge into a
/// whole-stream total, so the >= 2 words rule only applies to the final
/// counts (finalize() enforces it). Bit-identical at every thread count.
SwitchingCounts count_chunk(bool seamed, std::uint64_t seam, std::span<const std::uint64_t> words,
                            std::size_t width, int threads) {
  if (width == 0 || width > 64) {
    throw std::invalid_argument("compute_counts: width must be in [1, 64]");
  }
  if (words.empty()) return SwitchingCounts(width);

  obs::Span span("stats.compute");

  // Virtual word sequence S: the seam word (when seamed) followed by
  // `words`. Transition t is S[t] -> S[t+1]; only unseamed chunk 0 counts
  // S[0]'s one-bits, matching the streaming accumulator exactly.
  const std::size_t transitions = words.size() - (seamed ? 0 : 1);
  // One chunk per resolved thread, but never so many that a chunk drops
  // below a useful run of blocks; the merge is exact, so the chunk count
  // only affects speed, never the result.
  constexpr std::size_t min_chunk_transitions = 1024;
  const std::size_t k = static_cast<std::size_t>(std::max(1, opt::resolve_threads(threads)));
  const std::size_t chunks =
      std::clamp<std::size_t>(transitions / min_chunk_transitions, 1, k);

  // Chunk c owns transitions [tb, te): its chain starts at the seam word
  // S[tb] (whose bits were already counted upstream) and it consumes
  // S(tb, te]. Ones and transitions both partition exactly.
  const auto run_chunk = [&](std::size_t tb, std::size_t te) {
    if (!seamed && tb == 0) {
      StatsAccumulator acc(width);
      acc.add(words.subspan(0, te + 1));
      return acc;
    }
    StatsAccumulator acc(width, seamed ? (tb == 0 ? seam : words[tb - 1]) : words[tb]);
    acc.add(words.subspan(seamed ? tb : tb + 1, te - tb));
    return acc;
  };

  std::uint64_t blocks = 0;
  std::uint64_t tail_words = 0;
  SwitchingCounts total(width);
  if (chunks == 1) {
    const StatsAccumulator acc = run_chunk(0, transitions);
    total = acc.counts();
    blocks = acc.blocks_flushed();
    tail_words = acc.pending();
  } else {
    std::vector<SwitchingCounts> partial(chunks);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> meta(chunks);
    opt::parallel_for(chunks, static_cast<int>(k), [&](std::size_t c) {
      const std::size_t tb = transitions * c / chunks;
      const std::size_t te = transitions * (c + 1) / chunks;
      const StatsAccumulator acc = run_chunk(tb, te);
      partial[c] = acc.counts();
      meta[c] = {acc.blocks_flushed(), acc.pending()};
    });
    total = std::move(partial[0]);
    for (std::size_t c = 1; c < chunks; ++c) total.merge(partial[c]);
    for (const auto& [b, p] : meta) {
      blocks += b;
      tail_words += p;
    }
  }

  obs::profile_work("words", words.size());
  // blocks, chunks and tail_words describe how the work was split, so past
  // one chunk they follow the thread count; words is the invariant total.
  obs::profile_work("blocks", blocks);
  obs::profile_work("chunks", chunks);
  if (tail_words > 0) obs::profile_work("tail_words", tail_words);
  return total;
}

}  // namespace

SwitchingCounts compute_counts(std::span<const std::uint64_t> words, std::size_t width,
                               int threads) {
  if (words.size() < 2 && !(width == 0 || width > 64)) {
    throw_too_few_words(width, words.size());
  }
  return count_chunk(false, 0, words, width, threads);
}

ChunkFolder::ChunkFolder(std::size_t width, int threads)
    : width_(width), threads_(threads), total_(width) {
  if (width == 0 || width > 64) {
    throw std::invalid_argument("ChunkFolder: width must be in [1, 64], got " +
                                std::to_string(width));
  }
}

void ChunkFolder::fold(std::span<const std::uint64_t> chunk) {
  // Seam-chain invariant: an empty chunk carries no words and no
  // transitions, so it must not touch the seam (chunk.back() on an empty
  // span is UB, and even a masked read here would desync every later chunk).
  if (chunk.empty()) return;
  total_.merge(count_chunk(primed_, seam_, chunk, width_, threads_));
  seam_ = chunk.back();
  primed_ = true;
}

void ChunkFolder::reset_window() {
  // Keep the seam: the next window's first word still transitions from the
  // previous window's last word, so tumbling windows merge back to the
  // exact whole-stream counts.
  total_ = SwitchingCounts(width_);
}

}  // namespace tsvcod::stats
