#include "stats/bitplane.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "obs/obs.hpp"
#include "obs/profile.hpp"
#include "opt/parallel.hpp"
#include "simd/dispatch.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TSVCOD_HAVE_AVX512_KERNEL 1
#include <immintrin.h>
#endif

namespace tsvcod::stats {

namespace {

constexpr std::uint64_t mask_of(std::size_t width) {
  return width >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
}

// ---------------------------------------------------------------------------
// Block reduction, compiled in up to three ISA flavors on x86-64 and selected
// once at runtime: a portable baseline (std::popcount lowers to a ~15-op SWAR
// sequence), a POPCNT-instruction variant, and an AVX-512 variant that needs
// F + DQ + VPOPCNTDQ (Ice Lake and newer, plus Zen 4+). The default build
// targets the portable baseline so the binary still runs anywhere; the
// dispatch is per 64-transition block, so every flavor consumes the same
// masked words and produces the same exact integer counts — bit-identical by
// construction, and cross-checked by the stats oracle.
//
// The AVX-512 flavor additionally restructures the block: instead of
// materializing toggle words and transposing *two* 64x64 bit matrices, it
// transposes only the value matrix and derives each toggle plane in plane
// space — TG_i = VAL_i ^ ((VAL_i << 1) | prev_bit_i) — because a plane's bit
// t-1 neighbor within the plane *is* the line's previous value. That halves
// the (scalar) transpose work, and VPOPCNTQ reduces eight line pairs per
// instruction in the O(w^2) pair loop.
// ---------------------------------------------------------------------------

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

TSVCOD_ALWAYS_INLINE void block_reduce_scalar_body(std::size_t width, const std::uint64_t* block,
                                                   std::uint64_t prev, SwitchingCounts& counts) {
  // Toggle planes from consecutive XORs; value planes are the words
  // themselves (for a toggled line, direction == new value).
  std::uint64_t tg[64];
  std::uint64_t val[64];
  std::uint64_t before = prev;
  for (std::size_t t = 0; t < 64; ++t) {
    val[t] = block[t];
    tg[t] = block[t] ^ before;
    before = block[t];
  }
  transpose64(tg);
  transpose64(val);
  reduce_block_body(width, tg, val, counts);
}

void block_reduce_portable(std::size_t width, const std::uint64_t* block, std::uint64_t prev,
                           SwitchingCounts& counts) {
  block_reduce_scalar_body(width, block, prev, counts);
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
__attribute__((target("popcnt"))) void block_reduce_popcnt(std::size_t width,
                                                           const std::uint64_t* block,
                                                           std::uint64_t prev,
                                                           SwitchingCounts& counts) {
  block_reduce_scalar_body(width, block, prev, counts);
}
#endif

#if defined(TSVCOD_HAVE_AVX512_KERNEL)
__attribute__((target("avx512f,avx512dq,avx512vpopcntdq,popcnt"))) void block_reduce_avx512(
    std::size_t width, const std::uint64_t* block, std::uint64_t prev, SwitchingCounts& counts) {
  alignas(64) std::uint64_t val[64];
  alignas(64) std::uint64_t tg[64];
  std::memcpy(val, block, sizeof(val));
  transpose64(val);
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
#endif  // TSVCOD_HAVE_AVX512_KERNEL

// Resolved per block batch through the shared dispatch utility so a
// TSVCOD_SIMD / force_level() clamp takes effect immediately (the old
// function-local static froze the choice at first use). The counters are
// exact integers, so every level is bit-identical by construction; the clamp
// only trades speed.
BlockFn block_fn() {
  switch (simd::active_level()) {
#if defined(TSVCOD_HAVE_AVX512_KERNEL)
    case simd::Level::avx512:
      return &block_reduce_avx512;
#endif
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    case simd::Level::avx2:
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
  // Hacker's-Delight-style recursive block swap, phrased in LSB-first
  // coordinates: at step j the blocks (row bit-j clear, column bit-j set) and
  // (row bit-j set, column bit-j clear) trade places, so the final bit t of
  // a[i] is the original bit i of a[t].
  static constexpr std::uint64_t masks[6] = {
      0x00000000FFFFFFFFull,  // j = 32: column indices with bit 5 clear
      0x0000FFFF0000FFFFull,  // j = 16
      0x00FF00FF00FF00FFull,  // j = 8
      0x0F0F0F0F0F0F0F0Full,  // j = 4
      0x3333333333333333ull,  // j = 2
      0x5555555555555555ull,  // j = 1
  };
  int m = 0;
  for (unsigned j = 32; j != 0; j >>= 1, ++m) {
    for (unsigned k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const std::uint64_t t = ((a[k] >> j) ^ a[k | j]) & masks[m];
      a[k] ^= t << j;
      a[k | j] ^= t;
    }
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
  // Scalar tail: the buffered partial block (and thereby every < 64 word
  // stream). Walking set bits keeps even the tail O(toggles) per word.
  std::uint64_t before = block_prev_;
  for (std::size_t t = 0; t < n_; ++t) {
    const std::uint64_t cur = block_[t];
    for (std::uint64_t v = cur; v != 0; v &= v - 1) {
      ++out.ones[static_cast<std::size_t>(std::countr_zero(v))];
    }
    const std::uint64_t tg = cur ^ before;
    for (std::uint64_t ti = tg; ti != 0; ti &= ti - 1) {
      const std::size_t i = static_cast<std::size_t>(std::countr_zero(ti));
      ++out.self[i];
      const bool up_i = (cur >> i) & 1u;
      for (std::uint64_t tj = ti & (ti - 1); tj != 0; tj &= tj - 1) {
        const std::size_t j = static_cast<std::size_t>(std::countr_zero(tj));
        const bool up_j = (cur >> j) & 1u;
        out.at(i, j) += (up_i == up_j) ? 1 : -1;
      }
    }
    before = cur;
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
  const auto t0 = std::chrono::steady_clock::now();

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

  if (span.traced()) {
    const double secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    if (secs > 0.0) {
      obs::counter("stats.compute.words_per_sec", static_cast<double>(words.size()) / secs);
    }
    std::ostringstream os;
    os << "\"words\":" << words.size() << ",\"width\":" << width << ",\"chunks\":" << chunks
       << ",\"blocks\":" << blocks;
    span.set_args(os.str());
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

std::uint64_t ChunkFolder::seam() const {
  if (!primed_) {
    throw std::logic_error("ChunkFolder::seam: no word folded yet (unprimed, width " +
                           std::to_string(width_) + ")");
  }
  return seam_;
}

void ChunkFolder::reset() {
  total_ = SwitchingCounts(width_);
  primed_ = false;
  seam_ = 0;
}

void ChunkFolder::reset_window() {
  // Keep the seam: the next window's first word still transitions from the
  // previous window's last word, so tumbling windows merge back to the
  // exact whole-stream counts.
  total_ = SwitchingCounts(width_);
}

}  // namespace tsvcod::stats
