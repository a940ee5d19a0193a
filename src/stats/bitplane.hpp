#pragma once
// Block-transposed integer switching-statistics kernel (paper Sec. 3, Eq. 1-3).
//
// The scalar accumulator walks every line pair per word: O(w^2) double adds,
// ~4k FP ops per word at w = 64. This kernel instead buffers 64 consecutive
// transitions, transposes the words once into per-line value *bit planes*
// (a Hacker's-Delight 64x64 bit-matrix transpose, run on vector registers at
// the avx2 and avx512 dispatch levels), derives the toggle planes from them
// in plane space, and reduces each quantity with popcounts over whole planes:
//
//   plane layout   VAL_i bit t = "line i is 1 after transition t"
//                  TG_i  bit t = "line i toggled on transition t"
//                              = VAL_i ^ ((VAL_i << 1) | prev_bit_i)
//   per line       self_i += popcount(TG_i)
//                  ones_i += popcount(VAL_i)
//   per pair       both = TG_i & TG_j                        (both toggled)
//                  opp  = both & (VAL_i ^ VAL_j)             (opposite dirs)
//                  cross_ij += popcount(both) - 2*popcount(opp)
//
// The pair identity holds because db_i * db_j is +1 when both lines toggle
// the same way, -1 when they toggle opposite ways, and 0 otherwise — and for
// a toggled line the direction is exactly its new value (VAL bit). That turns
// 64 * w^2 / 2 floating-point multiply-adds per block into ~3 integer ops per
// pair per block, with an early skip for quiet lines (TG_i == 0).
//
// All counters are unsigned/signed 64-bit integers. The scalar accumulator's
// double counters only ever receive +-1.0 increments, so its sums are exact
// integers too; converting our integer sums to double and performing the
// same final divisions therefore reproduces the scalar results *bit for
// bit* (and stays exact past the 2^53 limit where doubles would start to
// round). Exact integer counts also make merging associative, which is what
// `compute_counts` exploits to chunk a trace across the shared thread pool
// (chunks overlap one word at the seam so transitions partition exactly) with
// results that are bit-identical at every thread count, and what ChunkFolder
// exploits to fold a stream incrementally, in tumbling windows.

#include <cstdint>
#include <span>
#include <vector>

#include "stats/switching_types.hpp"

namespace tsvcod::stats {

/// In-place 64x64 bit-matrix transpose in LSB-first coordinates:
/// after the call, bit t of a[i] equals bit i of the original a[t].
/// Dispatched on simd::active_level(): eight zmm registers at avx512,
/// sixteen ymm registers at avx2, the scalar swap network below that; every
/// level gives the same bits.
void transpose64(std::uint64_t a[64]);

/// Exact integer switching counts of a (chunk of a) word trace. Merging is
/// plain integer addition, hence associative and order-independent.
struct SwitchingCounts {
  std::size_t width = 0;
  std::uint64_t words = 0;        ///< words whose bits were counted into `ones`
  std::uint64_t transitions = 0;  ///< word-to-word transitions counted
  std::vector<std::uint64_t> ones;   ///< count of 1 bits per line
  std::vector<std::uint64_t> self;   ///< count of toggles per line
  std::vector<std::int64_t> cross;   ///< sum of db_i*db_j, row-major w*w, used for i < j

  SwitchingCounts() = default;
  explicit SwitchingCounts(std::size_t width);

  std::int64_t& at(std::size_t i, std::size_t j) { return cross[i * width + j]; }
  std::int64_t at(std::size_t i, std::size_t j) const { return cross[i * width + j]; }

  /// Accumulate `other` into this (exact integer adds; widths must match).
  void merge(const SwitchingCounts& other);

  /// Divide counts into probabilities (Eq. 1-3 estimates). Needs >= 2 words;
  /// the error names the width and sample count.
  SwitchingStats finalize() const;
};

/// Streaming switching-statistics accumulator: buffers up to 64 transitions
/// and flushes them through the transposed popcount reduction. counts() /
/// finish() reduce whatever is still buffered through the same kernel,
/// padded with repeats of the last word (which toggle nothing), so partial
/// blocks and short (< 64 word) streams are exact too.
class StatsAccumulator {
 public:
  explicit StatsAccumulator(std::size_t width);

  /// Chunk accumulator: the transition chain starts at `seam` without
  /// counting its bits — the seam word's one-bits belong to the chunk that
  /// ended with it, so chunks linked this way merge to the whole stream.
  StatsAccumulator(std::size_t width, std::uint64_t seam);

  /// Number of words consumed so far (the seam word is not one).
  std::size_t samples() const { return static_cast<std::size_t>(samples_); }

  /// Feed the next word of the stream.
  void add(std::uint64_t word);

  /// Feed a run of words. Full 64-transition blocks that start on a block
  /// boundary are reduced straight from `words` (no copy through the staging
  /// buffer at width 64), which is what the zero-copy mmap ingestion path
  /// rides on; results are bit-identical to word-by-word add().
  void add(std::span<const std::uint64_t> words);

  /// Feed `count` copies of `word`; bit-identical to calling add(word)
  /// `count` times. Past the first copy, or from the first when `word`
  /// repeats the last word fed, every copy is a transition that toggles no
  /// line, so it costs O(set bits) however large `count` is: a latched link
  /// that idles for a gap is sampled in bulk.
  void add_repeated(std::uint64_t word, std::uint64_t count);

  /// Counts gathered so far (flushed blocks + the buffered partial block).
  SwitchingCounts counts() const;

  /// finalize()d counts; needs >= 2 words.
  SwitchingStats finish() const { return counts().finalize(); }

  /// 64-transition blocks reduced through the transposed kernel so far.
  std::uint64_t blocks_flushed() const { return blocks_; }

  /// Transitions currently buffered (a partial block counts() pads).
  std::size_t pending() const { return n_; }

 private:
  void flush_block();
  void flush_from(const std::uint64_t* block);  ///< 64 masked words, boundary-aligned

  std::size_t width_;
  std::uint64_t mask_;
  std::uint64_t samples_ = 0;
  bool chained_ = false;          ///< prev_ holds a word the next add() transitions from
  std::uint64_t prev_ = 0;        ///< last word seen (masked)
  std::uint64_t block_prev_ = 0;  ///< word preceding block_[0]
  std::size_t n_ = 0;             ///< buffered transitions
  std::uint64_t blocks_ = 0;
  std::uint64_t block_[64];       ///< post-transition words (masked)
  SwitchingCounts counts_;        ///< everything already flushed
};

/// Exact counts of a whole trace, chunked across the shared thread pool when
/// `threads` resolves to more than one (0 = TSVCOD_THREADS, else serial, as
/// everywhere). Chunks are merged in logical order; because the counts are
/// exact integers the result is bit-identical at every thread count.
SwitchingCounts compute_counts(std::span<const std::uint64_t> words, std::size_t width,
                               int threads = 1);

/// Incremental seam-chained chunk reduction, the one home of the seam and
/// window logic: fold() arbitrary chunk sizes (0, 1, 2, ... words — a
/// streaming pipe delivers whatever it has) and the accumulated counts are
/// bit-identical to one-shot compute_counts of the concatenated words, at
/// every chunk partition and thread count.
///
/// Seam-chain invariant: once any word has been folded, the seam holds the
/// last word ever folded. The next non-empty chunk starts its transition
/// chain at that word (whose one-bits the chunk that ended with it already
/// counted), so transitions partition exactly across chunks. Empty chunks
/// leave the seam untouched — advancing it without counting a transition (or
/// reading `back()` of an empty span) would corrupt every later chunk.
class ChunkFolder {
 public:
  /// `threads` is passed through to the parallel chunk reduction (0 =
  /// TSVCOD_THREADS, as everywhere).
  explicit ChunkFolder(std::size_t width, int threads = 1);

  /// Fold the next chunk of the stream. Empty chunks are no-ops; a 1-word
  /// chunk adds one word (plus one transition once primed).
  void fold(std::span<const std::uint64_t> chunk);

  /// Everything folded so far (exact; mergeable).
  const SwitchingCounts& counts() const { return total_; }

  /// Words folded since construction or the last window reset.
  std::uint64_t words() const { return total_.words; }

  /// Windowed reset: clear the counts but carry the seam word over, so the
  /// next window's first word still forms a transition with the previous
  /// window's last word. Tumbling windows produced this way sum (merge) to
  /// the exact whole-stream counts. No-op on an unprimed folder.
  void reset_window();

 private:
  std::size_t width_;
  int threads_;
  bool primed_ = false;
  std::uint64_t seam_ = 0;
  SwitchingCounts total_;
};

}  // namespace tsvcod::stats
