#include "simd/mt19937_64.hpp"

namespace tsvcod::simd {

namespace {

// MT19937-64 parameters (the standard's mersenne_twister_engine arguments).
constexpr std::size_t kN = 312;
constexpr std::size_t kM = 156;
constexpr std::uint64_t kMatrixA = 0xB5026F5AA96619E9ull;
constexpr std::uint64_t kUpper = 0xFFFFFFFF80000000ull;  ///< top w - r = 33 bits
constexpr std::uint64_t kLower = 0x000000007FFFFFFFull;  ///< low r = 31 bits
constexpr std::uint64_t kInitMultiplier = 6364136223846793005ull;

// One twisted word: the top bits of word i joined with the low bits of word
// i + 1, shifted through the companion matrix, xored into word i + m. The
// matrix constant is selected by a mask rather than a branch: the low bit of
// `y` is a coin flip, so a branch on it mispredicts half the time.
inline std::uint64_t twist_word(std::uint64_t cur, std::uint64_t next, std::uint64_t far) {
  const std::uint64_t y = (cur & kUpper) | (next & kLower);
  return far ^ (y >> 1) ^ (kMatrixA & (0 - (y & 1)));
}

}  // namespace

Mt19937_64::Mt19937_64(result_type seed) {
  state_[0] = seed;
  for (std::size_t i = 1; i < kN; ++i) {
    const std::uint64_t x = state_[i - 1];
    state_[i] = kInitMultiplier * (x ^ (x >> 62)) + i;
  }
}

// The twist in three spans, as the standard engine runs it: words
// [0, n - m) read word i + m (not yet rewritten), words [n - m, n - 1) read
// word i - (n - m) (already rewritten by the first span), and the last word
// wraps to words 0 and m - 1. Within a span no word reads a word of the same
// span that is already rewritten, so the compiler may vectorize each loop.
void Mt19937_64::twist() {
  std::uint64_t* s = state_;
  for (std::size_t i = 0; i < kN - kM; ++i) s[i] = twist_word(s[i], s[i + 1], s[i + kM]);
  for (std::size_t i = kN - kM; i < kN - 1; ++i) {
    s[i] = twist_word(s[i], s[i + 1], s[i - (kN - kM)]);
  }
  s[kN - 1] = twist_word(s[kN - 1], s[0], s[kM - 1]);
  next_ = 0;
}

}  // namespace tsvcod::simd
