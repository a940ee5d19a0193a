#pragma once
// MT19937-64 with a branch-free state twist.
//
// The engine of the annealer, the random baselines and the seeded streams.
// It emits exactly std::mt19937_64's sequence: the same seeding recurrence,
// the same twist and the same tempering, so every seeded stream, annealing
// chain and figure built on it is unchanged, and the standard <random>
// distributions draw the same values from it (min(), max() and result_type
// match). It is faster only in how it regenerates its 312-word state: the
// twist selects the matrix constant by a mask instead of a branch on a
// random bit, and its loops vectorize at the baseline ISA, so it needs no
// runtime dispatch and gives the same bits on every host. Each draw is
// tempered on the fly from the state word, so the engine holds no output
// buffer and stays 2.5 KB, the size of std::mt19937_64.

#include <cstddef>
#include <cstdint>

namespace tsvcod::simd {

class Mt19937_64 {
 public:
  using result_type = std::uint64_t;

  /// Seeds exactly as std::mt19937_64(seed) does.
  explicit Mt19937_64(result_type seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (next_ >= kStateSize) twist();
    result_type y = state_[next_++];
    y ^= (y >> 29) & 0x5555555555555555ull;
    y ^= (y << 17) & 0x71D67FFFEDA60000ull;
    y ^= (y << 37) & 0xFFF7EEE000000000ull;
    y ^= y >> 43;
    return y;
  }

 private:
  static constexpr std::size_t kStateSize = 312;

  /// Regenerates all 312 state words and rewinds next_.
  void twist();

  std::uint64_t state_[kStateSize];
  std::size_t next_ = kStateSize;  ///< the first draw twists, as the standard engine does
};

}  // namespace tsvcod::simd
