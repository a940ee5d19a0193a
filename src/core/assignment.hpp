#pragma once
// Signed permutations: bit-to-TSV assignments with per-bit inversion
// (paper Sec. 3, the matrix A_pi of Eq. 4/5).
//
// `line_of_bit(i)` is the TSV line that carries bit i; `inverted(i)` says
// whether bit i is transmitted negated (realized by an inverting TSV driver
// or hidden inside a codec). The class applies the assignment directly to
// switching statistics and words, without forming the +-1 matrix.

#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "stats/bitplane.hpp"
#include "stats/switching_stats.hpp"

namespace tsvcod::core {

class SignedPermutation {
 public:
  /// Identity assignment of n bits (bit i -> line i, no inversions).
  explicit SignedPermutation(std::size_t n);

  /// Explicit construction; `line_of_bit` must be a permutation of 0..n-1.
  SignedPermutation(std::vector<std::size_t> line_of_bit, std::vector<std::uint8_t> inverted);

  static SignedPermutation identity(std::size_t n) { return SignedPermutation(n); }

  /// Uniformly random permutation; inversions are drawn per bit only where
  /// `allow_invert` permits (empty span = no inversions at all).
  template <typename Rng>
  static SignedPermutation random(std::size_t n, Rng& rng,
                                  std::span<const std::uint8_t> allow_invert = {});

  std::size_t size() const { return line_of_bit_.size(); }
  std::size_t line_of_bit(std::size_t bit) const { return line_of_bit_[bit]; }
  std::size_t bit_of_line(std::size_t line) const { return bit_of_line_[line]; }
  bool inverted(std::size_t bit) const { return inverted_[bit] != 0; }

  /// Exchange the lines assigned to two bits.
  void swap_bits(std::size_t a, std::size_t b);
  /// Flip the inversion of one bit.
  void toggle_inversion(std::size_t bit);

  /// Statistics as seen on the lines: T'_s, T'_c and probabilities after the
  /// assignment (Eq. 4 plus the eps sign flips of Eq. 8/9).
  stats::SwitchingStats apply(const stats::SwitchingStats& bit_stats) const;

  /// The same map on exact counts (T' = A T A^T): self counts move with
  /// their bit, a pair's cross count is negated when exactly one of its bits
  /// is inverted, and an inverted line's ones become words - ones. Equal to
  /// counting the line words apply_word() produces, when the bit-space
  /// stream started from unapply_word(0) wherever the line stream started
  /// from 0.
  stats::SwitchingCounts apply(const stats::SwitchingCounts& bit_counts) const;

  /// Map one data word onto the physical lines (permute + invert).
  std::uint64_t apply_word(std::uint64_t word) const;

  /// Inverse of apply_word: recover the data word from the line word
  /// (unapply_word(apply_word(w)) == w for any w within the width).
  std::uint64_t unapply_word(std::uint64_t lines) const;

  bool operator==(const SignedPermutation&) const = default;

 private:
  void rebuild_inverse();

  std::vector<std::size_t> line_of_bit_;
  std::vector<std::size_t> bit_of_line_;
  std::vector<std::uint8_t> inverted_;  ///< indexed by bit
};

template <typename Rng>
SignedPermutation SignedPermutation::random(std::size_t n, Rng& rng,
                                            std::span<const std::uint8_t> allow_invert) {
  SignedPermutation p(n);
  for (std::size_t i = n; i > 1; --i) {
    std::uniform_int_distribution<std::size_t> pick(0, i - 1);
    p.swap_bits(i - 1, pick(rng));
  }
  if (!allow_invert.empty()) {
    std::uniform_int_distribution<int> coin(0, 1);
    for (std::size_t bit = 0; bit < n; ++bit) {
      if (allow_invert[bit] && coin(rng)) p.toggle_inversion(bit);
    }
  }
  return p;
}

}  // namespace tsvcod::core
