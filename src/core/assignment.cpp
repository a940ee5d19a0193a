#include "core/assignment.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace tsvcod::core {

SignedPermutation::SignedPermutation(std::size_t n)
    : line_of_bit_(n), bit_of_line_(n), inverted_(n, 0) {
  if (n == 0 || n > 64) throw std::invalid_argument("SignedPermutation: size must be in [1, 64]");
  std::iota(line_of_bit_.begin(), line_of_bit_.end(), std::size_t{0});
  std::iota(bit_of_line_.begin(), bit_of_line_.end(), std::size_t{0});
}

SignedPermutation::SignedPermutation(std::vector<std::size_t> line_of_bit,
                                     std::vector<std::uint8_t> inverted)
    : line_of_bit_(std::move(line_of_bit)),
      bit_of_line_(line_of_bit_.size()),
      inverted_(std::move(inverted)) {
  const std::size_t n = line_of_bit_.size();
  if (n == 0 || n > 64) throw std::invalid_argument("SignedPermutation: size must be in [1, 64]");
  if (inverted_.size() != n) throw std::invalid_argument("SignedPermutation: inverted size");
  std::vector<bool> seen(n, false);
  for (const auto l : line_of_bit_) {
    if (l >= n || seen[l]) throw std::invalid_argument("SignedPermutation: not a permutation");
    seen[l] = true;
  }
  rebuild_inverse();
}

void SignedPermutation::rebuild_inverse() {
  for (std::size_t bit = 0; bit < line_of_bit_.size(); ++bit) bit_of_line_[line_of_bit_[bit]] = bit;
}

void SignedPermutation::swap_bits(std::size_t a, std::size_t b) {
  std::swap(line_of_bit_[a], line_of_bit_[b]);
  bit_of_line_[line_of_bit_[a]] = a;
  bit_of_line_[line_of_bit_[b]] = b;
}

void SignedPermutation::toggle_inversion(std::size_t bit) { inverted_[bit] ^= 1u; }

stats::SwitchingStats SignedPermutation::apply(const stats::SwitchingStats& bit_stats) const {
  const std::size_t n = size();
  if (bit_stats.width != n) throw std::invalid_argument("SignedPermutation::apply: width mismatch");
  stats::SwitchingStats out;
  out.width = n;
  out.transitions = bit_stats.transitions;
  out.self.resize(n);
  out.prob_one.resize(n);
  out.coupling = phys::Matrix(n, n);
  for (std::size_t line = 0; line < n; ++line) {
    const std::size_t bit = bit_of_line_[line];
    out.self[line] = bit_stats.self[bit];
    out.prob_one[line] =
        inverted_[bit] ? 1.0 - bit_stats.prob_one[bit] : bit_stats.prob_one[bit];
    out.coupling(line, line) = bit_stats.self[bit];
  }
  for (std::size_t li = 0; li < n; ++li) {
    const std::size_t bi = bit_of_line_[li];
    const double si = inverted_[bi] ? -1.0 : 1.0;
    for (std::size_t lj = li + 1; lj < n; ++lj) {
      const std::size_t bj = bit_of_line_[lj];
      const double sj = inverted_[bj] ? -1.0 : 1.0;
      const double c = si * sj * bit_stats.coupling(bi, bj);
      out.coupling(li, lj) = c;
      out.coupling(lj, li) = c;
    }
  }
  return out;
}

stats::SwitchingCounts SignedPermutation::apply(const stats::SwitchingCounts& bit_counts) const {
  const std::size_t n = size();
  if (bit_counts.width != n) throw std::invalid_argument("SignedPermutation::apply: width mismatch");
  stats::SwitchingCounts out(n);
  out.words = bit_counts.words;
  out.transitions = bit_counts.transitions;
  for (std::size_t bit = 0; bit < n; ++bit) {
    const std::size_t line = line_of_bit_[bit];
    out.self[line] = bit_counts.self[bit];
    out.ones[line] = inverted_[bit] ? bit_counts.words - bit_counts.ones[bit] : bit_counts.ones[bit];
  }
  for (std::size_t bi = 0; bi < n; ++bi) {
    for (std::size_t bj = bi + 1; bj < n; ++bj) {
      const std::int64_t c = bit_counts.at(bi, bj);
      const std::size_t li = line_of_bit_[bi];
      const std::size_t lj = line_of_bit_[bj];
      out.at(std::min(li, lj), std::max(li, lj)) = inverted_[bi] != inverted_[bj] ? -c : c;
    }
  }
  return out;
}

std::uint64_t SignedPermutation::apply_word(std::uint64_t word) const {
  std::uint64_t out = 0;
  for (std::size_t bit = 0; bit < size(); ++bit) {
    const std::uint64_t v = ((word >> bit) & 1u) ^ (inverted_[bit] ? 1u : 0u);
    out |= v << line_of_bit_[bit];
  }
  return out;
}

std::uint64_t SignedPermutation::unapply_word(std::uint64_t lines) const {
  std::uint64_t out = 0;
  for (std::size_t bit = 0; bit < size(); ++bit) {
    const std::uint64_t v = ((lines >> line_of_bit_[bit]) & 1u) ^ (inverted_[bit] ? 1u : 0u);
    out |= v << bit;
  }
  return out;
}

}  // namespace tsvcod::core
