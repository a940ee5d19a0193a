#include "core/mappings.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace tsvcod::core {

std::vector<std::size_t> ring_order(const phys::TsvArrayGeometry& geom) {
  const std::size_t rows = geom.rows;
  const std::size_t cols = geom.cols;
  std::vector<std::size_t> order;
  order.reserve(rows * cols);
  std::size_t top = 0, bottom = rows, left = 0, right = cols;
  while (top < bottom && left < right) {
    for (std::size_t c = left; c < right; ++c) order.push_back(geom.index(top, c));
    ++top;
    for (std::size_t r = top; r < bottom; ++r) order.push_back(geom.index(r, right - 1));
    if (right > 0) --right;
    if (top < bottom) {
      for (std::size_t c = right; c-- > left;) order.push_back(geom.index(bottom - 1, c));
      --bottom;
    }
    if (left < right) {
      for (std::size_t r = bottom; r-- > top;) order.push_back(geom.index(r, left));
      ++left;
    }
  }
  return order;
}

std::vector<std::size_t> spiral_order(const phys::TsvArrayGeometry& geom) {
  auto order = ring_order(geom);
  // Fewer direct neighbours = lower total capacitance class (corner < edge <
  // middle); a stable sort keeps the ring-walk order inside each class.
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return geom.direct_neighbor_count(a) < geom.direct_neighbor_count(b);
  });
  return order;
}

std::vector<std::size_t> sawtooth_order(const phys::TsvArrayGeometry& geom) {
  const std::size_t rows = geom.rows;
  const std::size_t cols = geom.cols;
  std::vector<std::size_t> order;
  order.reserve(rows * cols);
  if (rows == 1) {
    for (std::size_t c = 0; c < cols; ++c) order.push_back(geom.index(0, c));
    return order;
  }
  for (std::size_t c = 0; c < cols; ++c) {
    order.push_back(geom.index(0, c));
    order.push_back(geom.index(1, c));
  }
  for (std::size_t r = 2; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) order.push_back(geom.index(r, c));
  }
  return order;
}

std::vector<std::size_t> rank_by_self_switching(const stats::SwitchingStats& s) {
  std::vector<std::size_t> rank(s.width);
  std::iota(rank.begin(), rank.end(), std::size_t{0});
  std::stable_sort(rank.begin(), rank.end(),
                   [&](std::size_t a, std::size_t b) { return s.self[a] > s.self[b]; });
  return rank;
}

std::vector<std::size_t> rank_by_correlation(const stats::SwitchingStats& s) {
  std::vector<double> score(s.width, 0.0);
  for (std::size_t i = 0; i < s.width; ++i) {
    for (std::size_t j = 0; j < s.width; ++j) {
      if (j != i) score[i] += std::max(0.0, s.coupling(i, j));
    }
  }
  std::vector<std::size_t> rank(s.width);
  std::iota(rank.begin(), rank.end(), std::size_t{0});
  // Descending score; ties broken by descending bit index so that an
  // uncorrelated LSB block stays in significance order below the MSBs.
  std::stable_sort(rank.begin(), rank.end(), [&](std::size_t a, std::size_t b) {
    if (score[a] != score[b]) return score[a] > score[b];
    return a > b;
  });
  return rank;
}

SignedPermutation assignment_from_orders(std::span<const std::size_t> bit_rank,
                                         std::span<const std::size_t> tsv_order) {
  if (bit_rank.size() != tsv_order.size()) {
    throw std::invalid_argument("assignment_from_orders: size mismatch");
  }
  const std::size_t n = bit_rank.size();
  std::vector<std::size_t> line_of_bit(n);
  for (std::size_t r = 0; r < n; ++r) line_of_bit[bit_rank[r]] = tsv_order[r];
  return SignedPermutation(std::move(line_of_bit), std::vector<std::uint8_t>(n, 0));
}

SignedPermutation spiral_assignment(const phys::TsvArrayGeometry& geom,
                                    const stats::SwitchingStats& s) {
  if (geom.count() != s.width) throw std::invalid_argument("spiral_assignment: width mismatch");
  return assignment_from_orders(rank_by_self_switching(s), spiral_order(geom));
}

SignedPermutation sawtooth_assignment(const phys::TsvArrayGeometry& geom,
                                      const stats::SwitchingStats& s) {
  if (geom.count() != s.width) throw std::invalid_argument("sawtooth_assignment: width mismatch");
  return assignment_from_orders(rank_by_correlation(s), sawtooth_order(geom));
}

}  // namespace tsvcod::core
