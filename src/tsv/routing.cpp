#include "tsv/routing.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <stdexcept>

namespace tsvcod::tsv {

namespace {

constexpr double kWireCapPerM = 0.2e-9;       ///< local wire capacitance [F/m] (0.2 fF/um)
constexpr double kFixedPathCap = 40e-15;       ///< assignment-independent path parasitics [F]
constexpr std::size_t kSampleCount = 100000;  ///< shuffles per pass above 9 TSVs
constexpr unsigned kSampleSeed = 1;

// Mean per-bit path parasitic [F] of assignment `tsv_of_bit` (bit i enters
// at entry[i]): per-TSV total capacitance (`tsv_total_cap`, paper-form row
// sums) plus routed wire cap plus the fixed path parasitics.
double path_parasitics(const phys::TsvArrayGeometry& geom, std::span<const phys::Point2> entry,
                       std::span<const std::size_t> tsv_of_bit,
                       std::span<const double> tsv_total_cap) {
  double total = 0.0;
  for (std::size_t bit = 0; bit < tsv_of_bit.size(); ++bit) {
    const auto p = geom.position(tsv_of_bit[bit]);
    const double len = std::abs(p.x - entry[bit].x) + std::abs(p.y - entry[bit].y);
    total += kFixedPathCap + tsv_total_cap[tsv_of_bit[bit]] + len * kWireCapPerM;
  }
  return total / static_cast<double>(tsv_of_bit.size());
}

}  // namespace

std::vector<phys::Point2> entry_points(const phys::TsvArrayGeometry& geom) {
  geom.validate();
  const std::size_t n = geom.count();
  const double width = static_cast<double>(geom.cols - 1) * geom.pitch;
  std::vector<phys::Point2> pts(n);
  const double y = -geom.pitch;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = n > 1 ? width * static_cast<double>(i) / static_cast<double>(n - 1) : 0.0;
    pts[i] = {x, y};
  }
  return pts;
}

double assignment_wirelength(const phys::TsvArrayGeometry& geom,
                             std::span<const std::size_t> tsv_of_bit) {
  if (tsv_of_bit.size() != geom.count()) {
    throw std::invalid_argument("assignment_wirelength: assignment size mismatch");
  }
  const auto entry = entry_points(geom);
  double total = 0.0;
  for (std::size_t bit = 0; bit < tsv_of_bit.size(); ++bit) {
    const auto p = geom.position(tsv_of_bit[bit]);
    total += std::abs(p.x - entry[bit].x) + std::abs(p.y - entry[bit].y);
  }
  return total;
}

OverheadStats routing_overhead_stats(const phys::TsvArrayGeometry& geom,
                                     std::span<const double> tsv_total_cap) {
  const std::size_t n = geom.count();
  if (tsv_total_cap.size() != n) {
    throw std::invalid_argument("routing_overhead_stats: capacitance vector size mismatch");
  }
  const auto entry = entry_points(geom);
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), std::size_t{0});

  OverheadStats stats;
  stats.exhaustive = n <= 9;

  // First pass: the minimum-parasitic assignment (the "wire length
  // minimization" routing the paper compares against).
  double best = 1e300;
  auto eval = [&](const std::vector<std::size_t>& p) {
    return path_parasitics(geom, entry, p, tsv_total_cap);
  };
  std::mt19937 rng(kSampleSeed);
  if (stats.exhaustive) {
    auto p = perm;
    std::sort(p.begin(), p.end());
    do {
      best = std::min(best, eval(p));
    } while (std::next_permutation(p.begin(), p.end()));
  } else {
    // Sorted-by-entry heuristic is optimal for the 1-D part; refine by
    // sampled shuffles.
    best = eval(perm);
    auto p = perm;
    for (std::size_t s = 0; s < kSampleCount; ++s) {
      std::shuffle(p.begin(), p.end(), rng);
      best = std::min(best, eval(p));
    }
  }

  // Second pass: statistics of the increase over all (or sampled) assignments.
  double sum = 0.0;
  double sum2 = 0.0;
  double worst = 0.0;
  std::size_t count = 0;
  auto accumulate = [&](const std::vector<std::size_t>& p) {
    const double inc = (eval(p) / best - 1.0) * 100.0;
    sum += inc;
    sum2 += inc * inc;
    worst = std::max(worst, inc);
    ++count;
  };
  if (stats.exhaustive) {
    auto p = perm;
    std::sort(p.begin(), p.end());
    do {
      accumulate(p);
    } while (std::next_permutation(p.begin(), p.end()));
  } else {
    auto p = perm;
    for (std::size_t s = 0; s < kSampleCount; ++s) {
      std::shuffle(p.begin(), p.end(), rng);
      accumulate(p);
    }
  }
  stats.assignments = count;
  stats.worst_pct = worst;
  stats.mean_pct = sum / static_cast<double>(count);
  stats.stddev_pct =
      std::sqrt(std::max(0.0, sum2 / static_cast<double>(count) - stats.mean_pct * stats.mean_pct));
  return stats;
}

}  // namespace tsvcod::tsv
