#pragma once
// Power-optimal assignment search (paper Eq. 10).
//
// The objective <T', C'> is minimized over signed permutations. Simulated
// annealing is the workhorse (as in the paper); an exhaustive search over
// all permutations x inversion masks provides ground truth for small arrays,
// and random-assignment baselines provide the comparison point the paper's
// reductions are quoted against.

#include <cmath>
#include <span>
#include <vector>

#include "core/assignment.hpp"
#include "core/power.hpp"

namespace tsvcod::core {

/// Annealing budget per chain. The start temperature is calibrated from 32
/// probe moves (twice their mean |delta power|; a flat landscape quenches)
/// and cools geometrically to 1e-4 of it over each restart.
struct AnnealingSchedule {
  int iterations = 20000;  ///< moves per restart
  int restarts = 3;        ///< each restart begins from the best state so far
};

struct OptimizeOptions {
  AnnealingSchedule schedule{};
  /// Per-bit inversion permission (power/ground lines must stay upright).
  /// Empty = all bits invertible; all zeros = reordering only.
  std::vector<std::uint8_t> allow_invert;
  unsigned seed = 1;
  /// Independent annealing chains; each runs the full schedule on its own
  /// seed stream (derived from `seed` and the chain index) and the lowest
  /// final power wins, ties broken by the lower chain index. The result is
  /// therefore a pure function of (stats, model, options) — never of the
  /// thread count.
  int chains = 4;
  /// Worker threads for the chains. 0 = TSVCOD_THREADS env override, else 1.
  int threads = 0;

  /// Throws std::invalid_argument naming the offending field: an empty
  /// budget (schedule.iterations, schedule.restarts or chains below 1),
  /// negative threads, or an allow_invert that is neither empty nor `width`
  /// long. Every optimizer entry point calls it.
  void validate(std::size_t width) const;
};

struct OptimizeResult {
  SignedPermutation assignment;
  double power = 0.0;
  /// Candidate assignments priced across all chains: one per probe or
  /// attempted move (undos of rejected moves are not re-counted).
  std::size_t evaluations = 0;
};

/// Simulated-annealing search for the minimum-power signed permutation.
/// Runs `options.chains` independent chains (in parallel when
/// `options.threads` allows) and returns the deterministic best-of.
OptimizeResult optimize_assignment(const stats::SwitchingStats& bit_stats,
                                   const tsv::LinearCapacitanceModel& model,
                                   const OptimizeOptions& options = {});

/// Batch search: one optimize_assignment per statistics entry (e.g. every
/// vertical TSV bundle of a 3D mesh), parallelized over entries through the
/// shared pool. Entry i runs with its own seed stream derived from
/// (options.seed, i) and its chains serialized (the parallelism lives at the
/// batch level), so the result vector is a pure function of (stats, model,
/// options) — bit-identical at every `threads` value (the usual convention:
/// 0 = TSVCOD_THREADS, else the given count).
std::vector<OptimizeResult> optimize_assignments(std::span<const stats::SwitchingStats> bit_stats,
                                                 const tsv::LinearCapacitanceModel& model,
                                                 const OptimizeOptions& options = {},
                                                 int threads = 0);

/// Exhaustive ground truth: all n! permutations x all permitted inversion
/// masks. Throws if the search space exceeds ~10^7 evaluations.
OptimizeResult exhaustive_optimal(const stats::SwitchingStats& bit_stats,
                                  const tsv::LinearCapacitanceModel& model,
                                  const OptimizeOptions& options = {});

/// Deterministic first-improvement descent: sweep all pair swaps and
/// permitted inversion toggles until no move improves. No randomness, no
/// tuning — a reproducible baseline optimizer that lands at a local optimum
/// (usually within a percent of annealing) in O(sweeps * n^3).
OptimizeResult greedy_descent(const stats::SwitchingStats& bit_stats,
                              const tsv::LinearCapacitanceModel& model,
                              const OptimizeOptions& options = {});

struct BaselinePowers {
  double mean = 0.0;   ///< mean over sampled random assignments
  double worst = 0.0;  ///< highest sampled power
  double best = 0.0;   ///< lowest sampled power
};

/// Random plain-permutation baseline (no inversions): what an assignment-
/// unaware design would get. Each sample draws from its own seed stream
/// (derived from `seed` and the sample index) and the reduction runs in
/// sample order, so the result is deterministic for a fixed seed at every
/// thread count. `threads` 0 = TSVCOD_THREADS env override, else 1.
BaselinePowers random_assignment_power(const stats::SwitchingStats& bit_stats,
                                       const tsv::LinearCapacitanceModel& model,
                                       std::size_t samples = 200, unsigned seed = 99,
                                       int threads = 0);

/// The annealer's Metropolis test `u < exp(x)`, for x = -delta / T and a
/// draw u of uniform_real_distribution<double>(0, 1) on a 64-bit engine.
/// Such a u is either 0 or at least 2^-64, and exp(x) < 2^-64 once
/// x < -50, so below that cutoff the test reduces to `u == 0 && exp(x) > 0`
/// and skips std::exp on every draw but the zero one. The result equals
/// `u < std::exp(x)` for every u the engine can produce.
inline bool metropolis_accept(double u, double x) {
  if (x < -50.0) return u == 0.0 && std::exp(x) > 0.0;
  return u < std::exp(x);
}

/// Percent reduction of `value` versus `baseline`.
inline double reduction_pct(double baseline, double value) {
  return baseline > 0.0 ? (1.0 - value / baseline) * 100.0 : 0.0;
}

}  // namespace tsvcod::core
