#include "core/optimize.hpp"

#include "core/evaluator.hpp"
#include "obs/obs.hpp"
#include "obs/profile.hpp"
#include "opt/parallel.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace tsvcod::core {

namespace {

std::vector<std::uint8_t> effective_invert_mask(const OptimizeOptions& options, std::size_t n) {
  if (!options.allow_inversions) return std::vector<std::uint8_t>(n, 0);
  if (options.allow_invert.empty()) return std::vector<std::uint8_t>(n, 1);
  if (options.allow_invert.size() != n) {
    throw std::invalid_argument("OptimizeOptions: allow_invert size mismatch");
  }
  return options.allow_invert;
}

struct ChainOutcome {
  SignedPermutation assignment{1};
  double power = 0.0;  ///< exact (recomputed) power of `assignment`
  std::size_t evaluations = 0;
};

// One annealing chain on the incremental evaluator. Candidate moves are
// priced in blocks through PowerEvaluator::score_moves — the batch API keeps
// the per-line arrays hot and lets the SIMD row kernels amortize — and a
// block's scores stay valid as long as every move in it is rejected (the
// state never changed). An accept applies the one winning move and discards
// the rest of the block. The block size adapts to the acceptance rate: it
// starts small, doubles whenever a whole block is rejected (cold chain), and
// snaps back to small on an accept (hot chain), so scoring work is rarely
// thrown away. `evaluations` counts candidates consumed, one per probe or
// attempted move — scored-but-discarded candidates are not counted — so the
// count stays a pure function of the schedule, and the chain itself is a
// pure function of its seed (thread-count invariant).
ChainOutcome run_chain(const stats::SwitchingStats& bit_stats,
                       const tsv::LinearCapacitanceModel& model, const OptimizeOptions& options,
                       const std::vector<std::size_t>& invertible_bits, std::uint64_t seed,
                       std::size_t chain_index) {
  obs::Span span("opt.chain");
  const bool tracing = span.traced();
  // Per-chain counter-track names keep concurrent chains on separate tracks.
  std::string track_power, track_temp;
  if (tracing) {
    track_power = "opt.best_power.c" + std::to_string(chain_index);
    track_temp = "opt.temperature.c" + std::to_string(chain_index);
  }
  const std::size_t n = bit_stats.width;
  const bool any_invertible = !invertible_bits.empty();

  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  std::uniform_int_distribution<int> move_kind(0, any_invertible ? 2 : 1);
  std::uniform_int_distribution<std::size_t> pick_bit(0, n - 1);

  PowerEvaluator ev(bit_stats, model, SignedPermutation::identity(n));
  std::size_t evaluations = 1;

  using Move = PowerEvaluator::Move;
  const auto random_move = [&]() -> Move {
    if (any_invertible && move_kind(rng) == 2) {
      std::uniform_int_distribution<std::size_t> pick(0, invertible_bits.size() - 1);
      return {true, invertible_bits[pick(rng)], 0};
    }
    std::size_t a = pick_bit(rng);
    std::size_t b = pick_bit(rng);
    while (n > 1 && b == a) b = pick_bit(rng);
    return {false, a, b};
  };
  const auto apply = [&](const Move& m) {
    return m.is_toggle ? ev.toggle_inversion(m.a) : ev.swap_bits(m.a, m.b);
  };

  // Batch pricing buffers shared by the probe phase and the main loop.
  std::vector<Move> block;
  std::vector<double> scores;

  // Temperature calibration: price the probe moves in one batch against the
  // untouched initial state (scoring does not mutate, so no undos needed).
  double t_start = options.schedule.t_start;
  if (t_start <= 0.0) {
    constexpr int kProbe = 32;
    block.clear();
    for (int i = 0; i < kProbe; ++i) block.push_back(random_move());
    scores.resize(block.size());
    ev.score_moves(block, scores);
    const double before = ev.power();
    double acc = 0.0;
    for (int i = 0; i < kProbe; ++i) acc += std::abs(scores[static_cast<std::size_t>(i)] - before);
    evaluations += kProbe;
    t_start = acc / kProbe * 2.0;
    if (t_start <= 0.0) t_start = 1e-12;
  }
  const double t_end = t_start * options.schedule.t_ratio;
  const double decay = options.schedule.iterations > 1
                           ? std::pow(t_end / t_start, 1.0 / (options.schedule.iterations - 1))
                           : 1.0;

  SignedPermutation best = ev.assignment();
  double best_power = ev.power();
  std::size_t accepted = 0;
  std::size_t attempted = 0;
  // Trace sampling stride: ~64 samples per restart keeps traces compact.
  const int stride = std::max(1, options.schedule.iterations / 64);
  constexpr std::size_t kBlockMin = 4;
  constexpr std::size_t kBlockMax = 64;
  for (int restart = 0; restart < options.schedule.restarts; ++restart) {
    // Resync from the best state (also clears float drift of the deltas).
    ev.reset(best);
    double current = ev.power();
    double t = t_start;
    std::size_t block_size = kBlockMin;
    std::size_t cursor = 0;
    block.clear();
    for (int it = 0; it < options.schedule.iterations; ++it, t *= decay) {
      if (cursor >= block.size()) {
        block.clear();
        for (std::size_t i = 0; i < block_size; ++i) block.push_back(random_move());
        scores.resize(block.size());
        ev.score_moves(block, scores);
        cursor = 0;
      }
      const Move m = block[cursor];
      const double cand = scores[cursor];
      ++cursor;
      ++evaluations;
      ++attempted;
      const double d = cand - current;
      if (d <= 0.0 || uni(rng) < std::exp(-d / t)) {
        // The scored value and the applied value agree to eps-scale drift;
        // track the applied one so `current` stays synced with the evaluator.
        apply(m);
        current = ev.power();
        ++accepted;
        if (current < best_power) {
          best_power = current;
          best = ev.assignment();
        }
        // State changed: the rest of the block's scores are stale.
        block.clear();
        cursor = 0;
        block_size = kBlockMin;
      } else if (cursor >= block.size()) {
        // A whole block rejected without an accept: the chain is cold, so
        // larger batches are pure profit.
        block_size = std::min(block_size * 2, kBlockMax);
      }
      if (tracing && it % stride == 0) {
        obs::counter(track_power, best_power);
        obs::counter(track_temp, t);
      }
    }
  }
  if (tracing) {
    span.set_args("\"chain\":" + std::to_string(chain_index) +
                  ",\"evaluations\":" + std::to_string(evaluations) +
                  ",\"accepted\":" + std::to_string(accepted) +
                  ",\"attempted\":" + std::to_string(attempted) +
                  ",\"best_power\":" + obs::json_number(best_power));
  }
  obs::profile_work("evaluations", evaluations);
  obs::profile_work("accepted", accepted);
  // Exact final power (the incremental value only drifts at float epsilon);
  // chains are compared on this exact value so the best-of reduction is
  // independent of per-chain accumulation order.
  const double exact = assignment_power(bit_stats, best, model);
  return {std::move(best), exact, evaluations};
}

}  // namespace

OptimizeResult optimize_assignment(const stats::SwitchingStats& bit_stats,
                                   const tsv::LinearCapacitanceModel& model,
                                   const OptimizeOptions& options) {
  const std::size_t n = bit_stats.width;
  if (model.size() != n) throw std::invalid_argument("optimize_assignment: width mismatch");
  const auto invert_ok = effective_invert_mask(options, n);

  std::vector<std::size_t> invertible_bits;
  for (std::size_t i = 0; i < n; ++i) {
    if (invert_ok[i]) invertible_bits.push_back(i);
  }

  // Independent chains, each seeded from its logical index; scheduling can
  // never leak into the result.
  obs::Span span("opt.optimize");
  const std::size_t chains = static_cast<std::size_t>(std::max(1, options.chains));
  std::vector<ChainOutcome> outcomes(chains);
  opt::parallel_for(chains, options.threads, [&](std::size_t c) {
    outcomes[c] = run_chain(bit_stats, model, options, invertible_bits,
                            opt::deterministic_seed(options.seed, c), c);
  });

  // Deterministic best-of reduction: strict < keeps the lowest chain index
  // on ties.
  std::size_t best_chain = 0;
  std::size_t evaluations = 0;
  for (std::size_t c = 0; c < chains; ++c) {
    evaluations += outcomes[c].evaluations;
    if (outcomes[c].power < outcomes[best_chain].power) best_chain = c;
  }
  if (span.traced()) {
    span.set_args("\"chains\":" + std::to_string(chains) +
                  ",\"evaluations\":" + std::to_string(evaluations) +
                  ",\"best_chain\":" + std::to_string(best_chain) +
                  ",\"best_power\":" + obs::json_number(outcomes[best_chain].power));
  }
  obs::profile_work("chains", chains);
  obs::profile_work("evaluations", evaluations);
  return {std::move(outcomes[best_chain].assignment), outcomes[best_chain].power, evaluations};
}

std::vector<OptimizeResult> optimize_assignments(std::span<const stats::SwitchingStats> bit_stats,
                                                 const tsv::LinearCapacitanceModel& model,
                                                 const OptimizeOptions& options, int threads) {
  obs::Span span("opt.optimize_batch");
  std::vector<OptimizeResult> out(bit_stats.size(),
                                  OptimizeResult{SignedPermutation::identity(1), 0.0, 0});
  opt::parallel_for(bit_stats.size(), threads, [&](std::size_t i) {
    OptimizeOptions local = options;
    // Independent seed stream per entry; chains run serially inside each
    // entry so every core the batch gets goes to a *different* link.
    local.seed = static_cast<unsigned>(opt::deterministic_seed(options.seed, i));
    local.threads = 1;
    out[i] = optimize_assignment(bit_stats[i], model, local);
  });
  if (span.traced()) span.set_args("\"links\":" + std::to_string(bit_stats.size()));
  obs::profile_work("links", bit_stats.size());
  return out;
}

OptimizeResult exhaustive_optimal(const stats::SwitchingStats& bit_stats,
                                  const tsv::LinearCapacitanceModel& model,
                                  const OptimizeOptions& options) {
  const std::size_t n = bit_stats.width;
  if (model.size() != n) throw std::invalid_argument("exhaustive_optimal: width mismatch");
  const auto invert_ok = effective_invert_mask(options, n);
  std::vector<std::size_t> invertible_bits;
  for (std::size_t i = 0; i < n; ++i) {
    if (invert_ok[i]) invertible_bits.push_back(i);
  }

  double perms = 1.0;
  for (std::size_t k = 2; k <= n; ++k) perms *= static_cast<double>(k);
  const double space = perms * std::pow(2.0, static_cast<double>(invertible_bits.size()));
  if (space > 1e7) {
    throw std::invalid_argument("exhaustive_optimal: search space too large");
  }

  std::vector<std::size_t> line_of_bit(n);
  std::iota(line_of_bit.begin(), line_of_bit.end(), std::size_t{0});

  OptimizeResult best{SignedPermutation::identity(n), 1e300, 0};
  do {
    const std::uint64_t mask_count = std::uint64_t{1} << invertible_bits.size();
    for (std::uint64_t m = 0; m < mask_count; ++m) {
      std::vector<std::uint8_t> inv(n, 0);
      for (std::size_t k = 0; k < invertible_bits.size(); ++k) {
        if ((m >> k) & 1u) inv[invertible_bits[k]] = 1;
      }
      SignedPermutation a(line_of_bit, std::move(inv));
      const double p = assignment_power(bit_stats, a, model);
      ++best.evaluations;
      if (p < best.power) {
        best.power = p;
        best.assignment = std::move(a);
      }
    }
  } while (std::next_permutation(line_of_bit.begin(), line_of_bit.end()));
  return best;
}

OptimizeResult greedy_descent(const stats::SwitchingStats& bit_stats,
                              const tsv::LinearCapacitanceModel& model,
                              const OptimizeOptions& options) {
  const std::size_t n = bit_stats.width;
  if (model.size() != n) throw std::invalid_argument("greedy_descent: width mismatch");
  const auto invert_ok = effective_invert_mask(options, n);

  PowerEvaluator ev(bit_stats, model, SignedPermutation::identity(n));
  std::size_t evaluations = 1;
  // Accept only clearly-improving moves so float noise cannot cycle forever.
  // Symmetric absolute-plus-relative margin: a pure relative test against
  // `cur` flips direction when the current power is zero or negative.
  const auto improves = [](double cand, double cur) {
    const double margin = 1e-30 + 1e-12 * std::max(std::abs(cand), std::abs(cur));
    return cand < cur - margin;
  };

  bool improved = true;
  while (improved) {
    improved = false;
    double current = ev.power();
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = a + 1; b < n; ++b) {
        const double cand = ev.swap_bits(a, b);
        ++evaluations;
        if (improves(cand, current)) {
          current = cand;
          improved = true;
        } else {
          ev.swap_bits(a, b);  // undo
        }
      }
      if (invert_ok[a]) {
        const double cand = ev.toggle_inversion(a);
        ++evaluations;
        if (improves(cand, current)) {
          current = cand;
          improved = true;
        } else {
          ev.toggle_inversion(a);
        }
      }
    }
  }
  SignedPermutation best = ev.assignment();
  const double exact = assignment_power(bit_stats, best, model);
  return {std::move(best), exact, evaluations};
}

BaselinePowers random_assignment_power(const stats::SwitchingStats& bit_stats,
                                       const tsv::LinearCapacitanceModel& model,
                                       std::size_t samples, unsigned seed, int threads) {
  if (samples == 0) throw std::invalid_argument("random_assignment_power: samples must be > 0");
  // Each sample owns a seed stream derived from its index; the reduction runs
  // in sample order afterwards, so mean/worst/best are bit-identical for any
  // thread count.
  std::vector<double> powers(samples);
  opt::parallel_for(samples, threads, [&](std::size_t s) {
    std::mt19937_64 rng(opt::deterministic_seed(seed, s));
    const auto a = SignedPermutation::random(bit_stats.width, rng);
    powers[s] = assignment_power(bit_stats, a, model);
  });
  BaselinePowers out;
  out.best = 1e300;
  double sum = 0.0;
  for (const double p : powers) {
    sum += p;
    out.worst = std::max(out.worst, p);
    out.best = std::min(out.best, p);
  }
  out.mean = sum / static_cast<double>(samples);
  return out;
}

}  // namespace tsvcod::core
