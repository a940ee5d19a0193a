#include "core/optimize.hpp"

#include "core/evaluator.hpp"
#include "obs/obs.hpp"
#include "obs/profile.hpp"
#include "opt/parallel.hpp"
#include "simd/mt19937_64.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

namespace tsvcod::core {

void OptimizeOptions::validate(std::size_t width) const {
  const auto at_least = [](const char* field, int value, int min) {
    if (value >= min) return;
    throw std::invalid_argument(std::string("OptimizeOptions: ") + field + " must be >= " +
                                std::to_string(min) + ", got " + std::to_string(value));
  };
  at_least("schedule.iterations", schedule.iterations, 1);
  at_least("schedule.restarts", schedule.restarts, 1);
  at_least("chains", chains, 1);
  at_least("threads", threads, 0);
  if (!allow_invert.empty() && allow_invert.size() != width) {
    throw std::invalid_argument("OptimizeOptions: allow_invert has " +
                                std::to_string(allow_invert.size()) + " entries for width " +
                                std::to_string(width) + " (empty = all bits invertible)");
  }
}

namespace {

// Probe moves that calibrate a chain's start temperature, and the end/start
// temperature ratio of each restart's geometric cooling.
constexpr int kProbe = 32;
constexpr double kCoolingRatio = 1e-4;

// Bits the options allow to be inverted (empty allow_invert = all of them).
std::vector<std::size_t> invertible_bits(const OptimizeOptions& options, std::size_t n) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < n; ++i) {
    if (options.allow_invert.empty() || options.allow_invert[i]) out.push_back(i);
  }
  return out;
}

struct ChainOutcome {
  SignedPermutation assignment{1};
  double power = 0.0;  ///< exact (recomputed) power of `assignment`
  std::size_t evaluations = 0;
};

// One annealing chain on the incremental evaluator. Candidate moves are
// drawn ahead in blocks and priced one at a time through
// PowerEvaluator::score when the chain consumes them; an accept applies the
// move and discards the rest of the block unpriced. The block is only a
// draw-ahead buffer that fixes the RNG order (and with it every result): it
// starts small, doubles whenever a whole block is rejected, and snaps back to
// small on an accept. `evaluations` counts candidates consumed, one per probe
// or attempted move — drawn-but-discarded candidates are not counted — so
// the count stays a pure function of the schedule, and the chain itself is a
// pure function of its seed (thread-count invariant).
ChainOutcome run_chain(const stats::SwitchingStats& bit_stats,
                       const tsv::LinearCapacitanceModel& model, const OptimizeOptions& options,
                       const std::vector<std::size_t>& invertible, std::uint64_t seed) {
  obs::Span span("opt.chain");
  const std::size_t n = bit_stats.width;
  const bool any_invertible = !invertible.empty();

  simd::Mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  std::uniform_int_distribution<int> move_kind(0, any_invertible ? 2 : 1);
  std::uniform_int_distribution<std::size_t> pick_bit(0, n - 1);

  PowerEvaluator ev(bit_stats, model, SignedPermutation::identity(n));
  std::size_t evaluations = 1;

  using Move = PowerEvaluator::Move;
  const auto random_move = [&]() -> Move {
    if (any_invertible && move_kind(rng) == 2) {
      std::uniform_int_distribution<std::size_t> pick(0, invertible.size() - 1);
      return {true, invertible[pick(rng)], 0};
    }
    std::size_t a = pick_bit(rng);
    std::size_t b = pick_bit(rng);
    while (n > 1 && b == a) b = pick_bit(rng);
    return {false, a, b};
  };

  // Temperature calibration: price the probe moves against the untouched
  // initial state (scoring does not mutate, so no undos needed).
  const double before = ev.power();
  double acc = 0.0;
  for (int i = 0; i < kProbe; ++i) acc += std::abs(ev.score(random_move()).power - before);
  evaluations += kProbe;
  double t_start = acc / kProbe * 2.0;
  if (t_start <= 0.0) t_start = 1e-12;  // flat landscape: quench
  const double t_end = t_start * kCoolingRatio;
  const double decay = options.schedule.iterations > 1
                           ? std::pow(t_end / t_start, 1.0 / (options.schedule.iterations - 1))
                           : 1.0;

  SignedPermutation best = ev.assignment();
  double best_power = ev.power();
  std::vector<Move> block;
  std::size_t accepted = 0;
  constexpr std::size_t kBlockMin = 4;
  constexpr std::size_t kBlockMax = 64;
  for (int restart = 0; restart < options.schedule.restarts; ++restart) {
    // Resync from the best state (also clears float drift of the deltas).
    // Restart 0 starts from the state the constructor just built.
    if (restart > 0) ev.reset(best);
    double current = ev.power();
    double t = t_start;
    std::size_t block_size = kBlockMin;
    std::size_t cursor = 0;
    block.clear();
    for (int it = 0; it < options.schedule.iterations; ++it, t *= decay) {
      if (cursor >= block.size()) {
        block.clear();
        for (std::size_t i = 0; i < block_size; ++i) block.push_back(random_move());
        cursor = 0;
      }
      const Move m = block[cursor++];
      const PowerEvaluator::Score scored = ev.score(m);
      ++evaluations;
      const double d = scored.power - current;
      if (d <= 0.0 || metropolis_accept(uni(rng), -d / t)) {
        // The scored value and the applied value agree to eps-scale drift;
        // track the applied one so `current` stays synced with the evaluator.
        current = ev.apply(m, scored);
        ++accepted;
        if (current < best_power) {
          best_power = current;
          best = ev.assignment();
        }
        // The rest of the block is drawn but never consumed.
        block.clear();
        cursor = 0;
        block_size = kBlockMin;
      } else if (cursor >= block.size()) {
        // A whole block rejected without an accept: the chain is cold, so
        // the next block draws further ahead.
        block_size = std::min(block_size * 2, kBlockMax);
      }
    }
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
  options.validate(n);
  const auto invertible = invertible_bits(options, n);

  // Independent chains, each seeded from its logical index; scheduling can
  // never leak into the result.
  obs::Span span("opt.optimize");
  const auto chains = static_cast<std::size_t>(options.chains);
  std::vector<ChainOutcome> outcomes(chains);
  opt::parallel_for(chains, options.threads, [&](std::size_t c) {
    outcomes[c] = run_chain(bit_stats, model, options, invertible,
                            opt::deterministic_seed(options.seed, c));
  });

  // Deterministic best-of reduction: strict < keeps the lowest chain index
  // on ties.
  std::size_t best_chain = 0;
  std::size_t evaluations = 0;
  for (std::size_t c = 0; c < chains; ++c) {
    evaluations += outcomes[c].evaluations;
    if (outcomes[c].power < outcomes[best_chain].power) best_chain = c;
  }
  obs::profile_work("chains", chains);
  obs::profile_work("evaluations", evaluations);
  return {std::move(outcomes[best_chain].assignment), outcomes[best_chain].power, evaluations};
}

std::vector<OptimizeResult> optimize_assignments(std::span<const stats::SwitchingStats> bit_stats,
                                                 const tsv::LinearCapacitanceModel& model,
                                                 const OptimizeOptions& options, int threads) {
  options.validate(model.size());
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
  obs::profile_work("links", bit_stats.size());
  return out;
}

OptimizeResult exhaustive_optimal(const stats::SwitchingStats& bit_stats,
                                  const tsv::LinearCapacitanceModel& model,
                                  const OptimizeOptions& options) {
  const std::size_t n = bit_stats.width;
  if (model.size() != n) throw std::invalid_argument("exhaustive_optimal: width mismatch");
  options.validate(n);
  const auto invertible = invertible_bits(options, n);

  double perms = 1.0;
  for (std::size_t k = 2; k <= n; ++k) perms *= static_cast<double>(k);
  const double space = perms * std::pow(2.0, static_cast<double>(invertible.size()));
  if (space > 1e7) {
    throw std::invalid_argument("exhaustive_optimal: search space too large");
  }

  std::vector<std::size_t> line_of_bit(n);
  std::iota(line_of_bit.begin(), line_of_bit.end(), std::size_t{0});

  OptimizeResult best{SignedPermutation::identity(n), 1e300, 0};
  do {
    const std::uint64_t mask_count = std::uint64_t{1} << invertible.size();
    for (std::uint64_t m = 0; m < mask_count; ++m) {
      std::vector<std::uint8_t> inv(n, 0);
      for (std::size_t k = 0; k < invertible.size(); ++k) {
        if ((m >> k) & 1u) inv[invertible[k]] = 1;
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
  options.validate(n);

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
      if (options.allow_invert.empty() || options.allow_invert[a]) {
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
    simd::Mt19937_64 rng(opt::deterministic_seed(seed, s));
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
