#include "check/oracles.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "check/generators.hpp"
#include "coding/factory.hpp"
#include "core/assignment_io.hpp"
#include "core/coded_link.hpp"
#include "core/evaluator.hpp"
#include "core/power.hpp"
#include "field/grid.hpp"
#include "field/solver.hpp"
#include "noc/simulator.hpp"
#include "simd/dispatch.hpp"
#include "stats/switching_stats.hpp"
#include "streams/binary_trace.hpp"
#include "streams/trace_io.hpp"
#include "streams/word_stream.hpp"
#include "tsv/model_io.hpp"

namespace tsvcod::check {

namespace {

std::string hex_words(const std::vector<std::uint64_t>& words, std::size_t limit = 32) {
  std::ostringstream os;
  os << std::hex << '[';
  for (std::size_t i = 0; i < words.size() && i < limit; ++i) {
    if (i) os << ' ';
    os << "0x" << words[i];
  }
  if (words.size() > limit) os << " ...(" << std::dec << words.size() << " total)";
  os << ']';
  return os.str();
}

/// Halves first (fast size reduction), then single-element deletions; index
/// pairs let callers shrink parallel arrays in lockstep.
std::vector<std::pair<std::size_t, std::size_t>> subrange_candidates(std::size_t n,
                                                                     std::size_t min_len) {
  std::vector<std::pair<std::size_t, std::size_t>> out;  // (begin, end) kept
  if (n > min_len) {
    if (n / 2 >= min_len) {
      out.emplace_back(0, n / 2);
      out.emplace_back(n - n / 2, n);
    }
    const std::size_t deletions = std::min<std::size_t>(n, 24);
    for (std::size_t i = 0; i < deletions; ++i) out.emplace_back(i, i);  // (i, i) = drop index i
  }
  return out;
}

// ---------------------------------------------------------------------------
// Oracle 1: codec round-trip through CodedLink.
// ---------------------------------------------------------------------------

struct CodecCase {
  coding::CodecSpec spec;
  std::size_t width = 1;
  core::SignedPermutation assignment{1};
  std::vector<std::uint64_t> words;
  std::vector<std::uint8_t> reset_before;  ///< atomic link reset before word k
  bool desync = false;                     ///< also run the one-sided-reset recovery scenario
};

CodecCase gen_codec_case(Rng& rng) {
  CodecCase cc;
  const auto& names = coding::codec_names();
  cc.spec.name = names[rng.below(names.size())];
  cc.spec.period = 1 + rng.below(4);
  cc.spec.stride = 1 + rng.below(3);
  cc.spec.lambda = rng.real(0.5, 4.0);
  const std::size_t max = coding::codec_max_width(cc.spec.name);
  switch (rng.below(4)) {
    case 0: cc.width = 1; break;
    case 1: cc.width = max; break;
    default: cc.width = 1 + rng.below(max); break;
  }
  cc.spec.inversion_mask = rng.u64() & streams::width_mask(cc.width);
  const auto codec = coding::make_codec(cc.spec, cc.width);
  cc.assignment = gen_assignment(rng, codec->width_out());
  cc.words = gen_trace(rng, cc.width, 3 + rng.below(48));
  cc.reset_before.resize(cc.words.size());
  for (auto& r : cc.reset_before) r = rng.chance(0.08) ? 1 : 0;
  cc.desync = rng.chance(0.3);
  return cc;
}

/// The case's words through a twin link's batched round trip, one span per
/// stretch between the case's atomic resets; mismatches summed.
std::size_t batched_mismatches(core::CodedLink& link, const CodecCase& cc) {
  const std::span<const std::uint64_t> all(cc.words);
  std::size_t mismatches = 0;
  for (std::size_t begin = 0; begin < all.size();) {
    std::size_t end = begin + 1;
    while (end < all.size() && !cc.reset_before[end]) ++end;
    if (cc.reset_before[begin]) link.reset();
    mismatches += link.roundtrip(all.subspan(begin, end - begin));
    begin = end;
  }
  return mismatches;
}

std::optional<std::string> check_codec_case(const CodecCase& cc) {
  core::CodedLink link(cc.assignment, coding::make_codec(cc.spec, cc.width));
  if (link.payload_width() != cc.width) return "payload width disagrees with codec width_in";
  for (std::size_t k = 0; k < cc.words.size(); ++k) {
    if (cc.reset_before[k]) link.reset();
    const std::uint64_t got = link.roundtrip(cc.words[k]);
    if (got != cc.words[k]) {
      std::ostringstream os;
      os << std::hex << "round-trip mismatch at word " << std::dec << k << ": sent 0x" << std::hex
         << cc.words[k] << ", received 0x" << got;
      return os.str();
    }
  }
  // A twin link runs the same words as batched spans and must count exactly
  // the mismatches the per-word path counts.
  core::CodedLink twin(cc.assignment, coding::make_codec(cc.spec, cc.width));
  if (const std::size_t bad = batched_mismatches(twin, cc); bad != 0) {
    return "batched round trip counts " + std::to_string(bad) +
           " mismatches where the per-word path counts none";
  }
  if (cc.desync) {
    // Desync the pair on purpose (tx-only reset), then verify the atomic
    // reset() restores decodability no matter how confused the pair got.
    const std::span<const std::uint64_t> all(cc.words);
    const std::size_t third = all.size() / 3;
    const auto same_count = [&](std::span<const std::uint64_t> words,
                                const char* part) -> std::optional<std::string> {
      std::size_t bad = 0;
      for (const std::uint64_t w : words) bad += link.roundtrip(w) != w;
      const std::size_t twin_bad = twin.roundtrip(words);
      if (bad == twin_bad) return std::nullopt;
      return std::string("desync scenario, ") + part + " third: batched round trip counts " +
             std::to_string(twin_bad) + " mismatches, per-word path " + std::to_string(bad);
    };
    link.reset();
    twin.reset();
    if (auto err = same_count(all.first(third), "first")) return err;
    link.transmitter().reset();
    twin.transmitter().reset();
    try {
      if (auto err = same_count(all.subspan(third, third), "desynced")) return err;
    } catch (const std::exception&) {  // a desynced decoder may throw; fine here
    }
    link.reset();
    twin.reset();
    for (std::size_t k = 2 * third; k < cc.words.size(); ++k) {
      const std::uint64_t got = link.roundtrip(cc.words[k]);
      if (got != cc.words[k]) {
        std::ostringstream os;
        os << "atomic reset failed to recover from one-sided desync: word " << k << " sent 0x"
           << std::hex << cc.words[k] << ", received 0x" << got;
        return os.str();
      }
    }
    if (const std::size_t bad = twin.roundtrip(all.subspan(2 * third)); bad != 0) {
      return "batched round trip counts " + std::to_string(bad) +
             " mismatches after the atomic reset where the per-word path counts none";
    }
  }
  return std::nullopt;
}

std::vector<CodecCase> shrink_codec_case(const CodecCase& cc) {
  std::vector<CodecCase> out;
  if (cc.desync) {
    CodecCase c = cc;
    c.desync = false;
    out.push_back(std::move(c));
  }
  bool any_reset = false;
  for (const auto r : cc.reset_before) any_reset |= r != 0;
  if (any_reset) {
    CodecCase c = cc;
    c.reset_before.assign(c.reset_before.size(), 0);
    out.push_back(std::move(c));
  }
  for (const auto& [b, e] : subrange_candidates(cc.words.size(), 1)) {
    CodecCase c = cc;
    if (b == e) {  // drop index b
      c.words.erase(c.words.begin() + static_cast<std::ptrdiff_t>(b));
      c.reset_before.erase(c.reset_before.begin() + static_cast<std::ptrdiff_t>(b));
    } else {
      c.words.assign(cc.words.begin() + static_cast<std::ptrdiff_t>(b),
                     cc.words.begin() + static_cast<std::ptrdiff_t>(e));
      c.reset_before.assign(cc.reset_before.begin() + static_cast<std::ptrdiff_t>(b),
                            cc.reset_before.begin() + static_cast<std::ptrdiff_t>(e));
    }
    out.push_back(std::move(c));
  }
  return out;
}

std::string describe_codec_case(const CodecCase& cc) {
  std::ostringstream os;
  os << "codec=" << cc.spec.name << " width=" << cc.width << " period=" << cc.spec.period
     << " stride=" << cc.spec.stride << " mask=0x" << std::hex << cc.spec.inversion_mask
     << std::dec << " desync=" << (cc.desync ? "yes" : "no") << "\n  words=" << hex_words(cc.words)
     << "\n  resets-before=[";
  bool first = true;
  for (std::size_t k = 0; k < cc.reset_before.size(); ++k) {
    if (!cc.reset_before[k]) continue;
    if (!first) os << ' ';
    os << k;
    first = false;
  }
  os << "]\n  assignment: bit->line(inv) ";
  for (std::size_t bit = 0; bit < cc.assignment.size(); ++bit) {
    os << bit << "->" << cc.assignment.line_of_bit(bit) << (cc.assignment.inverted(bit) ? "~" : "")
       << ' ';
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// Oracle 2: incremental PowerEvaluator vs dense assignment_power.
// ---------------------------------------------------------------------------

struct EvalMove {
  bool toggle = false;  ///< false = swap(a, b), true = toggle(a)
  std::size_t a = 0;
  std::size_t b = 0;
};

struct EvalCase {
  tsv::LinearCapacitanceModel model;
  stats::SwitchingStats bits;
  core::SignedPermutation initial{1};
  std::vector<EvalMove> moves;
};

EvalCase gen_eval_case(Rng& rng) {
  EvalCase ec;
  const std::size_t n = 2 + rng.below(11);
  ec.model = gen_model(rng, n, rng.chance(0.5));
  ec.bits = gen_stats(rng, n, 16 + rng.below(120));
  ec.initial = gen_assignment(rng, n);
  const std::size_t count = 1 + rng.below(64);
  ec.moves.resize(count);
  for (auto& m : ec.moves) {
    m.toggle = rng.chance(0.35);
    m.a = rng.below(n);
    m.b = (m.a + 1 + rng.below(n - 1)) % n;
  }
  return ec;
}

std::optional<std::string> check_eval_case(const EvalCase& ec) {
  // Drift bound: far above rounding of the incremental updates (which touch
  // O(N) terms of magnitude <= the absolute capacitance mass per move), far
  // below any real sign or bookkeeping bug (those are O(1) relative).
  double mass = 0.0;
  const std::size_t n = ec.model.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      mass += std::abs(ec.model.c_ref()(i, j)) + std::abs(ec.model.delta_c()(i, j));
    }
  }
  const double tol = 1e-9 * mass * static_cast<double>(ec.moves.size() + 1);

  core::PowerEvaluator ev(ec.bits, ec.model, ec.initial);
  const auto dense = [&](const core::SignedPermutation& a) {
    return core::assignment_power(ec.bits, a, ec.model);
  };
  const auto compare = [&](double got, double want, const char* where) -> std::optional<std::string> {
    if (std::abs(got - want) <= tol) return std::nullopt;
    std::ostringstream os;
    os.precision(17);
    os << where << ": incremental " << got << " vs dense " << want << " (|delta| "
       << std::abs(got - want) << " > tol " << tol << ")";
    return os.str();
  };

  if (auto err = compare(ev.power(), dense(ec.initial), "after construction")) return err;
  for (std::size_t k = 0; k < ec.moves.size(); ++k) {
    const auto& m = ec.moves[k];
    const double p = m.toggle ? ev.toggle_inversion(m.a) : ev.swap_bits(m.a, m.b);
    if (p != ev.power()) return "move return value disagrees with power()";
    std::ostringstream where;
    where << "after move " << k;
    if (m.toggle) {
      where << " toggle(" << m.a << ')';
    } else {
      where << " swap(" << m.a << ',' << m.b << ')';
    }
    const std::string where_str = where.str();
    if (auto err = compare(p, dense(ev.assignment()), where_str.c_str())) return err;
  }
  if (auto err = compare(ev.recompute(), dense(ev.assignment()), "recompute()")) return err;
  // Pricing leg: score every generated move against the current state (no
  // mutation); each score must match the dense power of that single move
  // applied on its own.
  for (std::size_t k = 0; k < ec.moves.size(); ++k) {
    const auto& m = ec.moves[k];
    core::SignedPermutation a = ev.assignment();
    if (m.toggle) {
      a.toggle_inversion(m.a);
    } else {
      a.swap_bits(m.a, m.b);
    }
    std::ostringstream where;
    where << "score[" << k << (m.toggle ? "] toggle(" : "] swap(") << m.a;
    if (!m.toggle) where << ',' << m.b;
    where << ')';
    const std::string where_str = where.str();
    if (auto err = compare(ev.score({m.toggle, m.a, m.b}).power, dense(a), where_str.c_str())) {
      return err;
    }
  }
  ev.reset(ec.initial);
  if (auto err = compare(ev.power(), dense(ec.initial), "after reset(initial)")) return err;
  return std::nullopt;
}

std::vector<EvalCase> shrink_eval_case(const EvalCase& ec) {
  std::vector<EvalCase> out;
  for (const auto& [b, e] : subrange_candidates(ec.moves.size(), 0)) {
    EvalCase c = ec;
    if (b == e) {
      c.moves.erase(c.moves.begin() + static_cast<std::ptrdiff_t>(b));
    } else {
      c.moves.assign(ec.moves.begin() + static_cast<std::ptrdiff_t>(b),
                     ec.moves.begin() + static_cast<std::ptrdiff_t>(e));
    }
    out.push_back(std::move(c));
  }
  return out;
}

std::string describe_eval_case(const EvalCase& ec) {
  std::ostringstream os;
  os << "n=" << ec.model.size() << " transitions=" << ec.bits.transitions << " moves=[";
  for (const auto& m : ec.moves) {
    if (m.toggle) {
      os << " toggle(" << m.a << ')';
    } else {
      os << " swap(" << m.a << ',' << m.b << ')';
    }
  }
  os << " ]";
  return os.str();
}

// ---------------------------------------------------------------------------
// Oracle 3: StatsAccumulator and ChunkFolder vs a naive O(N * w^2) reference.
// ---------------------------------------------------------------------------

struct StatsCase {
  std::size_t width = 1;
  std::vector<std::uint64_t> words;
  std::uint64_t fold_seed = 0;  ///< drives the ChunkFolder chunk sizes and window resets
};

StatsCase gen_stats_case(Rng& rng) {
  StatsCase sc;
  sc.width = 1 + rng.below(64);
  // Lengths straddle the bit-plane kernel's 64-transition block boundary:
  // short all-scalar-tail streams, exact multiples of 64 transitions, and
  // off-by-one partial tails all show up with real probability.
  switch (rng.below(4)) {
    case 0: sc.words = gen_trace(rng, sc.width, 2 + rng.below(64)); break;
    case 1: sc.words = gen_trace(rng, sc.width, 65 + 64 * rng.below(4)); break;  // n%64 == 1 tail-free
    case 2: sc.words = gen_trace(rng, sc.width, 64 + 64 * rng.below(4) + rng.below(3)); break;
    default: sc.words = gen_trace(rng, sc.width, 2 + rng.below(300)); break;
  }
  sc.fold_seed = rng.u64();
  return sc;
}

/// Bitwise comparison of two SwitchingStats (the integer-counter contract:
/// not "close", *identical*).
std::optional<std::string> stats_bitwise_diff(const stats::SwitchingStats& a,
                                              const stats::SwitchingStats& b,
                                              const char* label) {
  const auto fail = [&](const char* what, std::size_t i, std::size_t j, double ga, double gb) {
    std::ostringstream os;
    os.precision(17);
    os << label << ": " << what << '[' << i << "][" << j << "] differs: " << ga << " vs " << gb;
    return os.str();
  };
  if (a.width != b.width) return std::string(label) + ": width differs";
  if (a.transitions != b.transitions) return std::string(label) + ": transitions differ";
  for (std::size_t i = 0; i < a.width; ++i) {
    if (a.prob_one[i] != b.prob_one[i]) return fail("prob_one", i, i, a.prob_one[i], b.prob_one[i]);
    if (a.self[i] != b.self[i]) return fail("self", i, i, a.self[i], b.self[i]);
    for (std::size_t j = 0; j < a.width; ++j) {
      if (a.coupling(i, j) != b.coupling(i, j)) {
        return fail("coupling", i, j, a.coupling(i, j), b.coupling(i, j));
      }
    }
  }
  return std::nullopt;
}

/// The accumulator, ChunkFolder and chunked compute_stats paths at the
/// active dispatch level against the reference statistics `want`.
std::optional<std::string> check_stats_at_level(const StatsCase& sc,
                                                const stats::SwitchingStats& want) {
  const std::size_t w = sc.width;
  stats::StatsAccumulator acc(w);
  for (const auto word : sc.words) acc.add(word);
  if (acc.samples() != sc.words.size()) return "samples() disagrees with word count";
  const stats::SwitchingStats got = acc.finish();
  if (auto diff = stats_bitwise_diff(got, want, "accumulator")) return diff;

  // The seam API: fold the trace through a ChunkFolder in random chunks
  // (empty and 1-word ones included), closing tumbling windows at random
  // points; the merged window counts must be the reference, bit for bit.
  Rng plan(sc.fold_seed);
  stats::ChunkFolder folder(w);
  stats::SwitchingCounts merged(w);
  const std::span<const std::uint64_t> all(sc.words);
  for (std::size_t at = 0; at < all.size();) {
    const std::size_t n = static_cast<std::size_t>(plan.chance(0.3) ? plan.below(2)
                                                                    : plan.below(160));
    const auto chunk = all.subspan(at, std::min(n, all.size() - at));
    folder.fold(chunk);
    at += chunk.size();
    if (plan.chance(0.25)) {
      merged.merge(folder.counts());
      folder.reset_window();
    }
  }
  merged.merge(folder.counts());
  if (merged.words != sc.words.size()) return "ChunkFolder: merged windows lose words";
  if (auto diff = stats_bitwise_diff(merged.finalize(), want, "ChunkFolder windows")) return diff;

  // The one-shot chunked reduction must be bitwise identical to the
  // streaming accumulator at every thread count (integer counters make the
  // chunk merge exact, so chunk boundaries cannot show through).
  for (const int threads : {1, 2, 5}) {
    const auto par = stats::compute_stats(sc.words, w, threads);
    if (auto diff = stats_bitwise_diff(par, got, "compute_stats")) {
      return "threads=" + std::to_string(threads) + " " + *diff;
    }
  }
  return std::nullopt;
}

std::optional<std::string> check_stats_case(const StatsCase& sc) {
  const std::size_t w = sc.width;
  // Naive reference: recompute every statistic from scratch per transition,
  // O(N * w^2), with the exact divisions of StatsAccumulator::finish() — the
  // counts are small integers held in doubles, so both paths are exact and
  // the comparison is bitwise.
  std::vector<double> ones(w, 0.0), self(w, 0.0);
  phys::Matrix cross(w, w);
  const std::uint64_t mask = streams::width_mask(w);
  for (std::size_t t = 0; t < sc.words.size(); ++t) {
    const std::uint64_t cur = sc.words[t] & mask;
    for (std::size_t i = 0; i < w; ++i) ones[i] += static_cast<double>((cur >> i) & 1u);
    if (t == 0) continue;
    const std::uint64_t prev = sc.words[t - 1] & mask;
    for (std::size_t i = 0; i < w; ++i) {
      const int dbi = static_cast<int>((cur >> i) & 1u) - static_cast<int>((prev >> i) & 1u);
      if (dbi != 0) self[i] += 1.0;
      for (std::size_t j = i + 1; j < w; ++j) {
        const int dbj = static_cast<int>((cur >> j) & 1u) - static_cast<int>((prev >> j) & 1u);
        cross(i, j) += static_cast<double>(dbi * dbj);
      }
    }
  }
  const double nt = static_cast<double>(sc.words.size() - 1);
  const double nw = static_cast<double>(sc.words.size());
  stats::SwitchingStats want;
  want.width = w;
  want.transitions = sc.words.size() - 1;
  want.coupling = phys::Matrix(w, w);
  for (std::size_t i = 0; i < w; ++i) {
    want.self.push_back(self[i] / nt);
    want.prob_one.push_back(ones[i] / nw);
    want.coupling(i, i) = self[i] / nt;
    for (std::size_t j = i + 1; j < w; ++j) {
      want.coupling(i, j) = cross(i, j) / nt;
      want.coupling(j, i) = cross(i, j) / nt;
    }
  }

  // Every dispatch level the host runs: each has its own block body and
  // transpose, and all must reproduce the reference bit for bit.
  for (int l = 0; l <= static_cast<int>(simd::detected_level()); ++l) {
    const auto level = static_cast<simd::Level>(l);
    simd::ScopedLevel guard(level);
    if (auto err = check_stats_at_level(sc, want)) {
      return std::string("level=") + simd::level_name(level) + " " + *err;
    }
  }
  return std::nullopt;
}

std::vector<StatsCase> shrink_stats_case(const StatsCase& sc) {
  std::vector<StatsCase> out;
  for (const auto& [b, e] : subrange_candidates(sc.words.size(), 2)) {
    StatsCase c = sc;
    if (b == e) {
      if (sc.words.size() <= 2) continue;
      c.words.erase(c.words.begin() + static_cast<std::ptrdiff_t>(b));
    } else {
      c.words.assign(sc.words.begin() + static_cast<std::ptrdiff_t>(b),
                     sc.words.begin() + static_cast<std::ptrdiff_t>(e));
    }
    out.push_back(std::move(c));
  }
  if (sc.width > 1) {
    StatsCase c = sc;
    c.width = sc.width / 2;
    out.push_back(std::move(c));
  }
  return out;
}

std::string describe_stats_case(const StatsCase& sc) {
  return "width=" + std::to_string(sc.width) + " fold_seed=" + std::to_string(sc.fold_seed) +
         " words=" + hex_words(sc.words);
}

// ---------------------------------------------------------------------------
// Oracle 4: Jacobi vs multigrid vs dense complex LU field solves.
// ---------------------------------------------------------------------------

struct FieldDisk {
  double cx = 0, cy = 0, r = 1;
  bool conductor = true;
  field::Complex eps{1.0, 0.0};
};

struct FieldCase {
  double w = 8, h = 8;
  field::Complex background{11.9, -2.0};
  std::vector<FieldDisk> disks;
};

// Half the cases are 6-13 cells a side, where a multigrid request falls
// back to Jacobi. The other half are 20-23 cells a side: even four
// full-size conductors leave more than the 256 free cells multigrid needs,
// so the V-cycle runs, and small disks pin features narrower than a coarse
// cell. 23 x 23 cells cap the dense LU at 529 unknowns.
FieldCase gen_field_case(Rng& rng) {
  FieldCase fc;
  const bool large = rng.below(2) == 0;
  const std::uint64_t side = large ? 20 : 6, spread = large ? 4 : 8;
  fc.w = static_cast<double>(side + rng.below(spread));
  fc.h = static_cast<double>(side + rng.below(spread));
  fc.background = {rng.real(1.0, 12.0), -rng.real(0.0, 4.0)};
  const std::size_t conductors = 1 + rng.below(4);
  const std::size_t dielectrics = rng.below(3);
  for (std::size_t k = 0; k < conductors + dielectrics; ++k) {
    FieldDisk d;
    d.cx = rng.real(1.0, fc.w - 1.0);
    d.cy = rng.real(1.0, fc.h - 1.0);
    d.r = rng.real(0.8, 2.2);
    d.conductor = k < conductors;
    d.eps = {rng.real(1.0, 8.0), -rng.real(0.0, 2.0)};
    fc.disks.push_back(d);
  }
  return fc;
}

using Cx = field::Complex;

/// Dense LU with partial pivoting, factored once and solved per right-hand
/// side — the brute-force reference the iterative solver is judged against.
class DenseLu {
 public:
  explicit DenseLu(std::vector<Cx> a, std::size_t n) : n_(n), a_(std::move(a)), perm_(n) {
    for (std::size_t i = 0; i < n_; ++i) perm_[i] = i;
    for (std::size_t col = 0; col < n_; ++col) {
      std::size_t pivot = col;
      for (std::size_t r = col + 1; r < n_; ++r) {
        if (std::abs(at(r, col)) > std::abs(at(pivot, col))) pivot = r;
      }
      if (std::abs(at(pivot, col)) < 1e-300) {
        singular_ = true;
        return;
      }
      if (pivot != col) {
        std::swap(perm_[pivot], perm_[col]);
        for (std::size_t c = 0; c < n_; ++c) std::swap(at(pivot, c), at(col, c));
      }
      for (std::size_t r = col + 1; r < n_; ++r) {
        const Cx f = at(r, col) / at(col, col);
        at(r, col) = f;
        for (std::size_t c = col + 1; c < n_; ++c) at(r, c) -= f * at(col, c);
      }
    }
  }

  bool singular() const { return singular_; }

  std::vector<Cx> solve(const std::vector<Cx>& b) const {
    std::vector<Cx> x(n_);
    for (std::size_t i = 0; i < n_; ++i) x[i] = b[perm_[i]];
    for (std::size_t i = 0; i < n_; ++i) {
      for (std::size_t j = 0; j < i; ++j) x[i] -= at(i, j) * x[j];
    }
    for (std::size_t i = n_; i-- > 0;) {
      for (std::size_t j = i + 1; j < n_; ++j) x[i] -= at(i, j) * x[j];
      x[i] /= at(i, i);
    }
    return x;
  }

 private:
  Cx& at(std::size_t r, std::size_t c) { return a_[r * n_ + c]; }
  const Cx& at(std::size_t r, std::size_t c) const { return a_[r * n_ + c]; }

  std::size_t n_;
  std::vector<Cx> a_;
  std::vector<std::size_t> perm_;
  bool singular_ = false;
};

double rel_error(const std::vector<Cx>& got, const std::vector<Cx>& want) {
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    num += std::norm(got[i] - want[i]);
    den += std::norm(want[i]);
  }
  if (den == 0.0) return std::sqrt(num) > 0.0 ? (num > 1e-20 ? 1.0 : 0.0) : 0.0;
  return std::sqrt(num / den);
}

std::optional<std::string> check_field_case(const FieldCase& fc) {
  field::Grid grid(fc.w, fc.h, 1.0);
  grid.fill(fc.background);
  std::int32_t next_id = 0;
  for (const auto& d : fc.disks) {
    grid.paint_disk(d.cx, d.cy, d.r, d.eps, d.conductor ? next_id++ : field::kNoConductor);
  }
  if (grid.conductor_count() == 0) return std::nullopt;

  field::FieldProblem fp(grid);
  const std::size_t n = fp.unknowns();
  if (n == 0) return std::nullopt;  // conductors swallowed the whole domain
  std::vector<std::size_t> cells;  // the free cells, in cell order
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (grid.conductor(i) == field::kNoConductor) cells.push_back(i);
  }

  // Assemble the dense operator column by column through the same grid
  // operator the iterative solver uses, restricted to the free cells — both
  // sides solve literally the same system.
  std::vector<Cx> a(n * n);
  std::vector<Cx> e(grid.size()), col(grid.size());
  for (std::size_t j = 0; j < n; ++j) {
    e.assign(grid.size(), Cx{});
    e[cells[j]] = Cx{1.0, 0.0};
    fp.apply(e, col);
    for (std::size_t i = 0; i < n; ++i) a[i * n + j] = col[cells[i]];
  }
  const DenseLu lu(std::move(a), n);
  if (lu.singular()) return "field operator is numerically singular";
  // Multigrid's documented threshold, restated so that a hierarchy which
  // silently stops being built shows up as a failure here.
  const bool viable = grid.nx() >= 8 && grid.ny() >= 8 && n > 256;

  constexpr double kTol = 1e-5;  // solver residual 1e-10 leaves orders of headroom
  for (std::int32_t active = 0; active < grid.conductor_count(); ++active) {
    const std::vector<Cx> b_grid = fp.rhs(active);
    std::vector<Cx> b(n);
    for (std::size_t k = 0; k < n; ++k) b[k] = b_grid[cells[k]];
    const std::vector<Cx> x_ref = lu.solve(b);

    field::SolverOptions opts;
    opts.tolerance = 1e-10;
    const auto run = [&](field::Preconditioner p, const char* label)
        -> std::pair<std::optional<std::string>, std::vector<Cx>> {
      opts.preconditioner = p;
      field::SolveStats stats;
      const std::vector<Cx> phi = fp.solve(active, opts, &stats);
      if (!stats.converged) {
        return {std::string(label) + " solve did not converge for conductor " +
                    std::to_string(active),
                {}};
      }
      if (viable && stats.preconditioner != p) {
        return {std::string(label) + " request ran another preconditioner on a viable grid", {}};
      }
      std::vector<Cx> x(n);
      for (std::size_t k = 0; k < n; ++k) x[k] = phi[cells[k]];
      const double err = rel_error(x, x_ref);
      if (err > kTol) {
        std::ostringstream os;
        os << label << " vs dense LU: relative error " << err << " > " << kTol
           << " for conductor " << active;
        return {os.str(), {}};
      }
      return {std::nullopt, phi};
    };

    auto [err_j, phi_j] = run(field::Preconditioner::jacobi, "jacobi");
    if (err_j) return err_j;
    auto [err_m, phi_m] = run(field::Preconditioner::multigrid, "multigrid");
    if (err_m) return err_m;

    const std::vector<Cx> q_j = fp.conductor_charges(phi_j);
    const std::vector<Cx> q_m = fp.conductor_charges(phi_m);
    double qmax = 0.0;
    for (const auto& q : q_j) qmax = std::max(qmax, std::abs(q));
    for (std::size_t c = 0; c < q_j.size(); ++c) {
      if (std::abs(q_j[c] - q_m[c]) > kTol * std::max(qmax, 1e-300)) {
        std::ostringstream os;
        os << "jacobi/multigrid charge mismatch on conductor " << c << " (active " << active
           << "): " << std::abs(q_j[c] - q_m[c]) << " vs scale " << qmax;
        return os.str();
      }
    }
  }
  return std::nullopt;
}

std::vector<FieldCase> shrink_field_case(const FieldCase& fc) {
  std::vector<FieldCase> out;
  for (std::size_t k = 0; k < fc.disks.size(); ++k) {
    if (fc.disks.size() == 1) break;
    FieldCase c = fc;
    c.disks.erase(c.disks.begin() + static_cast<std::ptrdiff_t>(k));
    out.push_back(std::move(c));
  }
  if (fc.w > 6.0 || fc.h > 6.0) {
    FieldCase c = fc;
    c.w = std::max(6.0, fc.w - 2.0);
    c.h = std::max(6.0, fc.h - 2.0);
    out.push_back(std::move(c));
  }
  return out;
}

std::string describe_field_case(const FieldCase& fc) {
  std::ostringstream os;
  os.precision(6);
  os << "grid " << fc.w << "x" << fc.h << " background (" << fc.background.real() << ','
     << fc.background.imag() << ") disks:";
  for (const auto& d : fc.disks) {
    os << " [" << (d.conductor ? "cond" : "diel") << " c=(" << d.cx << ',' << d.cy
       << ") r=" << d.r << ']';
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// Oracle 5: text format round-trips and parser fuzzing.
// ---------------------------------------------------------------------------

struct IoCase {
  int kind = 0;  ///< 0 = trace, 1 = model, 2 = assignment
  std::string text;
  bool mutated = false;
};

const char* io_kind_name(int kind) {
  switch (kind) {
    case 0: return "trace";
    case 1: return "model";
    default: return "assignment";
  }
}

IoCase gen_io_case(Rng& rng) {
  IoCase io;
  io.kind = static_cast<int>(rng.below(3));
  std::ostringstream os;
  switch (io.kind) {
    case 0: {
      const auto words = gen_trace(rng, 1 + rng.below(64), rng.below(40));
      streams::save_trace(os, words);
      break;
    }
    case 1: {
      const auto model = gen_model(rng, 1 + rng.below(8), rng.chance(0.3));
      tsv::save_linear_model(os, model);
      break;
    }
    default: {
      const auto a = gen_assignment(rng, 1 + rng.below(16));
      core::save_assignment(os, a);
      break;
    }
  }
  io.text = os.str();
  io.mutated = rng.chance(0.6);
  if (io.mutated) io.text = mutate_text(rng, io.text, 1 + rng.below(8));
  return io;
}

/// Parse `text` and return its canonical re-saved form. Throws whatever the
/// parser throws.
std::string parse_and_resave(int kind, const std::string& text) {
  std::istringstream is(text);
  std::ostringstream os;
  switch (kind) {
    case 0: streams::save_trace(os, streams::parse_trace(is)); break;
    case 1: tsv::save_linear_model(os, tsv::load_linear_model(is)); break;
    default: core::save_assignment(os, core::load_assignment(is)); break;
  }
  return os.str();
}

std::optional<std::string> check_io_case(const IoCase& io) {
  std::string saved1;
  try {
    saved1 = parse_and_resave(io.kind, io.text);
  } catch (const std::runtime_error& e) {
    if (!io.mutated) {
      return std::string("pristine ") + io_kind_name(io.kind) + " file rejected: " + e.what();
    }
    return std::nullopt;  // rejecting mutated input with runtime_error is the contract
  } catch (const std::exception& e) {
    return std::string("parser leaked a non-runtime_error exception: ") + e.what();
  } catch (...) {
    return "parser leaked a non-standard exception";
  }
  if (!io.mutated && saved1 != io.text) {
    return "save -> load -> save is not byte-identical on a pristine file";
  }
  // Whatever the parser accepted (even from a mutated file) must itself be a
  // stable fixed point of the save/load pair.
  try {
    const std::string saved2 = parse_and_resave(io.kind, saved1);
    if (saved2 != saved1) return "accepted input is not a save/load fixed point";
  } catch (const std::exception& e) {
    return std::string("re-parse of saved output failed: ") + e.what();
  }
  return std::nullopt;
}

std::vector<IoCase> shrink_io_case(const IoCase& io) {
  std::vector<IoCase> out;
  // Drop one line at a time, then halve by truncation.
  std::vector<std::size_t> starts{0};
  for (std::size_t p = 0; p < io.text.size(); ++p) {
    if (io.text[p] == '\n' && p + 1 < io.text.size()) starts.push_back(p + 1);
  }
  if (starts.size() > 1) {
    for (std::size_t k = 0; k < starts.size() && k < 32; ++k) {
      IoCase c = io;
      std::size_t end = io.text.find('\n', starts[k]);
      end = end == std::string::npos ? io.text.size() : end + 1;
      c.text = io.text.substr(0, starts[k]) + io.text.substr(end);
      c.mutated = true;  // no longer the pristine save output
      out.push_back(std::move(c));
    }
  }
  if (io.text.size() > 1) {
    IoCase c = io;
    c.text = io.text.substr(0, io.text.size() / 2);
    c.mutated = true;
    out.push_back(std::move(c));
  }
  return out;
}

std::string describe_io_case(const IoCase& io) {
  std::string shown = io.text.substr(0, 400);
  if (shown.size() < io.text.size()) shown += "...(truncated)";
  return std::string(io_kind_name(io.kind)) + (io.mutated ? " (mutated)" : " (pristine)") +
         " <<<\n" + shown + "\n>>>";
}

// ---------------------------------------------------------------------------
// Oracle 6: .tsvb binary format round-trips and byte-mutation fuzzing.
// ---------------------------------------------------------------------------

struct BinCase {
  std::size_t width = 1;
  std::vector<std::uint64_t> words;  ///< payload of the pristine image
  std::uint64_t seed = 0;
  std::vector<unsigned char> bytes;  ///< serialized image, possibly mutated
  bool mutated = false;
};

BinCase gen_bin_case(Rng& rng) {
  BinCase bc;
  bc.width = 1 + rng.below(64);
  bc.words = gen_trace(rng, bc.width, rng.below(40));
  bc.seed = rng.u64();
  std::ostringstream os;
  streams::save_binary_trace(os, bc.words, bc.width, bc.seed);
  const std::string s = os.str();
  bc.bytes.assign(s.begin(), s.end());
  bc.mutated = rng.chance(0.6);
  if (bc.mutated) {
    // Byte-level mutations hit the header (magic, version, width, count) and
    // the payload (truncation, trailing bytes, overwide bits) alike.
    const std::size_t edits = 1 + rng.below(8);
    for (std::size_t k = 0; k < edits && !bc.bytes.empty(); ++k) {
      switch (rng.below(4)) {
        case 0:
          bc.bytes[rng.below(bc.bytes.size())] ^=
              static_cast<unsigned char>(1u << rng.below(8));
          break;
        case 1: bc.bytes.resize(rng.below(bc.bytes.size() + 1)); break;
        case 2: bc.bytes.push_back(static_cast<unsigned char>(rng.below(256))); break;
        default:
          bc.bytes[rng.below(bc.bytes.size())] = static_cast<unsigned char>(rng.below(256));
          break;
      }
    }
  }
  return bc;
}

std::optional<std::string> check_bin_case(const BinCase& bc) {
  // Stage the image in an 8-aligned buffer, exactly what mmap guarantees.
  std::vector<std::uint64_t> aligned((bc.bytes.size() + 7) / 8 + 1);
  if (!bc.bytes.empty()) std::memcpy(aligned.data(), bc.bytes.data(), bc.bytes.size());
  const std::span<const std::byte> image{reinterpret_cast<const std::byte*>(aligned.data()),
                                         bc.bytes.size()};
  streams::BinaryTraceView view;
  try {
    view = streams::parse_binary_trace(image);
  } catch (const std::runtime_error& e) {
    if (!bc.mutated) return std::string("pristine .tsvb image rejected: ") + e.what();
    return std::nullopt;  // rejecting mutated input with runtime_error is the contract
  } catch (const std::exception& e) {
    return std::string("parser leaked a non-runtime_error exception: ") + e.what();
  } catch (...) {
    return "parser leaked a non-standard exception";
  }

  // Whatever the parser accepted must re-serialize byte-identically: the
  // format is canonical (no optional padding, no ignored fields).
  std::ostringstream os;
  streams::save_binary_trace(os, view.words, view.header.width, view.header.seed);
  const std::string again = os.str();
  if (again.size() != bc.bytes.size() ||
      !std::equal(again.begin(), again.end(), bc.bytes.begin(),
                  [](char a, unsigned char b) { return static_cast<unsigned char>(a) == b; })) {
    return "accepted image does not re-serialize byte-identically";
  }

  if (!bc.mutated) {
    if (view.header.width != bc.width || view.header.seed != bc.seed ||
        view.header.word_count != bc.words.size()) {
      return "header fields did not round-trip";
    }
    // Format equivalence: the text pipeline and the binary pipeline must
    // decode the same trace to the same words.
    std::ostringstream ts;
    streams::save_trace(ts, bc.words);
    std::istringstream is(ts.str());
    const auto from_text = streams::parse_trace(is);
    if (from_text != std::vector<std::uint64_t>(view.words.begin(), view.words.end())) {
      return "text and binary pipelines decode to different words";
    }
  }
  return std::nullopt;
}

std::vector<BinCase> shrink_bin_case(const BinCase& bc) {
  std::vector<BinCase> out;
  if (!bc.mutated) {
    // Pristine failure: shrink the word list and re-serialize.
    for (const auto& [b, e] : subrange_candidates(bc.words.size(), 0)) {
      BinCase c = bc;
      if (b == e) {
        c.words.erase(c.words.begin() + static_cast<std::ptrdiff_t>(b));
      } else {
        c.words.assign(bc.words.begin() + static_cast<std::ptrdiff_t>(b),
                       bc.words.begin() + static_cast<std::ptrdiff_t>(e));
      }
      std::ostringstream os;
      streams::save_binary_trace(os, c.words, c.width, c.seed);
      const std::string s = os.str();
      c.bytes.assign(s.begin(), s.end());
      out.push_back(std::move(c));
    }
    return out;
  }
  // Mutated failure: shrink the byte image directly.
  if (bc.bytes.size() > 1) {
    BinCase c = bc;
    c.bytes.resize(bc.bytes.size() / 2);
    out.push_back(std::move(c));
  }
  for (std::size_t k = 0; k < bc.bytes.size() && k < 24; ++k) {
    BinCase c = bc;
    c.bytes.erase(c.bytes.begin() + static_cast<std::ptrdiff_t>(k));
    out.push_back(std::move(c));
  }
  return out;
}

std::string describe_bin_case(const BinCase& bc) {
  std::ostringstream os;
  os << ".tsvb width=" << bc.width << (bc.mutated ? " (mutated)" : " (pristine)") << " seed=0x"
     << std::hex << bc.seed << std::dec << " image=" << bc.bytes.size()
     << " bytes\n  words=" << hex_words(bc.words) << "\n  bytes=" << std::hex;
  for (std::size_t i = 0; i < bc.bytes.size() && i < 64; ++i) {
    os << (i ? " " : "") << static_cast<unsigned>(bc.bytes[i]);
  }
  if (bc.bytes.size() > 64) os << " ...(" << std::dec << bc.bytes.size() << " total)";
  return os.str();
}

// --- noc_coded ------------------------------------------------------------
// Coding on the vertical TSV links must be invisible to the fabric: the
// receiver decodes before the flit re-enters a ring, so the delivery stream
// (payloads and latencies, folded into the ejection digest) and the link
// utilization are byte-identical with and without coding, for every codec
// family. On top of that the coded run must stay bit-identical across thread
// counts, flits must be conserved, and bus-invert must honour its energy
// contract (coded line toggles <= uncoded payload toggles per vertical link).

struct NocCase {
  std::size_t nx = 2, ny = 2, nz = 2;
  noc::SpatialPattern pattern = noc::SpatialPattern::Uniform;
  noc::PayloadModel payload = noc::PayloadModel::Random;
  double rate = 0.3;
  std::size_t flit_width = 16;
  std::size_t cycles = 128;
  std::uint64_t traffic_seed = 1;
  std::string codec = "bus-invert";
};

NocCase gen_noc_case(Rng& rng) {
  static const char* kCodecs[] = {"gray",           "correlator", "bus-invert",
                                  "coupling-invert", "t0",         "fibonacci"};
  static const noc::SpatialPattern kPatterns[] = {
      noc::SpatialPattern::Uniform, noc::SpatialPattern::Hotspot,
      noc::SpatialPattern::Transpose};
  static const noc::PayloadModel kPayloads[] = {
      noc::PayloadModel::Random, noc::PayloadModel::Dsp, noc::PayloadModel::Mems};
  NocCase nc;
  nc.nx = rng.range(1, 3);
  nc.ny = rng.range(1, 3);
  nc.nz = rng.range(2, 4);  // at least one vertical hop available
  nc.pattern = kPatterns[rng.below(3)];
  nc.payload = kPayloads[rng.below(3)];
  nc.rate = rng.real(0.05, 1.0);
  nc.flit_width = rng.range(4, 24);
  nc.cycles = rng.range(32, 384);
  nc.traffic_seed = rng.u64();
  nc.codec = kCodecs[rng.below(std::size(kCodecs))];
  return nc;
}

std::optional<std::string> check_noc_case(const NocCase& nc) {
  noc::Mesh3D mesh(nc.nx, nc.ny, nc.nz);
  noc::TrafficConfig cfg;
  cfg.spatial = nc.pattern;
  cfg.payload = nc.payload;
  cfg.injection_rate = nc.rate;
  cfg.flit_width = nc.flit_width;
  cfg.seed = nc.traffic_seed;

  noc::NocSimulator plain(mesh, cfg);
  const noc::SimStats base = plain.run(nc.cycles);

  noc::NocSimulator coded(mesh, cfg);
  coded.attach_vertical_coding({.name = nc.codec});
  const noc::SimStats cs = coded.run(nc.cycles);

  if (base.injected != base.delivered + base.in_flight) {
    return "uncoded run violates flit conservation";
  }
  if (cs.injected != cs.delivered + cs.in_flight) return "coded run violates flit conservation";
  if (cs.ejection_digest != base.ejection_digest) {
    return "coded delivery stream differs from uncoded (digest mismatch: payloads or "
           "latencies corrupted by the codec)";
  }
  if (cs.delivered != base.delivered || cs.injected != base.injected ||
      cs.latency_cycles != base.latency_cycles) {
    return "coding changed delivery counts or latency totals";
  }
  if (cs.link_flits != base.link_flits || cs.link_toggles != base.link_toggles) {
    return "coding changed link utilization (payload-domain counters must not move)";
  }

  for (std::size_t i = 0; i < mesh.node_count(); ++i) {
    for (int p = 0; p < noc::kPortCount; ++p) {
      const auto d = static_cast<noc::Direction>(p);
      const std::size_t slot = noc::link_slot(i, d);
      const bool vertical =
          noc::Mesh3D::is_vertical(d) && mesh.neighbor_index(i, d) != noc::Mesh3D::npos;
      if (!vertical && cs.link_coded_toggles[slot] != 0) {
        return "coded toggles recorded on a non-vertical slot " +
               noc::link_name(noc::LinkId{mesh.node(i), d});
      }
      if (vertical && nc.codec == "bus-invert" &&
          cs.link_coded_toggles[slot] > cs.link_toggles[slot]) {
        return "bus-invert coded toggles exceed uncoded toggles on " +
               noc::link_name(noc::LinkId{mesh.node(i), d});
      }
    }
  }

  // Thread-count invariance of the coded fabric. Each Z-slab rank owns at
  // least 64 routers, so on these meshes (at most 36 routers) a 2-thread run
  // takes the serial loop; Simulator.BitIdenticalAcrossThreadCounts runs the
  // coded fabric at 2 and 8 ranks.
  noc::SimOptions two;
  two.threads = 2;
  noc::NocSimulator coded2(mesh, cfg, two);
  coded2.attach_vertical_coding({.name = nc.codec});
  if (!(coded2.run(nc.cycles) == cs)) {
    return "coded run is not bit-identical at 2 threads";
  }
  return std::nullopt;
}

std::vector<NocCase> shrink_noc_case(const NocCase& nc) {
  std::vector<NocCase> out;
  if (nc.cycles > 32) {
    NocCase c = nc;
    c.cycles = std::max<std::size_t>(32, nc.cycles / 2);
    out.push_back(c);
  }
  const auto dim = [&](std::size_t NocCase::* field, std::size_t floor_value) {
    if (nc.*field > floor_value) {
      NocCase c = nc;
      c.*field = floor_value;
      out.push_back(c);
    }
  };
  dim(&NocCase::nx, 1);
  dim(&NocCase::ny, 1);
  dim(&NocCase::nz, 2);
  if (nc.flit_width > 4) {
    NocCase c = nc;
    c.flit_width = 4;
    out.push_back(c);
  }
  if (nc.payload != noc::PayloadModel::Random) {
    NocCase c = nc;
    c.payload = noc::PayloadModel::Random;
    out.push_back(c);
  }
  return out;
}

std::string describe_noc_case(const NocCase& nc) {
  std::ostringstream os;
  os << nc.nx << 'x' << nc.ny << 'x' << nc.nz << " mesh, pattern="
     << static_cast<int>(nc.pattern) << " payload=" << static_cast<int>(nc.payload)
     << " rate=" << nc.rate << " flit_width=" << nc.flit_width << " cycles=" << nc.cycles
     << " codec=" << nc.codec << " seed=0x" << std::hex << nc.traffic_seed;
  return os.str();
}

}  // namespace

Report oracle_codec_roundtrip(const RunOptions& opt) {
  return check_property<CodecCase>("codec_roundtrip", opt, gen_codec_case, check_codec_case,
                                   shrink_codec_case, describe_codec_case);
}

Report oracle_evaluator_drift(const RunOptions& opt) {
  return check_property<EvalCase>("evaluator_drift", opt, gen_eval_case, check_eval_case,
                                  shrink_eval_case, describe_eval_case);
}

Report oracle_stats_reference(const RunOptions& opt) {
  return check_property<StatsCase>("stats_reference", opt, gen_stats_case, check_stats_case,
                                   shrink_stats_case, describe_stats_case);
}

Report oracle_field_consistency(const RunOptions& opt) {
  return check_property<FieldCase>("field_consistency", opt, gen_field_case, check_field_case,
                                   shrink_field_case, describe_field_case);
}

Report oracle_io_roundtrip(const RunOptions& opt) {
  return check_property<IoCase>("io_roundtrip", opt, gen_io_case, check_io_case, shrink_io_case,
                                describe_io_case);
}

Report oracle_binary_roundtrip(const RunOptions& opt) {
  return check_property<BinCase>("binary_roundtrip", opt, gen_bin_case, check_bin_case,
                                 shrink_bin_case, describe_bin_case);
}

Report oracle_noc_coded(const RunOptions& opt) {
  return check_property<NocCase>("noc_coded", opt, gen_noc_case, check_noc_case, shrink_noc_case,
                                 describe_noc_case);
}

std::vector<Report> run_all_oracles(const RunOptions& opt) {
  const auto sub = [&](std::uint64_t salt, std::size_t iterations) {
    RunOptions s = opt;
    s.seed = derive_seed(opt.seed, 0xC0DEC000 + salt);
    s.iterations = iterations;
    return s;
  };
  std::vector<Report> out;
  out.push_back(oracle_codec_roundtrip(sub(1, opt.iterations)));
  out.push_back(oracle_evaluator_drift(sub(2, opt.iterations)));
  out.push_back(oracle_stats_reference(sub(3, opt.iterations)));
  // Field solves carry a dense LU each; keep their share of the budget small.
  out.push_back(oracle_field_consistency(sub(4, std::max<std::size_t>(2, opt.iterations / 10))));
  out.push_back(oracle_io_roundtrip(sub(5, opt.iterations)));
  out.push_back(oracle_binary_roundtrip(sub(6, opt.iterations)));
  // Each NoC case runs three full simulations; a fifth of the budget keeps
  // the wall-clock share comparable to the other oracles.
  out.push_back(oracle_noc_coded(sub(7, std::max<std::size_t>(2, opt.iterations / 5))));
  return out;
}

}  // namespace tsvcod::check
