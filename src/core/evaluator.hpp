#pragma once
// Incremental power evaluator for assignment search.
//
// A full <T', C'> evaluation is O(N^2); annealing needs ~10^4-10^5 of them
// per bundle. A swap touches two lines and an inversion toggle touches one,
// so only terms involving those lines change — including the capacitances
// C'_lj of every pair containing an affected line (eps_l changed). This
// evaluator maintains the assignment plus the running power and updates it
// in O(N) per move, with moves being self-inverse (repeat to undo), which is
// exactly what the annealer needs.
//
// The per-line state (self activity, centered one-probability, inversion
// sign) lives in contiguous arrays, and the bit-space coupling matrix is
// kept gathered into line space (coup_line_[i][j] = coupling(bit_of_line(i),
// bit_of_line(j)); a swap exchanges one row and one column, a toggle leaves
// it untouched). Every O(N) update is then one or two dense row reductions
// over contiguous memory, dispatched through src/simd to AVX2/AVX-512 FMA
// kernels with a fixed lane-combining order per level. score() prices a
// candidate move against the current state without mutating it, so the
// annealer needs no apply/undo pair for a rejected move.
//
// The row kernel is resolved once per reset(), and each line's "before"
// terms over the current state (its row sum less the diagonal lane, its
// ground term, and their sum) are cached until the next commit or reset. A
// rejected move therefore runs the kernel only for its two "after" rows; its
// "before" terms come from the cache, less the one pair lane a swap shares,
// and a cached term is the same operations on the same inputs, so it is
// bit-equal to a fresh one. score() fills that cache, so an evaluator must
// not be shared between threads.
//
// Invariant (checked in tests and the evaluator_drift oracle): power()
// equals assignment_power() of the current assignment up to eps-scale
// floating-point accumulation, at every dispatch level.

#include "core/assignment.hpp"
#include "core/power.hpp"
#include "simd/dispatch.hpp"
#include "stats/switching_stats.hpp"
#include "tsv/linear_model.hpp"

namespace tsvcod::core {

namespace detail {
struct RowArgs;  // row-kernel arguments (core/evaluator.cpp)
}

class PowerEvaluator {
 public:
  /// One candidate annealing move: a swap of two bits, or an inversion
  /// toggle of bit `a` (`b` is ignored for toggles).
  struct Move {
    bool is_toggle = false;
    std::size_t a = 0;
    std::size_t b = 0;
  };

  PowerEvaluator(const stats::SwitchingStats& bit_stats, const tsv::LinearCapacitanceModel& model,
                 SignedPermutation initial);

  double power() const { return power_; }
  const SignedPermutation& assignment() const { return assignment_; }

  /// Restart from a new assignment (same stats/model); also clears any
  /// floating-point drift accumulated by the incremental updates.
  void reset(SignedPermutation assignment);

  /// Exchange the lines of two bits; returns the new total power.
  /// Throws std::out_of_range naming the index and width on a bad bit.
  double swap_bits(std::size_t bit_a, std::size_t bit_b);
  /// Flip one bit's inversion; returns the new total power.
  /// Throws std::out_of_range naming the index and width on a bad bit.
  double toggle_inversion(std::size_t bit);

  /// A move priced by score(): the total power after it, and the current
  /// power terms the move replaces.
  struct Score {
    double power = 0.0;
    double before = 0.0;
  };

  /// Price one candidate move against the current state WITHOUT mutating
  /// it. The scored power matches the later applied value to the same
  /// eps-scale drift bound the incremental updates carry (oracle:
  /// evaluator_drift). Throws std::out_of_range naming the index and width
  /// on a bad bit.
  Score score(const Move& m) const;

  /// Apply a move that score() just priced, with no mutation in between:
  /// the same update as swap_bits / toggle_inversion, bit for bit, minus
  /// re-pricing the before-terms. Returns the new total power.
  double apply(const Move& m, const Score& scored);

  /// O(N^2) reference recomputation (for verification).
  double recompute() const;

 private:
  using RowFn = double (*)(const detail::RowArgs&);

  /// Sum of all power terms involving at least one line in {la, lb}
  /// (lb == SIZE_MAX for single-line moves).
  double terms_involving(std::size_t la, std::size_t lb) const;
  /// A line's cached "before" terms: `row` is its row-kernel sum less the
  /// diagonal lane, `ground` its self term self_l * C'_ll, `total` their sum.
  struct LineTerms {
    double total, row, ground;
  };
  /// The terms of `line` over the current state, from the cache.
  const LineTerms& line_terms(std::size_t line) const;
  detail::RowArgs current_row(std::size_t line) const;
  /// Apply a valid move given the terms_involving() of its lines beforehand.
  double commit(const Move& m, double before);
  void refresh_line(std::size_t line);
  void rebuild_line_coupling();
  void swap_coupling_lines(std::size_t la, std::size_t lb);
  void check_bit(std::size_t bit, const char* fn) const;

  double c_prime(std::size_t li, std::size_t lj) const;
  double k_coupling(std::size_t li, std::size_t lj) const;

  const stats::SwitchingStats& bits_;
  const tsv::LinearCapacitanceModel& model_;
  SignedPermutation assignment_;
  std::size_t n_ = 0;
  simd::AlignedVector<double> line_self_;
  simd::AlignedVector<double> line_eps_;
  simd::AlignedVector<double> line_sign_;
  /// Line-space gather of the bit-space coupling matrix, row-major n x n.
  simd::AlignedVector<double> coup_line_;
  double power_ = 0.0;
  RowFn row_fn_ = nullptr;  ///< kernel for the level active at the last reset()
  /// line_terms() of each line for the current state; NaN total = not
  /// computed yet.
  mutable std::vector<LineTerms> terms_cache_;
};

}  // namespace tsvcod::core
