#pragma once
// Fixed-step backward-Euler MNA transient simulator.
//
// Unknowns are the node voltages (ground eliminated) plus one branch current
// per voltage source and per inductor. Capacitors and inductors use
// backward-Euler companion models — L-stable, so the sharp driver edges do
// not ring (trapezoidal ringing would corrupt the rectified charge meter).
// For a fixed step the system matrix is constant: it is LU-factorized once
// (dense Doolittle with partial pivoting) and only the right-hand side
// changes per step — the property that makes multi-thousand-cycle link
// simulations cheap.
//
// After the factorization only the nonzero entries of L and U are kept, row
// by row in column order (CSR); the dense factors are dropped. Each step's
// forward and back substitution walks those entries. The result is exactly
// the dense substitution's: a skipped term is `x -= 0 * y`, which cannot
// change a finite x (at most the sign of an exact zero), every remaining
// term is applied in the dense loop's column order, and the arithmetic is
// plain multiply-then-subtract with no FMA contraction (this file builds for
// baseline x86-64, which has none).
//
// Sign conventions: a source's branch current flows from its + node through
// the source; `source_energy` reports the energy *delivered by* the source,
// which for a switched CMOS driver model equals the supply energy drawn.

#include <vector>

#include "circuit/netlist.hpp"
#include "phys/matrix.hpp"

namespace tsvcod::circuit {

class TransientSim {
 public:
  /// `dt` must be finite and positive.
  TransientSim(const Netlist& netlist, double dt);

  /// Advance one step of size dt.
  void step();
  /// Advance until `t_end` (inclusive of the last partial-free step).
  void run_until(double t_end);

  double time() const { return t_; }
  double node_voltage(int node) const;
  /// Energy delivered by source `id` since t = 0 [J] (∫ v·i dt).
  double source_energy(int id) const;

 private:
  /// Nonzero off-diagonal entries of a triangular factor, row by row in
  /// ascending column order.
  struct SparseRows {
    std::vector<std::size_t> start;  ///< row k spans [start[k], start[k + 1])
    std::vector<int> col;
    std::vector<double> val;
  };

  phys::Matrix assemble() const;
  void factorize(phys::Matrix& a);
  void solve_step();

  const Netlist& net_;
  double dt_;
  double t_ = 0.0;
  int n_nodes_;
  int n_src_;
  int n_ind_;
  int dim_;

  std::vector<std::size_t> pivot_;  ///< row swapped with row k at elimination step k
  SparseRows lower_;              ///< unit lower factor L (diagonal implicit)
  SparseRows upper_;              ///< upper factor U without its diagonal
  std::vector<double> u_diag_;    ///< diagonal of U
  std::vector<double> x_;         ///< current solution (voltages + branch currents)
  std::vector<double> rhs_;       ///< right-hand side, solved in place into the next x_
  std::vector<double> cap_v_;     ///< capacitor voltages (history)
  std::vector<double> v_src_;     ///< source voltages at t_
  std::vector<double> v_next_;    ///< source voltages at t_ + dt (per-step scratch)
  std::vector<double> src_energy_;
};

}  // namespace tsvcod::circuit
