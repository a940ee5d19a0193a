#pragma once
// Fixed-step backward-Euler MNA transient simulator.
//
// Unknowns are the node voltages (ground eliminated) plus one branch current
// per voltage source and per inductor. Capacitors and inductors use
// backward-Euler companion models — L-stable, so the sharp driver edges do
// not ring (trapezoidal ringing would corrupt the rectified charge meter).
//
// For a fixed step the circuit is a linear time-invariant discrete system:
// A·x_{n+1} = H·x_n + B·u_{n+1}, where H holds the capacitor and inductor
// histories and u the source voltages. The constructor factorizes A once
// (dense Doolittle with partial pivoting) and builds the state propagator
//
//     x_{n+1} = P·x_n + Q·u_{n+1},   P = A⁻¹H,  Q = A⁻¹B,
//
// one solve per column. P has columns only for the state: the voltages of
// nodes that carry a capacitor, and the inductor currents. Q has one column
// per source. A step is then one dense product that yields the next state
// and the source currents the energy meter reads: no right-hand side to
// assemble and no substitution chain. A node outside the state (a driver
// output, an RL midpoint) is computed when asked for, from its row of
// [P | Q] and the last step's input. Each row sums its products from +0 in
// fixed column order, multiply then add with no FMA, so every SIMD clone of
// the product, and the on-demand rows, give the same bits. Against the
// direct LU solve of each step the propagator rounds differently: the
// differential tests bound the gap at 1e-12 V and 1e-12 relative energy
// (DESIGN.md §5l).
//
// Sign conventions: a source's branch current flows from its + node through
// the source; `source_energy` reports the energy *delivered by* the source,
// which for a switched CMOS driver model equals the supply energy drawn.

#include <cstddef>
#include <vector>

#include "circuit/netlist.hpp"
#include "simd/dispatch.hpp"

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
  const Netlist& net_;
  double dt_;
  double t_ = 0.0;
  int n_nodes_;
  std::size_t n_state_;               ///< state columns of P (and leading output rows)
  std::size_t rows_;                  ///< output rows: state, source currents, padding
  simd::AlignedVector<double> pq_;    ///< [P | Q] output rows, column-major, rows_ per column
  std::vector<double> other_pq_;      ///< [P | Q] rows of the other nodes, row by row
  std::vector<std::size_t> node_row_; ///< node − 1 → output row, or rows_ + its other row
  simd::AlignedVector<double> in_;    ///< last step's input: x_n's state, then u_{n+1}
  simd::AlignedVector<double> out_;   ///< last step's output rows (x_{n+1})
  simd::AlignedVector<double> out_next_;
  std::vector<double> v_src_;         ///< source voltages at t_
  std::vector<double> src_energy_;
};

}  // namespace tsvcod::circuit
