#include "circuit/transient.hpp"

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/obs.hpp"
#include "obs/profile.hpp"
#include "phys/matrix.hpp"

namespace tsvcod::circuit {

namespace {

constexpr int kGround = Netlist::kGround;

/// Rows of the propagator are padded to whole AVX-512 vectors.
constexpr std::size_t kRowPad = 8;

// y = M·z for a column-major M with `rows` rows (a multiple of kRowPad) and
// `cols` columns. Vector lanes are rows: each row accumulates m·z from +0
// in ascending column order, a multiply then an add per term (this file
// builds with -ffp-contract=off), so every clone rounds exactly like the
// scalar loop. The clones sweep blocks of 32 rows, enough independent
// accumulators to keep the product bandwidth-bound rather than
// add-latency-bound, then the remaining rows in one narrower block.

void propagate_scalar(const double* m, const double* z, std::size_t rows, std::size_t cols,
                      double* y) {
  for (std::size_t r0 = 0; r0 < rows; r0 += kRowPad) {
    double acc[kRowPad] = {};
    for (std::size_t j = 0; j < cols; ++j) {
      const double* col = m + j * rows + r0;
      for (std::size_t r = 0; r < kRowPad; ++r) acc[r] += col[r] * z[j];
    }
    std::copy(acc, acc + kRowPad, y + r0);
  }
}

template <std::size_t V>
__attribute__((target("avx2"))) void block_avx2(const double* m, const double* z,
                                                std::size_t rows, std::size_t cols, double* y) {
  __m256d acc[V];
  for (auto& a : acc) a = _mm256_setzero_pd();
  for (std::size_t j = 0; j < cols; ++j) {
    const __m256d zj = _mm256_broadcast_sd(z + j);
    const double* col = m + j * rows;
    for (std::size_t v = 0; v < V; ++v) {
      acc[v] = _mm256_add_pd(acc[v], _mm256_mul_pd(_mm256_load_pd(col + 4 * v), zj));
    }
  }
  for (std::size_t v = 0; v < V; ++v) _mm256_store_pd(y + 4 * v, acc[v]);
}

__attribute__((target("avx2"))) void propagate_avx2(const double* m, const double* z,
                                                    std::size_t rows, std::size_t cols,
                                                    double* y) {
  std::size_t r0 = 0;
  for (; r0 + 32 <= rows; r0 += 32) block_avx2<8>(m + r0, z, rows, cols, y + r0);
  switch ((rows - r0) / kRowPad) {
    case 1: return block_avx2<2>(m + r0, z, rows, cols, y + r0);
    case 2: return block_avx2<4>(m + r0, z, rows, cols, y + r0);
    case 3: return block_avx2<6>(m + r0, z, rows, cols, y + r0);
    default: return;
  }
}

template <std::size_t V>
__attribute__((target("avx512f"))) void block_avx512(const double* m, const double* z,
                                                     std::size_t rows, std::size_t cols,
                                                     double* y) {
  __m512d acc[V];
  for (auto& a : acc) a = _mm512_setzero_pd();
  for (std::size_t j = 0; j < cols; ++j) {
    const __m512d zj = _mm512_set1_pd(z[j]);
    const double* col = m + j * rows;
    for (std::size_t v = 0; v < V; ++v) {
      acc[v] = _mm512_add_pd(acc[v], _mm512_mul_pd(_mm512_load_pd(col + 8 * v), zj));
    }
  }
  for (std::size_t v = 0; v < V; ++v) _mm512_store_pd(y + 8 * v, acc[v]);
}

__attribute__((target("avx512f"))) void propagate_avx512(const double* m, const double* z,
                                                         std::size_t rows, std::size_t cols,
                                                         double* y) {
  std::size_t r0 = 0;
  for (; r0 + 32 <= rows; r0 += 32) block_avx512<4>(m + r0, z, rows, cols, y + r0);
  switch ((rows - r0) / kRowPad) {
    case 1: return block_avx512<1>(m + r0, z, rows, cols, y + r0);
    case 2: return block_avx512<2>(m + r0, z, rows, cols, y + r0);
    case 3: return block_avx512<3>(m + r0, z, rows, cols, y + r0);
    default: return;
  }
}

void propagate(const double* m, const double* z, std::size_t rows, std::size_t cols, double* y) {
  switch (simd::active_level()) {
    case simd::Level::avx512:
      return propagate_avx512(m, z, rows, cols, y);
    case simd::Level::avx2:
      return propagate_avx2(m, z, rows, cols, y);
    default:
      return propagate_scalar(m, z, rows, cols, y);
  }
}

/// MNA matrix of the backward-Euler companion network with step `dt`.
phys::Matrix assemble(const Netlist& net, double dt, std::size_t dim) {
  phys::Matrix a(dim, dim);
  const auto idx = [](int node) { return static_cast<std::size_t>(node - 1); };
  const auto stamp_conductance = [&](int p, int q, double g) {
    if (p != kGround) a(idx(p), idx(p)) += g;
    if (q != kGround) a(idx(q), idx(q)) += g;
    if (p != kGround && q != kGround) {
      a(idx(p), idx(q)) -= g;
      a(idx(q), idx(p)) -= g;
    }
  };
  for (const auto& r : net.resistors()) stamp_conductance(r.a, r.b, 1.0 / r.ohms);
  for (const auto& c : net.capacitors()) stamp_conductance(c.a, c.b, c.farads / dt);

  const std::size_t n_nodes = static_cast<std::size_t>(net.node_count());
  const std::size_t n_src = net.sources().size();
  // A branch row (source or inductor) ties the voltage across its terminals.
  const auto stamp_branch = [&](std::size_t row, int p, int q) {
    if (p != kGround) {
      a(row, idx(p)) = 1.0;
      a(idx(p), row) = 1.0;
    }
    if (q != kGround) {
      a(row, idx(q)) = -1.0;
      a(idx(q), row) = -1.0;
    }
  };
  for (std::size_t s = 0; s < n_src; ++s) {
    stamp_branch(n_nodes + s, net.sources()[s].plus, net.sources()[s].minus);
  }
  for (std::size_t l = 0; l < net.inductors().size(); ++l) {
    const auto& ind = net.inductors()[l];
    const std::size_t row = n_nodes + n_src + l;
    stamp_branch(row, ind.a, ind.b);
    a(row, row) = -ind.henries / dt;
  }
  return a;
}

/// In-place dense LU with partial pivoting; returns the row swapped with
/// row k at elimination step k.
std::vector<std::size_t> factorize(phys::Matrix& a) {
  const std::size_t n = a.rows();
  std::vector<std::size_t> pivot(n);
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t p = k;
    double best = std::abs(a(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double v = std::abs(a(r, k));
      if (v > best) {
        best = v;
        p = r;
      }
    }
    if (best < 1e-300) throw std::runtime_error("TransientSim: singular MNA matrix");
    pivot[k] = p;
    if (p != k) {
      for (std::size_t c = 0; c < n; ++c) std::swap(a(k, c), a(p, c));
    }
    const double d = a(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double f = a(r, k) / d;
      a(r, k) = f;
      if (f == 0.0) continue;
      for (std::size_t c = k + 1; c < n; ++c) a(r, c) -= f * a(k, c);
    }
  }
  return pivot;
}

/// Overwrite the right-hand sides `b` (one per column, row-major) with
/// A⁻¹·b, given the factors and pivots of `factorize`.
void solve_columns(const phys::Matrix& lu, const std::vector<std::size_t>& pivot,
                   phys::Matrix& b) {
  const std::size_t n = lu.rows();
  const std::size_t m = b.cols();
  double* x = b.data().data();
  for (std::size_t k = 0; k < n; ++k) {
    if (pivot[k] != k) std::swap_ranges(x + k * m, x + (k + 1) * m, x + pivot[k] * m);
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t c = 0; c < k; ++c) {
      const double f = lu(k, c);
      if (f == 0.0) continue;
      for (std::size_t j = 0; j < m; ++j) x[k * m + j] -= f * x[c * m + j];
    }
  }
  for (std::size_t k = n; k-- > 0;) {
    for (std::size_t c = k + 1; c < n; ++c) {
      const double f = lu(k, c);
      if (f == 0.0) continue;
      for (std::size_t j = 0; j < m; ++j) x[k * m + j] -= f * x[c * m + j];
    }
    for (std::size_t j = 0; j < m; ++j) x[k * m + j] /= lu(k, k);
  }
}

}  // namespace

TransientSim::TransientSim(const Netlist& netlist, double dt) : net_(netlist), dt_(dt) {
  if (!(dt > 0.0) || !std::isfinite(dt)) {
    throw std::invalid_argument("TransientSim: dt must be finite and positive");
  }
  obs::Span span("circuit.transient.setup");
  n_nodes_ = net_.node_count();
  const std::size_t n_nodes = static_cast<std::size_t>(n_nodes_);
  const std::size_t n_src = net_.sources().size();
  const std::size_t dim = n_nodes + n_src + net_.inductors().size();
  if (dim == 0) throw std::invalid_argument("TransientSim: empty netlist");

  // The state: every node a capacitor touches, then every inductor current.
  // Its rows lead the product's output, followed by the source currents the
  // energy meter reads; the other nodes' rows are kept apart.
  std::vector<bool> charged(n_nodes + 1, false);
  for (const auto& c : net_.capacitors()) {
    charged[static_cast<std::size_t>(c.a)] = charged[static_cast<std::size_t>(c.b)] = true;
  }
  std::vector<std::size_t> product_rows;  // unknown of each output row
  std::vector<std::size_t> other_rows;
  for (std::size_t node = 1; node <= n_nodes; ++node) {
    (charged[node] ? product_rows : other_rows).push_back(node - 1);
  }
  for (std::size_t l = 0; l < net_.inductors().size(); ++l) {
    product_rows.push_back(n_nodes + n_src + l);
  }
  n_state_ = product_rows.size();
  for (std::size_t s = 0; s < n_src; ++s) product_rows.push_back(n_nodes + s);
  const std::size_t cols = n_state_ + n_src;
  rows_ = (product_rows.size() + kRowPad - 1) / kRowPad * kRowPad;

  // Right-hand sides H·e_k for each state unknown k and B·e_s for each
  // source s, one column each.
  phys::Matrix rhs(dim, cols);
  std::vector<std::size_t> column_of(dim, cols);
  for (std::size_t j = 0; j < n_state_; ++j) column_of[product_rows[j]] = j;
  for (const auto& c : net_.capacitors()) {
    // History current g·(v_a − v_b) enters node a and leaves node b.
    const double g = c.farads / dt_;
    const auto stamp = [&](int node, int from, double sign) {
      if (node == kGround || from == kGround) return;
      rhs(static_cast<std::size_t>(node - 1), column_of[static_cast<std::size_t>(from - 1)]) +=
          sign * g;
    };
    stamp(c.a, c.a, 1.0);
    stamp(c.a, c.b, -1.0);
    stamp(c.b, c.a, -1.0);
    stamp(c.b, c.b, 1.0);
  }
  for (std::size_t l = 0; l < net_.inductors().size(); ++l) {
    const std::size_t row = n_nodes + n_src + l;
    rhs(row, column_of[row]) = -net_.inductors()[l].henries / dt_;
  }
  for (std::size_t s = 0; s < n_src; ++s) rhs(n_nodes + s, n_state_ + s) = 1.0;

  {
    phys::Matrix lu = assemble(net_, dt_, dim);
    const std::vector<std::size_t> pivot = factorize(lu);
    solve_columns(lu, pivot, rhs);
  }
  pq_.assign(cols * rows_, 0.0);
  node_row_.assign(n_nodes, 0);
  for (std::size_t r = 0; r < product_rows.size(); ++r) {
    for (std::size_t j = 0; j < cols; ++j) pq_[j * rows_ + r] = rhs(product_rows[r], j);
    if (product_rows[r] < n_nodes) node_row_[product_rows[r]] = r;
  }
  other_pq_.reserve(other_rows.size() * cols);
  for (std::size_t k = 0; k < other_rows.size(); ++k) {
    for (std::size_t j = 0; j < cols; ++j) other_pq_.push_back(rhs(other_rows[k], j));
    node_row_[other_rows[k]] = rows_ + k;
  }
  obs::profile_work("state_columns", n_state_);

  in_.assign(cols, 0.0);
  out_.assign(rows_, 0.0);
  out_next_.assign(rows_, 0.0);
  v_src_.resize(n_src);
  for (std::size_t s = 0; s < n_src; ++s) v_src_[s] = net_.sources()[s].v(t_);
  src_energy_.assign(n_src, 0.0);
}

double TransientSim::node_voltage(int node) const {
  if (node == kGround) return 0.0;
  if (node < 0 || node > n_nodes_) throw std::invalid_argument("node_voltage: unknown node");
  const std::size_t r = node_row_[static_cast<std::size_t>(node - 1)];
  if (r < rows_) return out_[r];
  // A node outside the product: its row of [P | Q] applied to the last
  // step's input, summed exactly as the product sums a row.
  const double* row = other_pq_.data() + (r - rows_) * in_.size();
  double v = 0.0;
  for (std::size_t j = 0; j < in_.size(); ++j) v += row[j] * in_[j];
  return v;
}

double TransientSim::source_energy(int id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= src_energy_.size()) {
    throw std::invalid_argument("source_energy: unknown source");
  }
  return src_energy_[static_cast<std::size_t>(id)];
}

void TransientSim::step() {
  const double t_next = t_ + dt_;
  // Input: the state, which leads the last output, then the new source
  // voltages.
  std::copy_n(out_.begin(), n_state_, in_.begin());
  const std::size_t n_src = v_src_.size();
  double* v_next = in_.data() + n_state_;
  for (std::size_t s = 0; s < n_src; ++s) v_next[s] = net_.sources()[s].v(t_next);

  propagate(pq_.data(), in_.data(), rows_, in_.size(), out_next_.data());
  t_ = t_next;

  // Accumulate delivered energies (trapezoid) from the previous solution
  // and the new one. The MNA branch current flows into the + terminal;
  // delivered current is its negation.
  for (std::size_t s = 0; s < n_src; ++s) {
    const double p_prev = v_src_[s] * -out_[n_state_ + s];
    const double p_new = v_next[s] * -out_next_[n_state_ + s];
    src_energy_[s] += 0.5 * (p_prev + p_new) * dt_;
    v_src_[s] = v_next[s];
  }
  out_.swap(out_next_);
}

void TransientSim::run_until(double t_end) {
  std::uint64_t steps = 0;
  for (; t_ + 0.5 * dt_ < t_end; ++steps) step();
  obs::profile_work("steps", steps);
}

}  // namespace tsvcod::circuit
