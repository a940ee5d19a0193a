#include "circuit/transient.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tsvcod::circuit {

namespace {

constexpr int kGround = Netlist::kGround;

}  // namespace

TransientSim::TransientSim(const Netlist& netlist, double dt) : net_(netlist), dt_(dt) {
  if (!(dt > 0.0) || !std::isfinite(dt)) {
    throw std::invalid_argument("TransientSim: dt must be finite and positive");
  }
  n_nodes_ = net_.node_count();
  n_src_ = static_cast<int>(net_.sources().size());
  n_ind_ = static_cast<int>(net_.inductors().size());
  dim_ = n_nodes_ + n_src_ + n_ind_;
  if (dim_ == 0) throw std::invalid_argument("TransientSim: empty netlist");
  x_.assign(static_cast<std::size_t>(dim_), 0.0);
  rhs_.assign(static_cast<std::size_t>(dim_), 0.0);
  cap_v_.assign(net_.capacitors().size(), 0.0);
  v_src_.resize(static_cast<std::size_t>(n_src_));
  for (int s = 0; s < n_src_; ++s) {
    v_src_[static_cast<std::size_t>(s)] = net_.sources()[static_cast<std::size_t>(s)].v(t_);
  }
  v_next_.assign(static_cast<std::size_t>(n_src_), 0.0);
  src_energy_.assign(static_cast<std::size_t>(n_src_), 0.0);
  phys::Matrix a = assemble();
  factorize(a);
}

phys::Matrix TransientSim::assemble() const {
  phys::Matrix a(static_cast<std::size_t>(dim_), static_cast<std::size_t>(dim_));
  const auto idx = [](int node) { return static_cast<std::size_t>(node - 1); };
  const auto stamp_conductance = [&](int p, int q, double g) {
    if (p != kGround) a(idx(p), idx(p)) += g;
    if (q != kGround) a(idx(q), idx(q)) += g;
    if (p != kGround && q != kGround) {
      a(idx(p), idx(q)) -= g;
      a(idx(q), idx(p)) -= g;
    }
  };
  for (const auto& r : net_.resistors()) stamp_conductance(r.a, r.b, 1.0 / r.ohms);
  for (const auto& c : net_.capacitors()) stamp_conductance(c.a, c.b, c.farads / dt_);

  for (int s = 0; s < n_src_; ++s) {
    const auto& src = net_.sources()[static_cast<std::size_t>(s)];
    const std::size_t row = static_cast<std::size_t>(n_nodes_ + s);
    if (src.plus != kGround) {
      a(row, idx(src.plus)) = 1.0;
      a(idx(src.plus), row) = 1.0;
    }
    if (src.minus != kGround) {
      a(row, idx(src.minus)) = -1.0;
      a(idx(src.minus), row) = -1.0;
    }
  }
  for (int l = 0; l < n_ind_; ++l) {
    const auto& ind = net_.inductors()[static_cast<std::size_t>(l)];
    const std::size_t row = static_cast<std::size_t>(n_nodes_ + n_src_ + l);
    if (ind.a != kGround) {
      a(row, idx(ind.a)) = 1.0;
      a(idx(ind.a), row) = 1.0;
    }
    if (ind.b != kGround) {
      a(row, idx(ind.b)) = -1.0;
      a(idx(ind.b), row) = -1.0;
    }
    a(row, row) = -ind.henries / dt_;
  }
  return a;
}

void TransientSim::factorize(phys::Matrix& a) {
  const int n = dim_;
  const auto at = [&](int r, int c) -> double& {
    return a(static_cast<std::size_t>(r), static_cast<std::size_t>(c));
  };
  pivot_.resize(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    // Partial pivoting.
    int p = k;
    double best = std::abs(at(k, k));
    for (int r = k + 1; r < n; ++r) {
      const double v = std::abs(at(r, k));
      if (v > best) {
        best = v;
        p = r;
      }
    }
    if (best < 1e-300) throw std::runtime_error("TransientSim: singular MNA matrix");
    pivot_[static_cast<std::size_t>(k)] = static_cast<std::size_t>(p);
    if (p != k) {
      for (int c = 0; c < n; ++c) std::swap(at(k, c), at(p, c));
    }
    const double pivot = at(k, k);
    for (int r = k + 1; r < n; ++r) {
      const double f = at(r, k) / pivot;
      at(r, k) = f;
      if (f == 0.0) continue;
      for (int c = k + 1; c < n; ++c) at(r, c) -= f * at(k, c);
    }
  }

  // Keep the nonzeros only: a zero factor entry contributes nothing to the
  // substitutions.
  lower_.start.assign(1, 0);
  upper_.start.assign(1, 0);
  u_diag_.resize(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    for (int c = 0; c < n; ++c) {
      const double v = at(k, c);
      if (c == k) {
        u_diag_[static_cast<std::size_t>(k)] = v;
      } else if (v != 0.0) {
        SparseRows& rows = c < k ? lower_ : upper_;
        rows.col.push_back(c);
        rows.val.push_back(v);
      }
    }
    lower_.start.push_back(lower_.col.size());
    upper_.start.push_back(upper_.col.size());
  }
}

void TransientSim::solve_step() {
  const std::size_t n = rhs_.size();
  double* b = rhs_.data();
  // Apply the row permutation, then forward/back substitution over the
  // nonzeros in column order.
  for (std::size_t k = 0; k < n; ++k) {
    if (pivot_[k] != k) std::swap(b[k], b[pivot_[k]]);
    double v = b[k];
    for (std::size_t e = lower_.start[k]; e < lower_.start[k + 1]; ++e) {
      v -= lower_.val[e] * b[lower_.col[e]];
    }
    b[k] = v;
  }
  for (std::size_t k = n; k-- > 0;) {
    double v = b[k];
    for (std::size_t e = upper_.start[k]; e < upper_.start[k + 1]; ++e) {
      v -= upper_.val[e] * b[upper_.col[e]];
    }
    b[k] = v / u_diag_[k];
  }
}

double TransientSim::node_voltage(int node) const {
  if (node == kGround) return 0.0;
  if (node < 0 || node > n_nodes_) throw std::invalid_argument("node_voltage: unknown node");
  return x_[static_cast<std::size_t>(node - 1)];
}

double TransientSim::source_energy(int id) const {
  if (id < 0 || id >= n_src_) throw std::invalid_argument("source_energy: unknown source");
  return src_energy_[static_cast<std::size_t>(id)];
}

void TransientSim::step() {
  const double t_next = t_ + dt_;
  std::fill(rhs_.begin(), rhs_.end(), 0.0);

  // Capacitor history currents (backward-Euler companion: G = C/dt).
  for (std::size_t k = 0; k < net_.capacitors().size(); ++k) {
    const auto& c = net_.capacitors()[k];
    const double hist = c.farads / dt_ * cap_v_[k];
    if (c.a != kGround) rhs_[static_cast<std::size_t>(c.a - 1)] += hist;
    if (c.b != kGround) rhs_[static_cast<std::size_t>(c.b - 1)] -= hist;
  }
  // Source voltages at the new time.
  for (int s = 0; s < n_src_; ++s) {
    const double v = net_.sources()[static_cast<std::size_t>(s)].v(t_next);
    v_next_[static_cast<std::size_t>(s)] = v;
    rhs_[static_cast<std::size_t>(n_nodes_ + s)] = v;
  }
  // Inductor history (backward Euler: v = (L/dt)(i_new - i_old)).
  for (int l = 0; l < n_ind_; ++l) {
    const auto& ind = net_.inductors()[static_cast<std::size_t>(l)];
    const double i_prev = x_[static_cast<std::size_t>(n_nodes_ + n_src_ + l)];
    rhs_[static_cast<std::size_t>(n_nodes_ + n_src_ + l)] = -ind.henries / dt_ * i_prev;
  }

  solve_step();
  t_ = t_next;

  // Accumulate delivered energies (trapezoid) from the previous solution
  // (still in x_) and the new one (in rhs_). The MNA branch current flows
  // into the + terminal; delivered current is its negation.
  for (int s = 0; s < n_src_; ++s) {
    const std::size_t row = static_cast<std::size_t>(n_nodes_ + s);
    const double i_prev = -x_[row];
    const double i_new = -rhs_[row];
    const double p_prev = v_src_[static_cast<std::size_t>(s)] * i_prev;
    const double p_new = v_next_[static_cast<std::size_t>(s)] * i_new;
    src_energy_[static_cast<std::size_t>(s)] += 0.5 * (p_prev + p_new) * dt_;
  }
  x_.swap(rhs_);
  v_src_.swap(v_next_);

  // Update capacitor voltage histories with the new node voltages.
  for (std::size_t k = 0; k < net_.capacitors().size(); ++k) {
    const auto& c = net_.capacitors()[k];
    const double va = c.a == kGround ? 0.0 : x_[static_cast<std::size_t>(c.a - 1)];
    const double vb = c.b == kGround ? 0.0 : x_[static_cast<std::size_t>(c.b - 1)];
    cap_v_[k] = va - vb;
  }
}

void TransientSim::run_until(double t_end) {
  while (t_ + 0.5 * dt_ < t_end) step();
}

}  // namespace tsvcod::circuit
