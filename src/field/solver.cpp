#include "field/solver.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "obs/obs.hpp"
#include "obs/profile.hpp"
#include "phys/constants.hpp"

namespace tsvcod::field {

namespace {

Complex harmonic_mean(Complex a, Complex b) {
  const Complex s = a + b;
  if (std::abs(s) == 0.0) return Complex{0.0, 0.0};
  return 2.0 * a * b / s;
}

// Complex arithmetic spelled out in real and imaginary parts, in the exact
// operation order the compiler emits for std::complex<double> (a*b is
// (ar*br - ai*bi, ar*bi + ai*br); norm is re*re + im*im). Results are
// bit-identical for finite operands; only the NaN-recovery call
// (__muldc3) that std::complex multiplication carries is gone.
inline Complex mul(Complex a, Complex b) {
  return {a.real() * b.real() - a.imag() * b.imag(), a.real() * b.imag() + a.imag() * b.real()};
}

/// conj(a) * b, with the conjugate's negated imaginary part as an operand.
inline Complex conj_mul(Complex a, Complex b) {
  const double ai = -a.imag();
  return {a.real() * b.real() - ai * b.imag(), a.real() * b.imag() + ai * b.real()};
}

inline double norm(Complex a) { return a.real() * a.real() + a.imag() * a.imag(); }

double norm2(const std::vector<Complex>& v) {
  double acc = 0.0;
  for (const auto& c : v) acc += norm(c);
  return std::sqrt(acc);
}

Complex dot(const std::vector<Complex>& a, const std::vector<Complex>& b) {
  Complex acc{0.0, 0.0};
  for (std::size_t i = 0; i < a.size(); ++i) acc += conj_mul(a[i], b[i]);
  return acc;
}

}  // namespace

FieldProblem::FieldProblem(const Grid& grid) : grid_(grid) {
  const std::size_t n = grid.size();
  free_index_.assign(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    if (grid.conductor(i) == kNoConductor) {
      free_index_[i] = static_cast<std::int64_t>(free_cells_.size());
      free_cells_.push_back(i);
    } else {
      ++dirichlet_count_;
    }
  }
  update_coefficients();
}

void FieldProblem::update_coefficients() {
  // Precompute east/north face weights for every cell.
  const std::size_t n = grid_.size();
  const std::size_t nx = grid_.nx();
  const std::size_t ny = grid_.ny();
  w_east_.assign(n, Complex{});
  w_north_.assign(n, Complex{});
  for (std::size_t iy = 0; iy < ny; ++iy) {
    for (std::size_t ix = 0; ix < nx; ++ix) {
      const std::size_t i = grid_.index(ix, iy);
      if (ix + 1 < nx) w_east_[i] = harmonic_mean(grid_.eps(i), grid_.eps(grid_.index(ix + 1, iy)));
      if (iy + 1 < ny) w_north_[i] = harmonic_mean(grid_.eps(i), grid_.eps(grid_.index(ix, iy + 1)));
    }
  }
  // Operator diagonal per unknown: every in-domain face weight (Dirichlet
  // neighbours included), then the domain-boundary faces, which see a
  // Dirichlet 0 through the cell's own permittivity.
  diag_.assign(free_cells_.size(), Complex{});
  for (std::size_t u = 0; u < free_cells_.size(); ++u) {
    const std::size_t i = free_cells_[u];
    const std::size_t ix = i % nx;
    const std::size_t iy = i / nx;
    Complex d{};
    if (ix + 1 < nx) d += w_east_[i];
    if (ix > 0) d += w_east_[i - 1];
    if (iy + 1 < ny) d += w_north_[i];
    if (iy > 0) d += w_north_[i - nx];
    if (ix == 0 || ix + 1 == nx) d += grid_.eps(i);
    if (iy == 0 || iy + 1 == ny) d += grid_.eps(i);
    diag_[u] = d;
  }
  std::lock_guard<std::mutex> lock(mg_mutex_);
  if (mg_) {
    std::vector<Complex> eps(n);
    for (std::size_t i = 0; i < n; ++i) eps[i] = grid_.eps(i);
    mg_->update_coefficients(eps);
  }
}

const Multigrid* FieldProblem::multigrid() const {
  std::lock_guard<std::mutex> lock(mg_mutex_);
  if (!mg_attempted_) {
    mg_attempted_ = true;
    if (Multigrid::viable(grid_.nx(), grid_.ny(), unknowns())) {
      const std::size_t n = grid_.size();
      std::vector<std::uint8_t> dirichlet(n, 0);
      std::vector<Complex> eps(n);
      for (std::size_t i = 0; i < n; ++i) {
        dirichlet[i] = grid_.conductor(i) == kNoConductor ? 0 : 1;
        eps[i] = grid_.eps(i);
      }
      mg_ = std::make_unique<Multigrid>(grid_.nx(), grid_.ny(), dirichlet, eps);
    }
  }
  return mg_.get();
}

void FieldProblem::apply(const std::vector<Complex>& x, std::vector<Complex>& y) const {
  // y = A x where x is the unknown vector and A couples only free cells
  // (Dirichlet contributions live in the right-hand side). Unknowns are
  // numbered in cell order, so a row-by-row walk meets them as u = 0, 1, ...
  const std::size_t nx = grid_.nx();
  const std::size_t ny = grid_.ny();
  const std::int64_t* index = free_index_.data();
  const Complex* xs = x.data();
  std::size_t u = 0;
  for (std::size_t iy = 0; iy < ny; ++iy) {
    const bool has_north = iy + 1 < ny;
    const bool has_south = iy > 0;
    for (std::size_t ix = 0, i = iy * nx; ix < nx; ++ix, ++i) {
      if (index[i] < 0) continue;
      Complex off{};
      const auto face = [&](std::size_t j, Complex w) {
        const std::int64_t fj = index[j];
        if (fj >= 0) off += mul(w, xs[fj]);
      };
      if (ix + 1 < nx) face(i + 1, w_east_[i]);
      if (ix > 0) face(i - 1, w_east_[i - 1]);
      if (has_north) face(i + nx, w_north_[i]);
      if (has_south) face(i - nx, w_north_[i - nx]);
      y[u] = mul(diag_[u], xs[u]) - off;
      ++u;
    }
  }
}

std::vector<Complex> FieldProblem::solve(std::int32_t active, const SolverOptions& opts,
                                         SolveStats* stats) const {
  return solve(active, opts, std::span<const Complex>{}, stats);
}

std::vector<Complex> FieldProblem::rhs(std::int32_t active) const {
  const std::size_t nx = grid_.nx();
  const std::size_t ny = grid_.ny();
  std::vector<Complex> b(free_cells_.size(), Complex{});
  for (std::size_t u = 0; u < free_cells_.size(); ++u) {
    const std::size_t i = free_cells_[u];
    const std::size_t ix = i % nx;
    const std::size_t iy = i / nx;
    auto dirichlet = [&](std::size_t j, Complex w) {
      if (grid_.conductor(j) == active) b[u] += w;  // phi = 1 there
    };
    if (ix + 1 < nx && free_index_[i + 1] < 0) dirichlet(i + 1, w_east_[i]);
    if (ix > 0 && free_index_[i - 1] < 0) dirichlet(i - 1, w_east_[i - 1]);
    if (iy + 1 < ny && free_index_[i + nx] < 0) dirichlet(i + nx, w_north_[i]);
    if (iy > 0 && free_index_[i - nx] < 0) dirichlet(i - nx, w_north_[i - nx]);
  }
  return b;
}

std::vector<Complex> FieldProblem::solve(std::int32_t active, const SolverOptions& opts,
                                         std::span<const Complex> phi0, SolveStats* stats) const {
  obs::Span span("field.solve");
  const bool tracing = span.traced();
  std::vector<double> residual_history;  // per-iteration, trace-only
  long long vcycles = 0;
  const std::size_t nu = free_cells_.size();
  if (!phi0.empty() && phi0.size() != grid_.size()) {
    throw std::invalid_argument("solve: warm-start potential must be full-grid sized");
  }

  // Right-hand side: contributions of Dirichlet neighbours (active conductor
  // at 1 V; everything else at 0 V).
  const std::vector<Complex> b = rhs(active);

  // Resolve the preconditioner: multigrid falls back to Jacobi when the grid
  // is too small to coarsen.
  const Multigrid* mg = nullptr;
  if (opts.preconditioner == Preconditioner::multigrid) mg = multigrid();
  const Preconditioner pc = mg ? Preconditioner::multigrid : Preconditioner::jacobi;

  std::vector<Complex> x(nu, Complex{});
  double res = 0.0;
  int it = 0;
  bool trivial = false;

  if (norm2(b) == 0.0) {
    // No free cell touches the active conductor: phi = 0 is the exact
    // solution. Report it honestly instead of mimicking an iterative solve.
    trivial = true;
  } else {
    // Left preconditioner application z = M^-1 y. The V-cycle operates on
    // full-grid vectors, so scatter/gather around it.
    Multigrid::Workspace ws;
    std::vector<Complex> full_r, full_z;
    if (mg) {
      ws = mg->make_workspace();
      full_r.assign(grid_.size(), Complex{});
      full_z.assign(grid_.size(), Complex{});
    }
    auto precond = [&](const std::vector<Complex>& y, std::vector<Complex>& z) {
      if (!mg) {
        for (std::size_t u = 0; u < nu; ++u) z[u] = y[u] / diag_[u];
        return;
      }
      ++vcycles;
      for (std::size_t u = 0; u < nu; ++u) full_r[free_cells_[u]] = y[u];
      mg->v_cycle(full_r, full_z, ws);
      for (std::size_t u = 0; u < nu; ++u) z[u] = full_z[free_cells_[u]];
    };
    std::vector<Complex> tmp(nu);
    auto apply_prec = [&](const std::vector<Complex>& in, std::vector<Complex>& out) {
      apply(in, tmp);
      precond(tmp, out);
    };

    std::vector<Complex> bs(nu);
    precond(b, bs);
    const double bnorm = norm2(bs);

    // Initial guess and (preconditioned) initial residual.
    std::vector<Complex> r(nu);
    if (phi0.empty()) {
      r = bs;
    } else {
      for (std::size_t u = 0; u < nu; ++u) x[u] = phi0[free_cells_[u]];
      apply(x, tmp);
      for (std::size_t u = 0; u < nu; ++u) tmp[u] = b[u] - tmp[u];
      std::vector<Complex> pr(nu);
      precond(tmp, pr);
      r = pr;
    }

    if (bnorm == 0.0) {
      // Pathological: the preconditioner annihilated a nonzero rhs. Report
      // the zero iterate as a (trivially scaled) converged solution.
      x.assign(nu, Complex{});
      trivial = true;
    } else {
      std::vector<Complex> r0 = r;
      std::vector<Complex> p(nu, Complex{}), v(nu, Complex{}), s(nu), t(nu);
      Complex rho{1.0, 0.0}, alpha{1.0, 0.0}, omega{1.0, 0.0};
      const double r0norm = norm2(r0);
      double rnorm = norm2(r);
      Complex r0r = dot(r0, r);
      res = rnorm / bnorm;
      // The vector updates share passes with the reductions that read their
      // results; each reduction still runs in index order.
      if (res >= opts.tolerance) {
        for (; it < opts.max_iterations; ++it) {
          const Complex rho1 = r0r;
          // Breakdown guard, scaled like the alpha guard below: an
          // absolute 1e-300 cutoff false-triggers on well-scaled systems
          // whose norms are simply small.
          if (std::abs(rho1) <= 1e-30 * r0norm * rnorm) break;
          if (it == 0) {
            p = r;
          } else {
            const Complex beta = (rho1 / rho) * (alpha / omega);
            for (std::size_t u = 0; u < nu; ++u) p[u] = r[u] + mul(beta, p[u] - mul(omega, v[u]));
          }
          rho = rho1;
          apply_prec(p, v);
          // Breakdown guard: r0 ⟂ v makes alpha blow up to inf/NaN and taint
          // the whole potential vector. Bail out and report non-convergence.
          Complex r0v{};
          double vv = 0.0;
          for (std::size_t u = 0; u < nu; ++u) {
            r0v += conj_mul(r0[u], v[u]);
            vv += norm(v[u]);
          }
          if (std::abs(r0v) <= 1e-30 * r0norm * std::sqrt(vv)) break;
          alpha = rho / r0v;
          double ss = 0.0;
          for (std::size_t u = 0; u < nu; ++u) {
            s[u] = r[u] - mul(alpha, v[u]);
            ss += norm(s[u]);
          }
          const double snorm = std::sqrt(ss);
          if (snorm / bnorm < opts.tolerance) {
            for (std::size_t u = 0; u < nu; ++u) x[u] += mul(alpha, p[u]);
            res = snorm / bnorm;
            if (tracing) residual_history.push_back(res);
            ++it;
            break;
          }
          apply_prec(s, t);
          Complex tt{}, ts{};
          for (std::size_t u = 0; u < nu; ++u) {
            tt += conj_mul(t[u], t[u]);
            ts += conj_mul(t[u], s[u]);
          }
          if (std::abs(tt) < 1e-300) break;
          omega = ts / tt;
          double rr = 0.0;
          r0r = Complex{};
          for (std::size_t u = 0; u < nu; ++u) {
            x[u] += mul(alpha, p[u]) + mul(omega, s[u]);
            r[u] = s[u] - mul(omega, t[u]);
            rr += norm(r[u]);
            r0r += conj_mul(r0[u], r[u]);
          }
          rnorm = std::sqrt(rr);
          res = rnorm / bnorm;
          if (tracing) residual_history.push_back(res);
          if (res < opts.tolerance) {
            ++it;
            break;
          }
        }
      }
    }
  }
  const bool converged = trivial || (std::isfinite(res) && res < opts.tolerance);
  if (stats) {
    stats->iterations = it;
    stats->residual = res;
    stats->trivial = trivial;
    stats->preconditioner = pc;
    // isfinite: a residual poisoned by overflow must never count as converged.
    stats->converged = converged;
  }
  const char* pc_name = pc == Preconditioner::multigrid ? "multigrid" : "jacobi";
  if (tracing) {
    std::string args = "\"active\":" + std::to_string(active) +
                       ",\"unknowns\":" + std::to_string(nu) +
                       ",\"iterations\":" + std::to_string(it) +
                       ",\"residual\":" + obs::json_number(res) + ",\"preconditioner\":\"" +
                       pc_name + "\",\"vcycles\":" + std::to_string(vcycles) +
                       ",\"trivial\":" + (trivial ? "true" : "false") +
                       ",\"warm_start\":" + (phi0.empty() ? "false" : "true");
    if (!residual_history.empty()) {
      // Cap the per-iteration history so giant solves stay viewer-friendly.
      const std::size_t stride = (residual_history.size() + 255) / 256;
      args += ",\"residual_history\":[";
      for (std::size_t i = 0; i < residual_history.size(); i += stride) {
        if (i) args += ',';
        args += obs::json_number(residual_history[i]);
      }
      args += ']';
    }
    span.set_args(std::move(args));
  }
  obs::profile_work("iterations", static_cast<std::uint64_t>(it));
  if (vcycles > 0) obs::profile_work("vcycles", static_cast<std::uint64_t>(vcycles));
  if (pc == Preconditioner::jacobi) obs::profile_work("jacobi", 1);
  if (trivial) obs::profile_work("trivial", 1);
  if (!converged) obs::profile_work("nonconverged", 1);
  if (!phi0.empty()) obs::profile_work("warm_started", 1);

  // Scatter to the full grid, Dirichlet values included.
  std::vector<Complex> phi(grid_.size(), Complex{});
  for (std::size_t u = 0; u < nu; ++u) phi[free_cells_[u]] = x[u];
  for (std::size_t i = 0; i < grid_.size(); ++i) {
    if (grid_.conductor(i) == active) phi[i] = Complex{1.0, 0.0};
  }
  return phi;
}

std::vector<Complex> FieldProblem::conductor_charges(const std::vector<Complex>& phi) const {
  if (phi.size() != grid_.size()) throw std::invalid_argument("conductor_charges: bad phi size");
  const std::size_t nx = grid_.nx();
  const std::size_t ny = grid_.ny();
  std::vector<Complex> q(static_cast<std::size_t>(grid_.conductor_count()), Complex{});
  for (std::size_t iy = 0; iy < ny; ++iy) {
    for (std::size_t ix = 0; ix < nx; ++ix) {
      const std::size_t i = grid_.index(ix, iy);
      const std::int32_t c = grid_.conductor(i);
      if (c == kNoConductor) continue;
      auto flux = [&](std::size_t j, Complex w) {
        if (grid_.conductor(j) == c) return;  // internal face, no net flux
        q[static_cast<std::size_t>(c)] += w * (phi[i] - phi[j]);
      };
      if (ix + 1 < nx) flux(i + 1, w_east_[i]);
      if (ix > 0) flux(i - 1, w_east_[i - 1]);
      if (iy + 1 < ny) flux(i + nx, w_north_[i]);
      if (iy > 0) flux(i - nx, w_north_[i - nx]);
      // Conductors never touch the outer boundary in our geometries; if they
      // did, the boundary face would contribute with the cell's own eps.
      if (ix == 0 || ix + 1 == nx) q[static_cast<std::size_t>(c)] += grid_.eps(i) * phi[i];
      if (iy == 0 || iy + 1 == ny) q[static_cast<std::size_t>(c)] += grid_.eps(i) * phi[i];
    }
  }
  for (auto& v : q) v *= phys::eps0;
  return q;
}

}  // namespace tsvcod::field
