#include "field/extractor.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/obs.hpp"
#include "obs/profile.hpp"
#include "opt/parallel.hpp"
#include "phys/constants.hpp"
#include "phys/depletion.hpp"

namespace tsvcod::field {

namespace {

std::vector<double> depletion_widths(const phys::TsvArrayGeometry& geom,
                                     std::span<const double> probabilities) {
  std::vector<double> w(geom.count());
  const double t_ox = geom.oxide_thickness();
  for (std::size_t i = 0; i < geom.count(); ++i) {
    w[i] = phys::depletion_width_for_probability(geom.radius, t_ox, probabilities[i], geom.mos);
  }
  return w;
}

/// Rasterize every TSV into `grid` (substrate fill + per-TSV depletion
/// annulus, oxide liner, conductor core). Shared by the one-shot and the
/// reusing extraction paths so both paint bit-identical grids.
void paint_array(Grid& grid, const phys::TsvArrayGeometry& geom, std::span<const double> widths,
                 const ExtractionOptions& opts, double margin) {
  const double omega = 2.0 * phys::pi * opts.frequency;
  const Complex eps_substrate{phys::eps_r_si, -geom.mos.substrate_sigma / (omega * phys::eps0)};
  const Complex eps_oxide{phys::eps_r_sio2, 0.0};
  const Complex eps_depleted{phys::eps_r_si, 0.0};
  grid.fill(eps_substrate);

  const double r = geom.radius;
  const double t_ox = geom.oxide_thickness();
  for (std::size_t i = 0; i < geom.count(); ++i) {
    const auto p = geom.position(i);
    const double cx = p.x + margin;
    const double cy = p.y + margin;
    if (widths[i] > 0.0) grid.paint_annulus(cx, cy, r + t_ox, r + t_ox + widths[i], eps_depleted);
    grid.paint_annulus(cx, cy, r, r + t_ox, eps_oxide);
    // The conductor cells keep an oxide permittivity so that the metal/liner
    // face weight equals the liner's (the solver uses harmonic face means).
    grid.paint_disk(cx, cy, r, eps_oxide);
    grid.paint_disk(cx, cy, r, eps_oxide, static_cast<std::int32_t>(i));
  }
}

double resolved_margin(const phys::TsvArrayGeometry& geom, const ExtractionOptions& opts) {
  return opts.margin > 0.0 ? opts.margin : 3.0 * geom.pitch;
}

Grid make_array_grid(const phys::TsvArrayGeometry& geom, const ExtractionOptions& opts) {
  geom.validate();
  const double margin = resolved_margin(geom, opts);
  const double span_x = static_cast<double>(geom.cols - 1) * geom.pitch;
  const double span_y = static_cast<double>(geom.rows - 1) * geom.pitch;
  return Grid(span_x + 2.0 * margin, span_y + 2.0 * margin, opts.cell);
}

void validate_probabilities(const phys::TsvArrayGeometry& geom,
                            std::span<const double> probabilities) {
  geom.validate();
  if (probabilities.size() != geom.count()) {
    throw std::invalid_argument("field extraction: one probability per TSV required");
  }
}

/// Charges (one solve per conductor, already done) -> symmetrized Maxwell and
/// paper-form matrices.
void assemble_matrices(const phys::Matrix& q_re, const phys::TsvArrayGeometry& geom,
                       CapacitanceResult& out) {
  const std::size_t n = geom.count();
  // Symmetrize (discretization leaves a small asymmetry) and scale by length.
  out.maxwell = phys::Matrix(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      out.maxwell(i, j) = 0.5 * (q_re(i, j) + q_re(j, i)) * geom.length;
    }
  }

  // Maxwell form -> paper form: coupling C_ij = -M_ij, ground C_ii = row sum.
  out.paper = phys::Matrix(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      row_sum += out.maxwell(i, j);
      if (i != j) out.paper(i, j) = std::max(0.0, -out.maxwell(i, j));
    }
    out.paper(i, i) = std::max(0.0, row_sum);
  }
}

void throw_if_nonconverged(const CapacitanceResult& out) {
  std::ostringstream msg;
  msg << "extract_capacitance: field solve did not converge for conductor(s)";
  for (std::size_t k = 0; k < out.stats.size(); ++k) {
    if (!out.stats[k].converged) {
      msg << " " << k << " (res " << out.stats[k].residual << " after " << out.stats[k].iterations
          << " it)";
    }
  }
  msg << "; refine ExtractionOptions::solver or set allow_nonconverged";
  throw ConvergenceError(msg.str());
}

}  // namespace

Grid build_array_grid(const phys::TsvArrayGeometry& geom, std::span<const double> probabilities,
                      const ExtractionOptions& opts) {
  validate_probabilities(geom, probabilities);
  Grid grid = make_array_grid(geom, opts);
  paint_array(grid, geom, depletion_widths(geom, probabilities), opts, resolved_margin(geom, opts));
  return grid;
}

CapacitanceResult extract_capacitance(const phys::TsvArrayGeometry& geom,
                                      std::span<const double> probabilities,
                                      const ExtractionOptions& opts) {
  CapacitanceExtractor extractor(geom, opts);
  return extractor.extract(probabilities);
}

CapacitanceExtractor::CapacitanceExtractor(const phys::TsvArrayGeometry& geom,
                                           const ExtractionOptions& opts)
    : geom_(geom), opts_(opts), grid_(make_array_grid(geom, opts)) {}

void CapacitanceExtractor::repaint(std::span<const double> probabilities) {
  auto widths = depletion_widths(geom_, probabilities);
  if (problem_ && widths == last_widths_) {
    // Identical rasterization: the cached grid/problem is reused as-is.
    obs::profile_work("repaints_skipped", 1);
    return;
  }
  obs::Span span(problem_ ? "field.extract.repaint" : "field.extract.setup");
  paint_array(grid_, geom_, widths, opts_, resolved_margin(geom_, opts_));
  last_widths_ = std::move(widths);
  if (!problem_) {
    problem_ = std::make_unique<FieldProblem>(grid_);
  } else {
    // Conductor layout is probability-independent: only dielectric annuli
    // moved, so the cached indexing/hierarchy stays and coefficients refresh.
    problem_->update_coefficients();
  }
}

CapacitanceResult CapacitanceExtractor::extract(std::span<const double> probabilities) {
  obs::Span span("field.extract");
  validate_probabilities(geom_, probabilities);
  repaint(probabilities);

  const std::size_t n = geom_.count();
  if (last_phi_.empty()) last_phi_.resize(n);
  std::size_t warm = 0;
  for (const auto& phi : last_phi_) {
    if (!phi.empty()) ++warm;
  }

  phys::Matrix q_re(n, n);
  CapacitanceResult out;
  out.stats.resize(n);
  // The solves are independent (FieldProblem::solve is const and each item
  // writes a disjoint column of q_re / entry of stats or its own warm-start
  // slot), so the shared pool can run them in any order without affecting
  // the result. Warm starts come from the previous extract() call — a
  // deterministic input at every thread count.
  opt::parallel_for(n, opts_.threads, [&](std::size_t k) {
    auto phi = problem_->solve(static_cast<std::int32_t>(k), opts_.solver,
                               std::span<const Complex>(last_phi_[k]), &out.stats[k]);
    const auto q = problem_->conductor_charges(phi);
    for (std::size_t m = 0; m < n; ++m) q_re(m, k) = q[m].real();
    last_phi_[k] = std::move(phi);
  });
  long long point_iterations = 0;
  for (const auto& s : out.stats) point_iterations += s.iterations;
  total_iterations_ += point_iterations;

  if (span.traced()) {
    span.set_args("\"conductors\":" + std::to_string(n) + ",\"warm_started\":" +
                  std::to_string(warm) + ",\"iterations\":" + std::to_string(point_iterations));
  }
  obs::profile_work("solves", n);
  obs::profile_work("warm_started", warm);

  if (!opts_.allow_nonconverged && !out.all_converged()) throw_if_nonconverged(out);

  assemble_matrices(q_re, geom_, out);
  return out;
}

}  // namespace tsvcod::field
