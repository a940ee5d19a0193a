#include "field/extractor.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/obs.hpp"
#include "obs/profile.hpp"
#include "opt/parallel.hpp"
#include "phys/constants.hpp"
#include "phys/depletion.hpp"

namespace tsvcod::field {

namespace {

/// Substrate margin around the array, in pitches: the grounded outer
/// boundary sits this far from the outermost TSV centres.
constexpr double kMarginPitches = 3.0;

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
void paint_array(Grid& grid, const phys::TsvArrayGeometry& geom, std::span<const double> widths) {
  const double omega = 2.0 * phys::pi * phys::admittance_frequency;
  const double margin = kMarginPitches * geom.pitch;
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

/// Physical size [m] of the rasterized cross-section: the array's centre
/// span plus the margin on every side.
std::pair<double, double> domain_size(const phys::TsvArrayGeometry& geom) {
  const double margin = kMarginPitches * geom.pitch;
  return {static_cast<double>(geom.cols - 1) * geom.pitch + 2.0 * margin,
          static_cast<double>(geom.rows - 1) * geom.pitch + 2.0 * margin};
}

Grid make_array_grid(const phys::TsvArrayGeometry& geom, const ExtractionOptions& opts) {
  geom.validate();
  opts.validate(geom);
  const auto [width, height] = domain_size(geom);
  return Grid(width, height, opts.cell);
}

void validate_probabilities(const phys::TsvArrayGeometry& geom,
                            std::span<const double> probabilities) {
  geom.validate();
  if (probabilities.size() != geom.count()) {
    throw std::invalid_argument("field extraction: one probability per TSV required");
  }
}

/// Permutations of the `n` conductors by the square's eight symmetries that
/// map `grid` exactly onto itself, identity first: every cell's permittivity
/// equals its image cell's, and the conductor ids map by one bijection read
/// off the grid. The axis swaps need a square grid. The field problem on
/// such a grid is its own mirror image, so conductor pi[k] sees conductor
/// k's field, mirrored. The permutations found form a group.
std::vector<std::vector<std::int32_t>> grid_symmetries(const Grid& grid, std::size_t n) {
  const std::size_t nx = grid.nx();
  const std::size_t ny = grid.ny();
  std::vector<std::vector<std::int32_t>> found(1, std::vector<std::int32_t>(n));
  std::iota(found[0].begin(), found[0].end(), 0);
  for (int s = 1; s < 8; ++s) {
    const bool flip_x = (s & 1) != 0;
    const bool flip_y = (s & 2) != 0;
    const bool swap_xy = (s & 4) != 0;
    if (swap_xy && nx != ny) continue;
    std::vector<std::int32_t> pi(n, kNoConductor);
    bool invariant = true;
    for (std::size_t iy = 0; iy < ny && invariant; ++iy) {
      for (std::size_t ix = 0; ix < nx && invariant; ++ix) {
        std::size_t jx = flip_x ? nx - 1 - ix : ix;
        std::size_t jy = flip_y ? ny - 1 - iy : iy;
        if (swap_xy) std::swap(jx, jy);
        const std::size_t i = grid.index(ix, iy);
        const std::size_t j = grid.index(jx, jy);
        const std::int32_t c = grid.conductor(i);
        invariant = grid.eps(i) == grid.eps(j) &&
                    (c == kNoConductor) == (grid.conductor(j) == kNoConductor);
        if (invariant && c != kNoConductor) {
          auto& image = pi[static_cast<std::size_t>(c)];
          if (image == kNoConductor) image = grid.conductor(j);
          invariant = image == grid.conductor(j);
        }
      }
    }
    // The symmetry permutes the conductor cells, so once every conductor
    // has cells (and so an image), the images cover all n ids: a bijection.
    if (invariant && std::count(pi.begin(), pi.end(), kNoConductor) == 0) {
      found.push_back(std::move(pi));
    }
  }
  return found;
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
    if (!out.stats[k].converged && out.stats[k].image_of < 0) {
      msg << " " << k << " (res " << out.stats[k].residual << " after " << out.stats[k].iterations
          << " it)";
    }
  }
  msg << "; refine ExtractionOptions::solver or set allow_nonconverged";
  throw ConvergenceError(msg.str());
}

}  // namespace

void ExtractionOptions::validate(const phys::TsvArrayGeometry& geom) const {
  if (threads < 0) {
    throw std::invalid_argument("ExtractionOptions: threads must be >= 0 (0 = TSVCOD_THREADS), got " +
                                std::to_string(threads));
  }
  solver.validate();
  if (!(cell > 0.0) || !std::isfinite(cell)) {
    std::ostringstream msg;
    msg << "ExtractionOptions: cell must be a finite length > 0 m, got " << cell;
    throw std::invalid_argument(msg.str());
  }
  // The grid rounds each side up to whole cells and keeps two per-cell
  // vectors; count in doubles so a tiny cell cannot wrap the product.
  const auto [width, height] = domain_size(geom);
  const double cells = std::ceil(width / cell) * std::ceil(height / cell);
  const double limit = static_cast<double>(std::vector<Complex>().max_size());
  if (!(cells <= limit)) {
    std::ostringstream msg;
    msg << "ExtractionOptions: cell " << cell << " m needs " << cells << " grid cells for a "
        << width << " x " << height << " m cross-section, more than a grid can hold (" << limit
        << ")";
    throw std::invalid_argument(msg.str());
  }
}

Grid build_array_grid(const phys::TsvArrayGeometry& geom, std::span<const double> probabilities,
                      const ExtractionOptions& opts) {
  validate_probabilities(geom, probabilities);
  Grid grid = make_array_grid(geom, opts);
  paint_array(grid, geom, depletion_widths(geom, probabilities));
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
  paint_array(grid_, geom_, widths);
  last_widths_ = std::move(widths);
  symmetries_ = grid_symmetries(grid_, geom_.count());
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

  // A conductor's orbit representative is the lowest id a symmetry maps it
  // to; only representatives are solved.
  const std::size_t n = geom_.count();
  std::vector<std::int32_t> rep(n);
  std::vector<std::size_t> solved;
  for (std::size_t k = 0; k < n; ++k) {
    rep[k] = static_cast<std::int32_t>(k);
    for (const auto& pi : symmetries_) rep[k] = std::min(rep[k], pi[k]);
    if (rep[k] == static_cast<std::int32_t>(k)) solved.push_back(k);
  }
  if (last_phi_.empty()) last_phi_.resize(n);
  std::size_t warm = 0;
  for (const std::size_t k : solved) {
    if (!last_phi_[k].empty()) ++warm;
  }

  phys::Matrix q_re(n, n);
  CapacitanceResult out;
  out.stats.resize(n);
  // The solves are independent (FieldProblem::solve is const and each item
  // writes a disjoint column of q_re / entry of stats or its own warm-start
  // slot), so the shared pool can run them in any order without affecting
  // the result. Warm starts come from the previous extract() call — a
  // deterministic input at every thread count.
  opt::parallel_for(solved.size(), opts_.threads, [&](std::size_t s) {
    const std::size_t k = solved[s];
    auto phi = problem_->solve(static_cast<std::int32_t>(k), opts_.solver,
                               std::span<const Complex>(last_phi_[k]), &out.stats[k]);
    const auto q = problem_->conductor_charges(phi);
    for (std::size_t m = 0; m < n; ++m) q_re(m, k) = q[m].real();
    last_phi_[k] = std::move(phi);
  });
  // Every entry of Q takes the value of the one entry of its orbit under the
  // symmetries that lies in a solved column, at the lowest row: mirror
  // columns are permuted copies, and Q is exactly invariant,
  // q(pi[a], pi[b]) == q(a, b). Without symmetries Q is left as solved.
  const phys::Matrix solved_q = q_re;
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t a = 0; a < n; ++a) {
      std::pair<std::int32_t, std::int32_t> source{static_cast<std::int32_t>(b),
                                                   static_cast<std::int32_t>(a)};
      for (const auto& pi : symmetries_) source = std::min(source, std::pair{pi[b], pi[a]});
      q_re(a, b) = solved_q(static_cast<std::size_t>(source.second),
                            static_cast<std::size_t>(source.first));
    }
  }
  const std::size_t mirrored = n - solved.size();
  obs::profile_work("solves", solved.size());
  obs::profile_work("mirrored", mirrored);
  obs::profile_work("warm_started", warm);

  assemble_matrices(q_re, geom_, out);
  // A mirrored conductor reports its representative's solve with no
  // iterations of its own. Its row sums the representative's row in another
  // order, so it takes the representative's ground capacitance too.
  for (std::size_t k = 0; k < n; ++k) {
    const auto r = static_cast<std::size_t>(rep[k]);
    if (r == k) continue;
    out.stats[k] = out.stats[r];
    out.stats[k].iterations = 0;
    out.stats[k].image_of = rep[k];
    out.paper(k, k) = out.paper(r, r);
  }
  if (!opts_.allow_nonconverged && !out.all_converged()) throw_if_nonconverged(out);
  return out;
}

}  // namespace tsvcod::field
