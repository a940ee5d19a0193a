#include "tsv/analytic_model.hpp"

#include <cmath>
#include <complex>
#include <stdexcept>
#include <vector>

#include "phys/constants.hpp"
#include "phys/depletion.hpp"

namespace tsvcod::tsv {

namespace {

using std::complex;
using phys::eps0;
using phys::pi;

// Calibration constants (docs/physics.md Sec. 3, DESIGN.md Sec. 7).
constexpr double kPairCutoff = 2.2;  ///< include pairs with s <= cutoff * pitch
constexpr double kCosMin = 0.05;     ///< ray ownership: min cos(angle) towards a TSV
/// Ray competition metric: effective distance s / cos(angle)^p. Penalizing
/// oblique field paths hands diagonal neighbours a realistic angular wedge
/// instead of starving them entirely, and strengthens the corner/edge/
/// middle heterogeneity. p = 3 calibrates the corner-to-middle total-
/// capacitance contrast to ~1.45x, which reproduces the reduction
/// magnitudes the paper reports; p = 2 gives a flatter array.
constexpr double kObliquenessPower = 3.0;
/// Substrate contact distance, in pitches: the exposed-corner ground
/// capacitance carries part of the edge-effect heterogeneity; a farther
/// contact shrinks the reductions.
constexpr double kGroundPitches = 3.0;
constexpr int kRayCount = 720;  ///< directions sampled per TSV

struct TsvState {
  double x = 0.0;
  double y = 0.0;
  double c_mos = 0.0;   ///< series oxide+depletion capacitance per length [F/m]
  double r_out = 0.0;   ///< depletion outer radius [m]
};

/// Two-cylinder geometry factor 1/acosh(arg) for conductors of radii a, b at
/// centre distance s; per-unit-length capacitance is pi*eps/acosh-term for
/// the symmetric case (factor handles the general one).
double pair_geometry_factor(double a, double b, double s) {
  const double arg = (s * s - a * a - b * b) / (2.0 * a * b);
  if (arg <= 1.0) return 1e3;  // touching/overlapping: essentially shorted
  return 1.0 / std::acosh(arg);
}

/// Effective series capacitance per length of C_mos,a -- substrate path --
/// C_mos,b, where the substrate path has the complex admittance of the lossy
/// silicon. Returns Im{Y}/omega [F/m].
double series_pair_capacitance(double c_mos_a, double c_mos_b, double geo_factor,
                               double sigma, double omega) {
  const complex<double> j{0.0, 1.0};
  const complex<double> y_si =
      2.0 * pi * geo_factor * (sigma + j * omega * eps0 * phys::eps_r_si);
  const complex<double> y_a = j * omega * c_mos_a;
  const complex<double> y_b = j * omega * c_mos_b;
  const complex<double> y = 1.0 / (1.0 / y_a + 1.0 / y_si + 1.0 / y_b);
  return y.imag() / omega;
}

/// Series capacitance per length of C_mos -- coaxial substrate shell to the
/// grounded contact at distance d_gnd.
double series_ground_capacitance(double c_mos, double r_out, double d_gnd, double sigma,
                                 double omega) {
  const complex<double> j{0.0, 1.0};
  if (d_gnd <= r_out) d_gnd = 2.0 * r_out;
  const double geo = 2.0 * pi / std::log(d_gnd / r_out);
  const complex<double> y_si = geo * (sigma + j * omega * eps0 * phys::eps_r_si);
  const complex<double> y_mos = j * omega * c_mos;
  const complex<double> y = 1.0 / (1.0 / y_mos + 1.0 / y_si);
  return y.imag() / omega;
}

/// Fraction of directions owned by each destination.
/// ownership[i][j] = fraction of TSV i's rays that terminate on TSV j;
/// ownership[i][n] (extra slot) = fraction reaching the substrate ground.
/// A ray's destination is the candidate with the smallest effective distance
/// s / cos(angle)^p; the grounded substrate contact competes at distance
/// `d_gnd` in every direction.
std::vector<std::vector<double>> ray_ownership(const std::vector<TsvState>& tsv, double cutoff,
                                               double d_gnd) {
  const std::size_t n = tsv.size();
  std::vector<std::vector<double>> own(n, std::vector<double>(n + 1, 0.0));
  // Neither the ray directions nor a TSV's in-range neighbours depend on the
  // ray, so both are computed once; the per-ray loop keeps the neighbours in
  // index order, which the strict `<` tie-break depends on.
  std::vector<double> ux(kRayCount), uy(kRayCount);
  for (int ray = 0; ray < kRayCount; ++ray) {
    const double theta =
        2.0 * pi * (static_cast<double>(ray) + 0.5) / static_cast<double>(kRayCount);
    ux[static_cast<std::size_t>(ray)] = std::cos(theta);
    uy[static_cast<std::size_t>(ray)] = std::sin(theta);
  }
  struct Neighbour {
    std::size_t k;
    double dx, dy, s;
  };
  std::vector<Neighbour> near;
  for (std::size_t i = 0; i < n; ++i) {
    near.clear();
    for (std::size_t k = 0; k < n; ++k) {
      if (k == i) continue;
      const double dx = tsv[k].x - tsv[i].x;
      const double dy = tsv[k].y - tsv[i].y;
      const double s = std::hypot(dx, dy);
      if (s <= cutoff) near.push_back({k, dx, dy, s});
    }
    for (std::size_t ray = 0; ray < ux.size(); ++ray) {
      double best = d_gnd;
      std::size_t dest = n;  // ground by default
      for (const Neighbour& nb : near) {
        const double cosang = (nb.dx * ux[ray] + nb.dy * uy[ray]) / nb.s;
        if (cosang < kCosMin) continue;
        const double effective = nb.s / std::pow(cosang, kObliquenessPower);
        if (effective < best) {
          best = effective;
          dest = nb.k;
        }
      }
      own[i][dest] += 1.0 / static_cast<double>(kRayCount);
    }
  }
  return own;
}

/// Angular fraction an isolated partner at distance `s` owns under the same
/// ray rule (competing only against ground); normalizes the partition so an
/// isolated pair reproduces the raw two-cylinder capacitance exactly.
double isolated_pair_fraction(double s, double d_gnd) {
  // Partner wins direction theta iff cos >= kCosMin and s/cos^p < d_gnd.
  const double ratio = s / d_gnd;
  double cos_floor = kCosMin;
  if (ratio > 0.0 && ratio < 1.0) {
    cos_floor = std::max(cos_floor, std::pow(ratio, 1.0 / kObliquenessPower));
  } else if (ratio >= 1.0) {
    return 0.0;
  }
  return std::acos(std::min(1.0, cos_floor)) / pi;
}

}  // namespace

phys::Matrix analytic_capacitance(const phys::TsvArrayGeometry& geom,
                                  std::span<const double> probabilities) {
  geom.validate();
  const std::size_t n = geom.count();
  if (probabilities.size() != n) {
    throw std::invalid_argument("analytic_capacitance: one probability per TSV required");
  }
  const double r = geom.radius;
  const double t_ox = geom.oxide_thickness();
  const double omega = 2.0 * pi * phys::admittance_frequency;
  const double sigma = geom.mos.substrate_sigma;
  const double d_gnd = kGroundPitches * geom.pitch;
  const double cutoff = kPairCutoff * geom.pitch;

  std::vector<TsvState> tsv(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto p = geom.position(i);
    tsv[i].x = p.x;
    tsv[i].y = p.y;
    tsv[i].c_mos = phys::mos_capacitance_per_length(r, t_ox, probabilities[i], geom.mos);
    tsv[i].r_out = geom.liner_radius() +
                   phys::depletion_width_for_probability(r, t_ox, probabilities[i], geom.mos);
  }

  const auto own = ray_ownership(tsv, cutoff, d_gnd);

  phys::Matrix c(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double s = geom.distance(i, j);
      if (s > cutoff) continue;
      const double f_ref = isolated_pair_fraction(s, d_gnd);
      if (f_ref <= 0.0) continue;
      const double frac = 0.5 * (own[i][j] + own[j][i]) / f_ref;
      if (frac <= 0.0) continue;
      const double geo = pair_geometry_factor(tsv[i].r_out, tsv[j].r_out, s);
      const double c_pair =
          series_pair_capacitance(tsv[i].c_mos, tsv[j].c_mos, geo, sigma, omega) * frac;
      c(i, j) = c(j, i) = c_pair * geom.length;
    }
    const double gnd_frac = own[i][n];
    c(i, i) = series_ground_capacitance(tsv[i].c_mos, tsv[i].r_out, d_gnd, sigma, omega) *
              gnd_frac * geom.length;
  }
  return c;
}

}  // namespace tsvcod::tsv
