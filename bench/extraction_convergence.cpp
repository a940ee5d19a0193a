// Field-extraction convergence study (validation, Sec. 2 substitute): how
// the extracted corner-edge coupling and corner total capacitance of a 3x3
// array move as the FD grid is refined, and how far the fast analytic model
// sits from the finest extraction. This is the evidence that the Q3D
// substitution is numerically under control.
//
// The bench exits 1 unless every grid converges, the coupling rises
// monotonically under refinement, the corner total rises overall and dips by
// no more than 0.5 % on any step (0.2 -> 0.15 um lowers it by 0.15 %), and
// the analytic/finest ratios stay in their bands. Those ratios pin a known
// divergence, not an agreement: the analytic coupling is ~3x the finest FD
// value, which ROADMAP item 5 is to measure and explain. A physics fix that
// moves them must move the bands.
#include <cstdio>
#include <vector>

#include "common.hpp"
#include "field/extractor.hpp"
#include "opt/parallel.hpp"
#include "tsv/analytic_model.hpp"

using namespace tsvcod;

int main() {
  bench::print_header("FD extraction convergence, 3x3 r=1um d=4um, all probabilities 1/2",
                      "validation of the Q3D substitute");

  const auto geom = phys::TsvArrayGeometry::itrs2018_min(3, 3);
  const std::vector<double> pr(9, 0.5);
  const auto corner = geom.index(0, 0);
  const auto edge = geom.index(0, 1);

  const auto total = [&](const phys::Matrix& c, std::size_t i) {
    double t = 0.0;
    for (std::size_t j = 0; j < 9; ++j) t += c(i, j);
    return t;
  };

  bench::Claims claim("extraction convergence");
  double coupling = 0.0;  // finest grid so far
  double corner_total = 0.0;
  double coarsest_total = 0.0;
  bool coupling_rises = true;
  bool total_dips_small = true;
  std::printf("%-12s %16s %16s %12s\n", "cell [um]", "C(corner,edge)", "C_T(corner)", "iters");
  for (const double cell_um : {0.4, 0.3, 0.2, 0.15, 0.1}) {
    field::ExtractionOptions opts;
    opts.cell = cell_um * 1e-6;
    opts.threads = opt::default_threads();
    opts.allow_nonconverged = true;  // this study reports convergence itself
    const auto res = field::extract_capacitance(geom, pr, opts);
    int iters = 0;
    for (const auto& s : res.stats) iters = std::max(iters, s.iterations);
    std::printf("%-12.2f %13.3f fF %13.3f fF %12d%s\n", cell_um, res.paper(corner, edge) * 1e15,
                total(res.paper, corner) * 1e15, iters,
                res.all_converged() ? "" : "  NOT CONVERGED");
    char what[48];
    std::snprintf(what, sizeof what, "the %.2f um grid converges", cell_um);
    claim(res.all_converged(), what);
    coupling_rises &= res.paper(corner, edge) > coupling;
    total_dips_small &= total(res.paper, corner) >= 0.995 * corner_total;
    coupling = res.paper(corner, edge);
    corner_total = total(res.paper, corner);
    if (coarsest_total == 0.0) coarsest_total = corner_total;
  }

  const auto an = tsv::analytic_capacitance(geom, pr);
  std::printf("%-12s %13.3f fF %13.3f fF\n", "analytic", an(corner, edge) * 1e15,
              total(an, corner) * 1e15);

  claim(coupling_rises, "C(corner,edge) rises monotonically from 0.4 to 0.1 um");
  claim(corner_total > coarsest_total && total_dips_small,
        "C_T(corner) rises from 0.4 to 0.1 um, no step lowering it by more than 0.5 %");
  const double coupling_ratio = an(corner, edge) / coupling;
  const double total_ratio = total(an, corner) / corner_total;
  std::printf("analytic / finest: coupling %.2fx, corner total %.2fx\n", coupling_ratio,
              total_ratio);
  claim(coupling_ratio >= 2.6 && coupling_ratio <= 3.5,
        "known divergence (ROADMAP item 5): analytic coupling 2.6-3.5x the finest FD value");
  claim(total_ratio >= 1.65 && total_ratio <= 2.25,
        "known divergence (ROADMAP item 5): analytic corner total 1.65-2.25x the finest FD "
        "value");
  return claim.verdict();
}
