// Ablation (beyond the paper's figures, supporting its Sec. 3 design
// choices) — how much of the optimal assignment's gain comes from
//  (a) pure reordering,
//  (b) adding inversions (sign flips in A_pi),
//  (c) modelling the MOS capacitance dependence (Eq. 9) in the objective.
//
// Evaluated on three representative workloads over a 4x4 array (r=2, d=8):
// Gray-coded Gaussian data (many near-stable-0 lines -> inversions + MOS
// matter), plain Gaussian data (balanced probabilities -> reordering does
// the work), and an image stream with a stable redundant line. All three
// columns run the same annealer with the same options; only the permitted
// moves (b) or the objective's capacitance model (c) change.
//
// The bench exits 1 unless the claims recorded in EXPERIMENTS.md hold. A
// MOS-blind objective cannot see a stable line's polarity (it costs no
// switching either way), so where its search leaves one is luck: over seeds
// 1-5 its Gray-coded loss ranges from ~0.01 to ~1.7 pp, and one seed's value
// moves with the SIMD level's rounding. That claim is judged on the mean over
// seeds 1-5; the table prints seed 1.
#include <cstdio>
#include <string>
#include <vector>

#include "coding/gray.hpp"
#include "common.hpp"
#include "streams/image_sensor.hpp"
#include "streams/random_streams.hpp"

using namespace tsvcod;

namespace {

/// Reductions (%) versus the mean random assignment.
struct Row {
  const char* name;
  double full, no_inversions, mos_blind;
  double mos_blind_mean;  ///< over seeds 1..blind_seeds
};

Row run(const char* name, const std::vector<std::uint64_t>& words, const core::Link& link,
        unsigned blind_seeds = 1) {
  const auto st = stats::compute_stats(words, link.width());
  const auto base = core::random_assignment_power(st, link.model(), 300);
  const auto pct = [&](double power) { return core::reduction_pct(base.mean, power); };

  auto opts = bench::default_study().optimize;
  const auto full = core::optimize_assignment(st, link.model(), opts);

  auto no_inv = opts;
  no_inv.allow_invert.assign(st.width, 0);
  const auto reorder_only = core::optimize_assignment(st, link.model(), no_inv);

  // MOS-blind objective: optimize against C_R alone (zero DeltaC), then price
  // the found assignment with the full probability-aware model.
  const tsv::LinearCapacitanceModel blind(link.model().c_ref(), phys::Matrix(st.width, st.width));
  const auto mos_blind = [&](unsigned seed) {
    const auto a = core::optimize_assignment(st, blind, bench::default_study(seed).optimize);
    return pct(core::assignment_power(st, a.assignment, link.model()));
  };

  Row row{name, pct(full.power), pct(reorder_only.power), mos_blind(1), 0.0};
  row.mos_blind_mean = row.mos_blind / blind_seeds;
  for (unsigned seed = 2; seed <= blind_seeds; ++seed) {
    row.mos_blind_mean += mos_blind(seed) / blind_seeds;
  }
  std::printf("%-24s full %5.1f %%   no-inversions %5.1f %%   MOS-blind %5.1f %%\n", name,
              row.full, row.no_inversions, row.mos_blind);
  return row;
}

std::vector<std::uint64_t> take(streams::WordStream& src, std::uint64_t mask = ~0ull) {
  std::vector<std::uint64_t> words;
  for (int i = 0; i < 40000; ++i) words.push_back(src.next() & mask);
  return words;
}

}  // namespace

int main() {
  bench::print_header("Ablation: reordering vs inversions vs MOS-aware objective (4x4 r=2 d=8)",
                      "supports Sec. 3: inversions + MOS model matter most for skewed-probability "
                      "streams");
  const auto geom = phys::TsvArrayGeometry::itrs2018_relaxed(4, 4);
  const core::Link link(geom);

  streams::GaussianAr1Stream gray_src(16, 500.0, 0.3, 5);
  coding::GrayCodec gray(16);
  auto gray_words = take(gray_src);
  for (auto& w : gray_words) w = gray.encode(w);
  const Row gray_row = run("Gray-coded Gaussian", gray_words, link, 5);
  streams::GaussianAr1Stream gauss_src(16, 3000.0, 0.0, 6);
  const Row gauss_row = run("Gaussian (balanced)", take(gauss_src), link);
  streams::BayerQuadStream image_src;
  const Row image_row = run("Image sub-bus", take(image_src, 0xFFFF), link);  // 16 b sub-bus

  bench::Claims claim("ablation");
  for (const Row& row : {gray_row, gauss_row, image_row}) {
    const std::string name = row.name;
    claim(row.full >= row.no_inversions, name + ": full >= no-inversions");
    claim(row.full >= row.mos_blind - 0.05, name + ": full >= MOS-blind - 0.05 pp");
  }
  claim(gray_row.full - gray_row.no_inversions >= 1.0,
        "Gray-coded Gaussian: inversions add >= 1 pp");
  claim(image_row.full - image_row.no_inversions >= 1.0, "Image sub-bus: inversions add >= 1 pp");
  claim(gauss_row.full - gauss_row.no_inversions < 0.1,
        "Gaussian (balanced): inversions add < 0.1 pp");
  std::printf("Gray-coded MOS-blind loss, mean over seeds 1-5: %.2f pp\n",
              gray_row.full - gray_row.mos_blind_mean);
  claim(gray_row.full - gray_row.mos_blind_mean >= 0.5,
        "Gray-coded Gaussian: MOS-blind gives up >= 0.5 pp (seed mean)");
  return claim.verdict();
}
