// Optimizer quality/runtime comparison (supports the paper's Sec. 3 remark
// that the optimization cost is negligible per TSV bundle): simulated
// annealing vs. deterministic greedy descent vs. the systematic mappings,
// on three workload classes over a 4x4 array. Powers are normalized;
// runtimes are wall clock for one optimization call and stay informational.
// The bench exits 1 unless the quality claims recorded in EXPERIMENTS.md
// hold.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "streams/image_sensor.hpp"
#include "streams/random_streams.hpp"

using namespace tsvcod;

namespace {

template <typename F>
std::pair<double, double> timed(F&& f) {
  const auto t0 = std::chrono::steady_clock::now();
  const double power = f();
  const auto t1 = std::chrono::steady_clock::now();
  return {power, std::chrono::duration<double, std::milli>(t1 - t0).count()};
}

/// Reductions (%) versus the mean random assignment.
struct Row {
  std::string name;
  double sa, greedy, spiral, sawtooth;
};

Row run(const char* name, std::unique_ptr<streams::WordStream> stream, const core::Link& link) {
  const auto st = link.measure(*stream, 40000);
  const auto base = core::random_assignment_power(st, link.model(), 300);

  auto sa_opts = bench::default_study().optimize;
  const auto [p_sa, t_sa] =
      timed([&] { return core::optimize_assignment(st, link.model(), sa_opts).power; });
  const auto [p_gd, t_gd] =
      timed([&] { return core::greedy_descent(st, link.model()).power; });
  const double p_spiral = link.power(st, core::spiral_assignment(link.geometry(), st));
  const double p_st = link.power(st, core::sawtooth_assignment(link.geometry(), st));

  const auto pct = [&](double power) { return core::reduction_pct(base.mean, power); };
  const Row row{name, pct(p_sa), pct(p_gd), pct(p_spiral), pct(p_st)};
  std::printf("%-22s SA %5.1f %% (%6.1f ms)   greedy %5.1f %% (%6.1f ms)   "
              "spiral %5.1f %%   ST %5.1f %%\n",
              name, row.sa, t_sa, row.greedy, t_gd, row.spiral, row.sawtooth);
  return row;
}

}  // namespace

int main() {
  bench::print_header("Optimizer comparison: annealing vs greedy descent vs systematic (4x4)",
                      "optimization cost per bundle is negligible (Sec. 3)");
  const auto geom = phys::TsvArrayGeometry::itrs2018_relaxed(4, 4);
  const core::Link link(geom);

  const Row addresses =
      run("addresses (2% branch)", std::make_unique<streams::SequentialStream>(16, 0.02, 3), link);
  const Row gaussian = run("Gaussian (rho 0.5)",
                           std::make_unique<streams::GaussianAr1Stream>(16, 800.0, 0.5, 3), link);
  // 16-bit sub-bus of the parallel Bayer stream (R and G1 components).
  streams::BayerQuadStream quad;
  std::vector<std::uint64_t> sub;
  for (int i = 0; i < 40001; ++i) sub.push_back(quad.next() & 0xFFFF);
  const Row image =
      run("image sub-bus", std::make_unique<streams::TraceStream>(std::move(sub), 16), link);

  bench::Claims claim("optimizer");
  for (const Row& row : {addresses, gaussian, image}) {
    claim(row.sa - row.greedy <= 1.5, row.name + ": greedy within 1.5 pp of SA");
    claim(row.sa >= row.spiral && row.sa >= row.sawtooth, row.name + ": SA >= Spiral, Sawtooth");
  }
  claim(addresses.sa - addresses.spiral <= 0.5, "addresses: Spiral within 0.5 pp of SA");
  return claim.verdict();
}
