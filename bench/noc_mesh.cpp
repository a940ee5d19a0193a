// Mesh-at-scale throughput baseline for the batched NoC engine: simulated
// flits/sec across mesh sizes (2^3 up to 8x8x8) x traffic regimes (hotspot,
// transpose, bursty-MEMS) x thread counts, against the deque golden model
// (noc/reference.hpp), which matches the batched engine's semantics
// bit-for-bit and anchors the correctness booleans.
//
// Every row also runs the coded fabric (bus-invert on all vertical TSV
// bundles) and checks the three invariants the engine promises:
//
//   matches_reference   batched engine == deque golden model (delivery digest,
//                       counts, latency totals, link counters)
//   bit_identical       K-thread run == 1-thread run, full SimStats
//   coded_transparent   coded fabric delivers the identical stream and never
//                       exceeds the uncoded toggle count on a vertical link
//
// The committed BENCH_noc.json gates on those booleans (host-independent);
// the flits/sec and speedup columns are the perf trajectory and gate only
// through tsvcod_benchdiff's generous tolerances, because wall-clock ratios
// move with the host (the K-thread column in particular collapses to ~1x on
// a single-core CI box).
//
//   noc_mesh [--cycles N] [--reps R] [--threads K] [--out PATH]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "common.hpp"
#include "noc/reference.hpp"
#include "noc/simulator.hpp"

using namespace tsvcod;

namespace {

struct Regime {
  const char* name;
  noc::SpatialPattern spatial;
  noc::PayloadModel payload;
  double rate;
  double burst_on;
  double burst_off;
};

constexpr Regime kRegimes[] = {
    // Memory-fetch columns: every layer talks to the stack above it.
    {"hotspot", noc::SpatialPattern::Hotspot, noc::PayloadModel::Dsp, 0.20, 0.0, 0.0},
    // Worst-case planar shuffle that still crosses layers.
    {"transpose", noc::SpatialPattern::Transpose, noc::PayloadModel::Random, 0.15, 0.0, 0.0},
    // MEMS sensor bursts: silent, then a dense packed-coordinate train.
    {"bursty-mems", noc::SpatialPattern::Hotspot, noc::PayloadModel::Mems, 0.50, 32.0, 96.0},
};

struct MeshDims {
  std::size_t nx, ny, nz;
};

constexpr MeshDims kSizes[] = {{2, 2, 2}, {4, 4, 3}, {6, 6, 4}, {8, 8, 8}};

noc::TrafficConfig make_config(const Regime& regime) {
  noc::TrafficConfig cfg;
  cfg.spatial = regime.spatial;
  cfg.payload = regime.payload;
  cfg.injection_rate = regime.rate;
  cfg.flit_width = 32;
  cfg.burst_on = regime.burst_on;
  cfg.burst_off = regime.burst_off;
  cfg.seed = 42;
  return cfg;
}

template <typename Fn>
double timed_seconds(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

bool matches_reference(const noc::SimStats& fast, const noc::SimStats& ref) {
  return fast.injected == ref.injected && fast.delivered == ref.delivered &&
         fast.latency_cycles == ref.latency_cycles &&
         fast.ejection_digest == ref.ejection_digest && fast.max_queued == ref.max_queued &&
         fast.in_flight == ref.in_flight && fast.link_flits == ref.link_flits &&
         fast.link_toggles == ref.link_toggles;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t cycles = 4000;
  int reps = 2;
  int threads = 8;
  std::string out = "BENCH_noc.json";
  for (int i = 1; i < argc; ++i) {
    const auto next = [&](const char* flag) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "noc_mesh: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--cycles")) {
      cycles = std::stoull(next("--cycles"));
    } else if (!std::strcmp(argv[i], "--reps")) {
      reps = std::stoi(next("--reps"));
    } else if (!std::strcmp(argv[i], "--threads")) {
      threads = std::stoi(next("--threads"));
    } else if (!std::strcmp(argv[i], "--out")) {
      out = next("--out");
    } else {
      std::fprintf(stderr, "usage: noc_mesh [--cycles N] [--reps R] [--threads K] [--out PATH]\n");
      return 2;
    }
  }
  if (cycles < 16) cycles = 16;
  if (reps < 1) reps = 1;
  if (threads < 2) threads = 2;

  bench::print_header("3D-mesh NoC at scale: batched kernel vs deque reference",
                      "per-link adaptive coding on every vertical TSV bundle");
  std::printf("%zu cycles/run, best of %d reps, parallel at %d threads\n\n", cycles, reps,
              threads);
  std::printf("%-20s %9s %9s %9s %8s %6s %6s %6s %8s\n", "config", "ref_Mf/s", "1t_Mf/s",
              "Kt_Mf/s", "spd_thr", "ref=", "1t=Kt", "coded", "tog_red%");

  bench::BenchJson doc("noc_mesh");
  doc.param("cycles", static_cast<double>(cycles))
      .param("reps", reps)
      .param("threads", threads)
      .param("flit_width", 32);

  bool all_ok = true;
  for (const auto& dims : kSizes) {
    for (const auto& regime : kRegimes) {
      noc::Mesh3D mesh(dims.nx, dims.ny, dims.nz);
      const noc::TrafficConfig cfg = make_config(regime);

      // Interleave the engines inside each rep (taking each engine's best
      // across reps) so a background-load spike on the host degrades all
      // columns of a rep together instead of skewing one speedup ratio.
      noc::SimStats ref_stats, serial_stats, parallel_stats;
      noc::SimOptions kt;
      kt.threads = threads;
      double ref_secs = 1e300, serial_secs = 1e300, parallel_secs = 1e300;
      for (int rep = 0; rep < reps; ++rep) {
        ref_secs = std::min(ref_secs, timed_seconds([&] {
                     noc::ReferenceSimulator ref(mesh, cfg);
                     ref_stats = ref.run(cycles);
                   }));
        serial_secs = std::min(serial_secs, timed_seconds([&] {
                        noc::NocSimulator sim(mesh, cfg);
                        serial_stats = sim.run(cycles);
                      }));
        parallel_secs = std::min(parallel_secs, timed_seconds([&] {
                          noc::NocSimulator sim(mesh, cfg, kt);
                          parallel_stats = sim.run(cycles);
                        }));
      }

      noc::NocSimulator coded(mesh, cfg);
      coded.attach_vertical_coding({.name = "bus-invert"});
      const noc::SimStats coded_stats = coded.run(cycles);

      std::uint64_t uncoded_toggles = 0, coded_toggles = 0;
      bool coded_bounded = true;
      for (std::size_t r = 0; r < mesh.node_count(); ++r) {
        for (const auto d : {noc::Direction::ZPlus, noc::Direction::ZMinus}) {
          const std::size_t slot = noc::link_slot(r, d);
          uncoded_toggles += coded_stats.link_toggles[slot];
          coded_toggles += coded_stats.link_coded_toggles[slot];
          coded_bounded =
              coded_bounded &&
              coded_stats.link_coded_toggles[slot] <= coded_stats.link_toggles[slot];
        }
      }
      const bool ref_match = matches_reference(serial_stats, ref_stats);
      const bool bit_identical = serial_stats == parallel_stats;
      const bool coded_transparent =
          coded_bounded && coded_stats.ejection_digest == serial_stats.ejection_digest &&
          coded_stats.delivered == serial_stats.delivered &&
          coded_stats.link_flits == serial_stats.link_flits;
      const bool ok = ref_match && bit_identical && coded_transparent;
      all_ok = all_ok && ok;

      const double delivered = static_cast<double>(serial_stats.delivered);
      const double ref_mfps = ref_secs > 0 ? delivered / ref_secs / 1e6 : 0.0;
      const double serial_mfps = serial_secs > 0 ? delivered / serial_secs / 1e6 : 0.0;
      const double parallel_mfps = parallel_secs > 0 ? delivered / parallel_secs / 1e6 : 0.0;
      const double speedup_vs_ref = serial_secs > 0 ? ref_secs / serial_secs : 0.0;
      const double speedup_threads = parallel_secs > 0 ? serial_secs / parallel_secs : 0.0;
      const double toggle_reduction_pct =
          uncoded_toggles > 0
              ? 100.0 * (1.0 - static_cast<double>(coded_toggles) /
                                   static_cast<double>(uncoded_toggles))
              : 0.0;

      char name[48];
      std::snprintf(name, sizeof name, "%zux%zux%zu/%s", dims.nx, dims.ny, dims.nz, regime.name);
      std::printf("%-20s %9.2f %9.2f %9.2f %7.1fx %6s %6s %6s %8.1f\n", name, ref_mfps,
                  serial_mfps, parallel_mfps, speedup_threads, ref_match ? "yes" : "NO", bit_identical ? "yes" : "NO",
                  coded_transparent ? "yes" : "NO", toggle_reduction_pct);

      doc.begin_row()
          .field("name", name)
          .field("nodes", static_cast<double>(mesh.node_count()))
          .field("ref_mflits_per_sec", ref_mfps)
          .field("serial_mflits_per_sec", serial_mfps)
          .field("parallel_mflits_per_sec", parallel_mfps)
          .field("speedup_vs_ref", speedup_vs_ref)
          .field("speedup_threads", speedup_threads)
          .field("vlink_toggles_uncoded", static_cast<double>(uncoded_toggles))
          .field("vlink_toggles_coded", static_cast<double>(coded_toggles))
          .field("toggle_reduction_pct", toggle_reduction_pct)
          .field("matches_reference", ref_match)
          .field("bit_identical", bit_identical)
          .field("coded_transparent", coded_transparent)
          .field("ok", ok);
    }
  }

  doc.write(out);
  std::printf("\nBENCH {\"bench\": \"noc_mesh\", \"out\": \"%s\", \"ok\": %s}\n", out.c_str(),
              all_ok ? "true" : "false");
  return all_ok ? 0 : 1;
}
