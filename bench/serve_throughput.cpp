// Service-layer throughput: concurrent sessions, one producer thread each,
// streaming word batches through the server, plus the drift-trip ->
// re-anneal -> hot-swap latency. It runs at one fixed size (262,144 words
// per session in 512-word batches, best of 3) and takes no flags.
//
// The bench exits 1 unless its claims hold: every sessions row's long-run
// counts are bit-identical to the one-shot batch fold with zero decode
// desyncs; aggregate words/s never falls as sessions are added, up to the
// hardware thread count; and the drifting session hot-swaps at least once
// with zero desyncs and bit-identical counts. Words/s, the swap latency and
// the swap's power improvement are printed, not checked.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "opt/parallel.hpp"
#include "phys/tsv_geometry.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "stats/ingest.hpp"

using namespace tsvcod;

namespace {

tsv::LinearCapacitanceModel model8() {
  static const tsv::LinearCapacitanceModel model =
      tsv::fit_from_analytic(phys::TsvArrayGeometry::itrs2018_relaxed(2, 4));
  return model;
}

serve::SessionConfig session_config(double drift_threshold) {
  serve::SessionConfig cfg;
  cfg.width = 8;
  cfg.model = model8();
  cfg.codec.name = "correlator";
  cfg.drift.window_words = 1024;
  cfg.drift.threshold = drift_threshold;
  cfg.optimize.schedule.iterations = 5000;
  cfg.optimize.schedule.restarts = 1;
  cfg.optimize.chains = 2;
  return cfg;
}

/// Deterministic per-session traffic; `phase_shift_at` moves the busy bit
/// group mid-stream (what the drift detector keys on).
std::vector<std::uint64_t> traffic(unsigned seed, std::size_t n, std::size_t phase_shift_at) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint64_t> words;
  words.reserve(n);
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    prev ^= i < phase_shift_at ? (rng() & 0x7u) : ((rng() & 0x7u) << 5);
    words.push_back(prev);
  }
  return words;
}

stats::SwitchingCounts batch_counts(std::span<const std::uint64_t> words) {
  stats::ChunkFolder folder(8);
  folder.fold(words);
  return folder.counts();
}

bool counts_identical(const stats::SwitchingCounts& a, const stats::SwitchingCounts& b) {
  return a.width == b.width && a.words == b.words && a.transitions == b.transitions &&
         a.ones == b.ones && a.self == b.self && a.cross == b.cross;
}

struct ThroughputRow {
  double words_per_sec = 0.0;
  bool bit_identical = true;
  std::uint64_t desyncs = 0;
};

/// `sessions` producer threads each stream `words_each` words in
/// `batch`-word chunks into their own session, concurrently.
ThroughputRow run_throughput(int sessions, std::size_t words_each, std::size_t batch,
                             std::size_t reps) {
  ThroughputRow row;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    std::vector<std::vector<std::uint64_t>> streams;
    for (int s = 0; s < sessions; ++s) {
      streams.push_back(traffic(1000u + static_cast<unsigned>(s), words_each, words_each));
    }

    serve::Server server;
    for (int s = 0; s < sessions; ++s) {
      server.open_session(static_cast<std::uint64_t>(s), session_config(0.0));
    }

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> producers;
    for (int s = 0; s < sessions; ++s) {
      producers.emplace_back([&, s] {
        const std::span<const std::uint64_t> all(streams[static_cast<std::size_t>(s)]);
        for (std::size_t off = 0; off < all.size(); off += batch) {
          server.ingest(static_cast<std::uint64_t>(s),
                        all.subspan(off, std::min(batch, all.size() - off)));
        }
      });
    }
    for (auto& p : producers) p.join();
    server.drain();
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

    const double total = static_cast<double>(words_each) * sessions;
    if (secs > 0.0) row.words_per_sec = std::max(row.words_per_sec, total / secs);
    for (int s = 0; s < sessions; ++s) {
      const auto snap = server.session_stats(static_cast<std::uint64_t>(s));
      row.desyncs += snap.desyncs;
      if (!counts_identical(snap.longrun, batch_counts(streams[static_cast<std::size_t>(s)]))) {
        row.bit_identical = false;
      }
    }
  }
  return row;
}

struct SwapRow {
  double latency_ms = 0.0;
  double improvement_pct = 0.0;
  std::uint64_t swaps = 0;
  std::uint64_t desyncs = 0;
  bool bit_identical = true;
};

/// One session with the drift detector armed and a mid-stream phase shift:
/// measures trip -> install latency of the background re-anneal. Each batch
/// waits for a re-anneal it tripped to install, so the traffic after every
/// swap but the last runs through the new assignment: a swap that reached
/// only one side of the link shows as desyncs.
SwapRow run_swap(std::size_t words_total, std::size_t batch) {
  SwapRow row;
  const auto words = traffic(7, words_total, words_total / 4);
  serve::Server server;
  server.open_session(1, session_config(0.05));

  const std::span<const std::uint64_t> all(words);
  for (std::size_t off = 0; off < all.size(); off += batch) {
    server.ingest(1, all.subspan(off, std::min(batch, all.size() - off)));
    server.drain();
  }

  for (const auto& event : server.poll_swaps()) {
    if (!event.installed) continue;
    ++row.swaps;
    if (row.swaps == 1) {
      row.latency_ms = event.latency_ms;
      row.improvement_pct =
          event.power_before > 0.0 ? (1.0 - event.power_after / event.power_before) * 100.0 : 0.0;
    }
  }
  const auto snap = server.session_stats(1);
  row.desyncs = snap.desyncs;
  row.bit_identical = counts_identical(snap.longrun, batch_counts(all));
  return row;
}

}  // namespace

int main() {
  constexpr std::size_t kWordsEach = 1u << 18;  // per session
  constexpr std::size_t kBatch = 512;
  constexpr std::size_t kReps = 3;
  constexpr std::size_t kSwapWords = 32768;  // the drifting session's stream

  bench::print_header("Session-server throughput",
                      "concurrent streaming sessions + drift-triggered hot-swap latency");
  std::printf("%zu words/session in %zu-word batches, best of %zu reps\n\n", kWordsEach, kBatch,
              kReps);
  std::printf("%10s %16s %8s %6s\n", "row", "words_per_sec", "desyncs", "ident");

  bench::Claims claim("serve throughput");
  const int nproc = opt::hardware_threads();
  bool scales_to_nproc = true;
  double prev_words_per_sec = 0.0;
  for (const int sessions : {1, 2, 4, 8}) {
    const ThroughputRow row = run_throughput(sessions, kWordsEach, kBatch, kReps);
    if (sessions <= nproc && row.words_per_sec < prev_words_per_sec) scales_to_nproc = false;
    prev_words_per_sec = row.words_per_sec;
    const std::string name = "sessions_" + std::to_string(sessions);
    std::printf("%10s %16.3e %8llu %6s\n", name.c_str(), row.words_per_sec,
                static_cast<unsigned long long>(row.desyncs), row.bit_identical ? "yes" : "NO");
    claim(row.bit_identical, name + ": long-run counts bit-identical to the one-shot fold");
    claim(row.desyncs == 0, name + ": zero decode desyncs");
  }

  std::printf("%10s %s (aggregate words/s never falls up to %d sessions)\n", "scaling",
              scales_to_nproc ? "yes" : "NO", nproc);
  claim(scales_to_nproc,
        "aggregate words/s never falls as sessions grow up to " + std::to_string(nproc));

  const SwapRow swap = run_swap(kSwapWords, kBatch);
  std::printf("%10s latency %.2f ms, improvement %.1f%%, swaps %llu, desyncs %llu, ident %s\n",
              "hot_swap", swap.latency_ms, swap.improvement_pct,
              static_cast<unsigned long long>(swap.swaps),
              static_cast<unsigned long long>(swap.desyncs), swap.bit_identical ? "yes" : "NO");
  claim(swap.swaps >= 1, "hot_swap: at least one drift-triggered swap installed");
  claim(swap.desyncs == 0, "hot_swap: zero decode desyncs across the swap");
  claim(swap.bit_identical, "hot_swap: long-run counts bit-identical to the one-shot fold");
  return claim.verdict();
}
