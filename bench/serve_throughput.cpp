// Service-layer throughput: concurrent sessions streaming word batches
// through the sharded server, plus the drift-trip -> re-anneal -> hot-swap
// latency. Every throughput row is validated bit-identical against the
// one-shot batch fold before its number is reported, and the swap row
// requires zero decode desyncs — the two invariants the session layer
// exists to uphold. Writes the BENCH JSON only to an explicit --out, so a
// plain run never overwrites the committed BENCH_serve.json baseline.
//
//   serve_throughput [--words N] [--reps R] [--out PATH]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
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

    serve::Server server({.shards = 4, .queue_capacity = 64});
    for (int s = 0; s < sessions; ++s) {
      server.open_session(static_cast<std::uint64_t>(s), session_config(0.0));
    }

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> producers;
    for (int s = 0; s < sessions; ++s) {
      producers.emplace_back([&, s] {
        const std::span<const std::uint64_t> all(streams[static_cast<std::size_t>(s)]);
        for (std::size_t off = 0; off < all.size(); off += batch) {
          const auto chunk = all.subspan(off, std::min(batch, all.size() - off));
          server.ingest(static_cast<std::uint64_t>(s),
                        std::vector<std::uint64_t>(chunk.begin(), chunk.end()));
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
/// measures trip -> install latency of the background re-anneal.
SwapRow run_swap(std::size_t words_total, std::size_t batch) {
  SwapRow row;
  const auto words = traffic(7, words_total, words_total / 4);
  serve::Server server({.shards = 2, .queue_capacity = 32});
  server.open_session(1, session_config(0.05));

  const std::span<const std::uint64_t> all(words);
  for (std::size_t off = 0; off < all.size(); off += batch) {
    const auto chunk = all.subspan(off, std::min(batch, all.size() - off));
    server.ingest(1, std::vector<std::uint64_t>(chunk.begin(), chunk.end()));
  }
  server.drain();

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

int main(int argc, char** argv) {
  std::size_t words_each = 1u << 18;  // per session
  std::size_t reps = 3;
  std::string out;
  for (int i = 1; i < argc; ++i) {
    const auto next = [&](const char* flag) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "serve_throughput: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--words")) {
      words_each = bench::size_flag("serve_throughput", "--words", next("--words"));
    } else if (!std::strcmp(argv[i], "--reps")) {
      reps = bench::size_flag("serve_throughput", "--reps", next("--reps"));
    } else if (!std::strcmp(argv[i], "--out")) {
      out = next("--out");
    } else {
      std::fprintf(stderr, "usage: serve_throughput [--words N] [--reps R] [--out PATH]\n");
      return 2;
    }
  }
  if (words_each < 4096) words_each = 4096;
  if (reps < 1) reps = 1;
  constexpr std::size_t kBatch = 512;

  bench::print_header("Session-server throughput",
                      "concurrent streaming sessions + drift-triggered hot-swap latency");
  std::printf("%zu words/session in %zu-word batches, best of %zu reps\n\n", words_each, kBatch,
              reps);
  std::printf("%10s %16s %8s %6s\n", "row", "words_per_sec", "desyncs", "ident");

  bench::BenchJson doc("serve_throughput");
  doc.param("words_per_session", static_cast<double>(words_each))
      .param("batch_words", static_cast<double>(kBatch))
      .param("reps", static_cast<double>(reps));

  bool ok = true;
  for (const int sessions : {1, 2, 4, 8}) {
    const ThroughputRow row = run_throughput(sessions, words_each, kBatch, reps);
    ok = ok && row.bit_identical && row.desyncs == 0;
    std::printf("%10s %16.3e %8llu %6s\n",
                ("sessions_" + std::to_string(sessions)).c_str(), row.words_per_sec,
                static_cast<unsigned long long>(row.desyncs), row.bit_identical ? "yes" : "NO");
    doc.begin_row()
        .field("name", "sessions_" + std::to_string(sessions))
        .field("words_per_sec", row.words_per_sec)
        .field("desyncs", static_cast<double>(row.desyncs))
        .field("bit_identical", row.bit_identical);
  }

  const SwapRow swap = run_swap(8 * words_each >= 32768 ? 32768 : 8 * words_each, kBatch);
  ok = ok && swap.swaps >= 1 && swap.desyncs == 0 && swap.bit_identical;
  std::printf("%10s latency %.2f ms, improvement %.1f%%, swaps %llu, desyncs %llu, ident %s\n",
              "hot_swap", swap.latency_ms, swap.improvement_pct,
              static_cast<unsigned long long>(swap.swaps),
              static_cast<unsigned long long>(swap.desyncs), swap.bit_identical ? "yes" : "NO");
  doc.begin_row()
      .field("name", "hot_swap")
      .field("swap_latency_ms", swap.latency_ms)
      .field("improvement_pct", swap.improvement_pct)
      .field("swaps", static_cast<double>(swap.swaps))
      .field("desyncs", static_cast<double>(swap.desyncs))
      .field("bit_identical", swap.bit_identical);

  if (!out.empty()) doc.write(out);
  std::printf("\nBENCH {\"bench\": \"serve_throughput\", \"out\": %s, \"ok\": %s}\n",
              out.empty() ? "null" : ("\"" + out + "\"").c_str(), ok ? "true" : "false");
  return ok ? 0 : 1;
}
