#pragma once
// Bench regression diffing: flatten two BENCH_*.json documents into
// `row.metric` scalars, compare them with per-metric direction heuristics
// and tolerance gates, and render the verdict as a human table and a machine
// JSON document. `tools/tsvcod_benchdiff` is the CLI wrapper;
// `tools/ci_bench_gate.sh` wires it against the committed baselines.
//
// Two input shapes are understood:
//  - the repo's bench shape `{"bench":…, <scalar params>, "results":[rows]}`
//    (row id from the row's "width" → `w16.scalar_words_per_sec`; top-level
//    scalars are run parameters, not metrics, and are skipped), and
//  - google-benchmark `--benchmark_out` JSON (`{"context":…,"benchmarks":[…]}`,
//    row id from "name", bookkeeping fields skipped, counters kept).
// Anything else falls back to flattening every numeric/bool leaf by dotted
// path, so hand-rolled BENCH files keep working.

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace tsvcod::obs::benchdiff {

enum class Direction {
  higher_better,  // name contains per_sec / per_second / speedup / throughput
  lower_better,   // name contains time / latency / misses / iterations / _ns / _ms
  two_sided,      // anything else numeric: |delta| gated
  boolean,        // regression on true -> false (a vanished one: DiffReport::lost_checks)
};

/// Heuristic applied to the metric part of a flattened key (after the last
/// '.'). Exposed for tests.
Direction direction_of(const std::string& key);

struct MetricDiff {
  std::string key;
  double base = 0.0;
  double cand = 0.0;
  double delta_pct = 0.0;  // signed; ±1e9 stands in for "from zero"
  Direction direction = Direction::two_sided;
  double tolerance_pct = 0.0;
  bool regression = false;
};

struct DiffOptions {
  double tolerance_pct = 10.0;
  /// (pattern, tolerance) overrides; the first pattern contained in a
  /// metric's key wins.
  std::vector<std::pair<std::string, double>> per_metric;
};

struct DiffReport {
  std::vector<MetricDiff> metrics;     // key-sorted
  std::vector<std::string> only_base;  // numeric, present in base only (reported, not gated)
  std::vector<std::string> only_cand;
  /// Booleans present in base only. A check that vanished cannot be told
  /// apart from one that stopped passing, so each one is a regression.
  std::vector<std::string> lost_checks;
  bool regression = false;
};

/// Flatten one document to key-sorted (key, value, is_bool) triples. Throws
/// std::runtime_error (from the JSON parser) on malformed input.
struct FlatMetric {
  std::string key;
  double value = 0.0;
  bool is_bool = false;
};
std::vector<FlatMetric> flatten_bench_json(const std::string& text);

DiffReport diff_bench_json(const std::string& base_text, const std::string& cand_text,
                           const DiffOptions& options);

std::string report_to_json(const DiffReport& report);
std::string report_to_table(const DiffReport& report);

}  // namespace tsvcod::obs::benchdiff
