// tsvcod_benchdiff — diff two BENCH_*.json files with per-metric tolerance
// gates. Exit codes: 0 = within tolerance, 1 = regression, 2 = usage or
// parse error. Both the repo's bench JSON shape and google-benchmark
// --benchmark_out files are accepted (see src/obs/benchdiff.hpp).
//
// Examples:
//   tsvcod_benchdiff BENCH_serve.json fresh_serve.json
//   tsvcod_benchdiff base.json cand.json --tolerance 25
//       --metric-tolerance words_per_sec=40 --json diff.json

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "obs/benchdiff.hpp"

namespace {

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

/// Strict percentage: the whole string is a finite number >= 0. A NaN or
/// negative tolerance would disable the gate it configures.
double parse_pct(const std::string& text, const std::string& flag) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value) || value < 0.0) {
    throw std::runtime_error(flag + " expects a finite percentage >= 0, got: '" + text + "'");
  }
  return value;
}

void usage() {
  std::fprintf(stderr,
               "usage: tsvcod_benchdiff BASE.json CANDIDATE.json\n"
               "         [--tolerance PCT]              default gate (default 10)\n"
               "         [--metric-tolerance PAT=PCT]   override for keys containing PAT\n"
               "                                        (repeatable, first match wins)\n"
               "         [--json FILE]                  also write the machine report\n"
               "exit codes: 0 ok, 1 regression, 2 usage/parse error\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tsvcod::obs;
  std::string base_path, cand_path, json_out;
  benchdiff::DiffOptions options;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--tolerance") {
        if (++i >= argc) throw std::runtime_error("missing value for --tolerance");
        options.tolerance_pct = parse_pct(argv[i], arg);
      } else if (arg == "--metric-tolerance") {
        if (++i >= argc) throw std::runtime_error("missing value for --metric-tolerance");
        const std::string spec = argv[i];
        const std::size_t eq = spec.rfind('=');
        if (eq == std::string::npos || eq == 0) {
          throw std::runtime_error("--metric-tolerance expects PATTERN=PCT, got: " + spec);
        }
        options.per_metric.emplace_back(spec.substr(0, eq), parse_pct(spec.substr(eq + 1), arg));
      } else if (arg == "--json") {
        if (++i >= argc) throw std::runtime_error("missing value for --json");
        json_out = argv[i];
      } else if (arg.rfind("--", 0) == 0) {
        throw std::runtime_error("unknown flag: " + arg);
      } else if (base_path.empty()) {
        base_path = arg;
      } else if (cand_path.empty()) {
        cand_path = arg;
      } else {
        throw std::runtime_error("unexpected argument: " + arg);
      }
    }
    if (base_path.empty() || cand_path.empty()) {
      usage();
      return 2;
    }

    const benchdiff::DiffReport report =
        benchdiff::diff_bench_json(read_file(base_path), read_file(cand_path), options);
    std::fputs(benchdiff::report_to_table(report).c_str(), stdout);
    if (!json_out.empty()) {
      std::ofstream os(json_out);
      if (!os) throw std::runtime_error("cannot open " + json_out + " for writing");
      os << benchdiff::report_to_json(report);
    }
    return report.regression ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
