#pragma once
// Shared helpers for the experiment harnesses: consistent study options,
// stable-line handling, table printing, the claim verdict and the standard
// BENCH JSON shape.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "args.hpp"
#include "core/link.hpp"
#include "opt/parallel.hpp"
#include "streams/word_stream.hpp"

namespace tsvcod::bench {

/// Worker threads for the benches: the TSVCOD_THREADS environment override,
/// else 1. Results are bit-identical at every thread count, so sweeps can be
/// sped up freely without invalidating any figure.
inline int env_threads() { return opt::default_threads(); }

/// Study options with a reproducible, adequately sized annealing budget.
inline core::StudyOptions default_study(unsigned seed = 1) {
  core::StudyOptions so;
  so.random_samples = 300;
  so.optimize.schedule.iterations = 15000;
  so.optimize.schedule.restarts = 3;
  so.optimize.seed = seed;
  so.optimize.threads = env_threads();
  return so;
}

/// Per-bit inversion permissions for a payload stream of `payload_width`
/// followed by stable lines (power/ground lines must not be inverted).
inline std::vector<std::uint8_t> invert_mask(std::size_t payload_width,
                                             const std::vector<streams::StableLine>& lines) {
  std::vector<std::uint8_t> mask(payload_width, 1);
  for (const auto& l : lines) mask.push_back(l.invertible ? 1 : 0);
  return mask;
}

/// A count flag's value read by `tools::parse_size`'s rules: the whole
/// string, bare decimal digits ("-1" does not wrap to 2^64-1). A bad value
/// exits 2 naming the flag, before any work starts.
inline std::size_t size_flag(const char* bench, const char* flag, const char* value) {
  try {
    return tools::parse_size(flag, value);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", bench, e.what());
    std::exit(2);
  }
}

inline void print_header(const std::string& title, const std::string& paper_note) {
  std::printf("\n=== %s ===\n", title.c_str());
  if (!paper_note.empty()) std::printf("paper: %s\n", paper_note.c_str());
}

/// The claims a bench's table backs, checked on every run: each failed one
/// is printed as it is judged, and `verdict()` prints one line and returns
/// the bench's exit status, 1 if any claim failed. The claims and their
/// margins are recorded in EXPERIMENTS.md.
class Claims {
 public:
  explicit Claims(std::string bench) : bench_(std::move(bench)) {}

  void operator()(bool ok, const std::string& what) {
    ++checked_;
    if (!ok) {
      ++failed_;
      std::printf("CHECK FAILED: %s\n", what.c_str());
    }
  }

  int verdict() const {
    if (failed_ == 0) {
      std::printf("%s claims: all %d hold\n", bench_.c_str(), checked_);
      return 0;
    }
    std::printf("%s claims: FAILED (%d of %d)\n", bench_.c_str(), failed_, checked_);
    return 1;
  }

 private:
  std::string bench_;
  int checked_ = 0;
  int failed_ = 0;
};

/// Standard BENCH JSON writer: `{"bench": NAME, <scalar params>, "results":
/// [rows]}` — the shape every committed BENCH_*.json uses and the one
/// `tsvcod_benchdiff` understands (top-level scalars are run *parameters*
/// and are excluded from regression gating; row fields are the metrics,
/// keyed by the row's "width"/"name"). Integer-valued numbers are written
/// without an exponent so committed baselines stay human-diffable.
class BenchJson {
 public:
  explicit BenchJson(std::string bench) : bench_(std::move(bench)) {}

  BenchJson& param(const std::string& key, double value) {
    params_ += ",\n  \"" + key + "\": " + number(value);
    return *this;
  }

  /// Start a result row; subsequent field() calls attach to it.
  BenchJson& begin_row() {
    rows_.emplace_back();
    return *this;
  }
  BenchJson& field(const std::string& key, double value) {
    return raw_field(key, number(value));
  }
  BenchJson& field(const std::string& key, bool value) {
    return raw_field(key, value ? "true" : "false");
  }
  BenchJson& field(const std::string& key, const std::string& value) {
    return raw_field(key, "\"" + value + "\"");
  }
  /// String literals must render as strings, not fall into the bool overload.
  BenchJson& field(const std::string& key, const char* value) {
    return raw_field(key, "\"" + std::string(value) + "\"");
  }

  void write(const std::string& path) const {
    std::ofstream os(path);
    if (!os) throw std::runtime_error("bench: cannot open " + path + " for writing");
    os << "{\n  \"bench\": \"" << bench_ << "\"" << params_ << ",\n  \"results\": [\n";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      os << "    {" << rows_[r] << "}" << (r + 1 < rows_.size() ? ",\n" : "\n");
    }
    os << "  ]\n}\n";
    if (!os) throw std::runtime_error("bench: write failed: " + path);
  }

 private:
  static std::string number(double v) {
    char buf[40];
    if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
      std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    } else {
      std::snprintf(buf, sizeof buf, "%.7g", v);
    }
    return buf;
  }

  BenchJson& raw_field(const std::string& key, const std::string& rendered) {
    if (rows_.empty()) throw std::logic_error("bench: field() before begin_row()");
    std::string& row = rows_.back();
    if (!row.empty()) row += ", ";
    row += "\"" + key + "\": " + rendered;
    return *this;
  }

  std::string bench_;
  std::string params_;
  std::vector<std::string> rows_;
};

}  // namespace tsvcod::bench
