#pragma once
// Strict `--flag value` parsing shared by tsvcod_cli and tsvcod_serve.
//
// Each tool declares the flags it knows; any other flag is an error naming
// it, so a misspelt or retired flag fails instead of being ignored. Numeric
// values must be the whole string: a finite number, or a bare non-negative
// decimal integer. Every error names the flag (or the serve open-frame
// option) and quotes the value.

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace tsvcod::tools {

/// Strict non-negative integer: the whole string must be decimal digits
/// (std::stoull alone accepts a sign, "-2" wrapping to 2^64-2, and ignores
/// trailing junk). The error names `what`.
inline std::size_t parse_size(const std::string& what, const std::string& v) {
  bool ok = !v.empty() && v[0] != '-' && v[0] != '+';
  std::uint64_t out = 0;
  if (ok) {
    try {
      std::size_t used = 0;
      out = std::stoull(v, &used, 10);
      ok = used == v.size();
    } catch (const std::exception&) {
      ok = false;
    }
  }
  if (!ok) throw std::runtime_error(what + " expects a non-negative integer, got: '" + v + "'");
  return out;
}

/// Strict finite number: the whole string must parse, and nan/inf are
/// refused. The error names `what`.
inline double parse_number(const std::string& what, const std::string& v) {
  std::size_t used = 0;
  double out = 0.0;
  try {
    out = std::stod(v, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (v.empty() || used != v.size() || !std::isfinite(out)) {
    throw std::runtime_error(what + " expects a finite number, got: '" + v + "'");
  }
  return out;
}

class Args {
 public:
  /// Parse argv[first..argc): `flags` each take one value, `switches` take
  /// none. "-h" is read as "--help".
  Args(int argc, char** argv, int first, const std::set<std::string>& flags,
       const std::set<std::string>& switches) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key == "-h") key = "--help";
      if (key.rfind("--", 0) != 0) throw std::runtime_error("expected --flag, got: " + key);
      key = key.substr(2);
      if (switches.count(key) > 0) {
        values_[key] = "1";
        continue;
      }
      if (flags.count(key) == 0) throw std::runtime_error("unknown flag --" + key);
      if (i + 1 >= argc) throw std::runtime_error("missing value for --" + key);
      values_[key] = argv[++i];
    }
  }

  bool has(const std::string& k) const { return values_.count(k) > 0; }

  std::string str(const std::string& k) const {
    const auto it = values_.find(k);
    if (it == values_.end()) throw std::runtime_error("missing required --" + k);
    return it->second;
  }
  std::string str_or(const std::string& k, const std::string& def) const {
    return has(k) ? values_.at(k) : def;
  }
  double number_or(const std::string& k, double def) const {
    return has(k) ? parse_number("--" + k, values_.at(k)) : def;
  }
  std::size_t size(const std::string& k) const { return parse_size("--" + k, str(k)); }
  std::size_t size_or(const std::string& k, std::size_t def) const {
    return has(k) ? parse_size("--" + k, values_.at(k)) : def;
  }
  /// A count in [1, INT_MAX] (an optimizer budget): zero would run nothing
  /// and a larger value would wrap when narrowed to int.
  int count_or(const std::string& k, int def) const {
    constexpr int kMax = std::numeric_limits<int>::max();
    const std::size_t v = has(k) ? parse_size("--" + k, values_.at(k)) : def;
    if (v < 1 || v > kMax) {
      throw std::runtime_error("--" + k + " expects an integer in [1, " + std::to_string(kMax) +
                               "], got: '" + values_.at(k) + "'");
    }
    return static_cast<int>(v);
  }

  /// Comma-separated list of non-negative integers; empty when absent.
  std::vector<std::size_t> index_list_or(const std::string& k) const {
    std::vector<std::size_t> out;
    if (!has(k)) return out;
    std::istringstream ss(values_.at(k));
    std::string tok;
    while (std::getline(ss, tok, ',')) out.push_back(parse_size("--" + k, tok));
    return out;
  }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace tsvcod::tools
