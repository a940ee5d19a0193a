#include "obs/benchdiff.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string_view>

#include "obs/json.hpp"
#include "obs/obs.hpp"

namespace tsvcod::obs::benchdiff {

namespace {

bool contains(std::string_view haystack, std::string_view needle) {
  return haystack.find(needle) != std::string_view::npos;
}

/// google-benchmark per-entry bookkeeping that is not a metric.
bool is_gbench_bookkeeping(std::string_view key) {
  static constexpr std::string_view kSkip[] = {
      "name",           "run_name",         "run_type",
      "time_unit",      "repetitions",      "repetition_index",
      "family_index",   "per_family_instance_index", "threads",
      "iterations",     "aggregate_name",   "aggregate_unit",
  };
  for (const auto s : kSkip) {
    if (key == s) return true;
  }
  return false;
}

void add_scalar(std::vector<FlatMetric>& out, std::string key, const json::Value& v) {
  if (v.is_number()) {
    out.push_back({std::move(key), v.number, false});
  } else if (v.is_boolean()) {
    out.push_back({std::move(key), v.boolean ? 1.0 : 0.0, true});
  }
}

std::string row_id(const json::Value& row, std::size_t index) {
  if (const json::Value* width = row.find("width"); width != nullptr && width->is_number()) {
    return "w" + std::to_string(static_cast<long long>(width->number));
  }
  if (const json::Value* name = row.find("name"); name != nullptr && name->is_string()) {
    return name->string;
  }
  return "r" + std::to_string(index);
}

void flatten_results_rows(const json::Value& rows, std::vector<FlatMetric>& out) {
  for (std::size_t i = 0; i < rows.array.size(); ++i) {
    const json::Value& row = rows.array[i];
    if (!row.is_object()) continue;
    const std::string id = row_id(row, i);
    for (const auto& [key, value] : row.object) {
      if (key == "width" || key == "name") continue;
      add_scalar(out, id + "." + key, value);
    }
  }
}

void flatten_gbench_rows(const json::Value& rows, std::vector<FlatMetric>& out) {
  for (std::size_t i = 0; i < rows.array.size(); ++i) {
    const json::Value& row = rows.array[i];
    if (!row.is_object()) continue;
    std::string id = "r" + std::to_string(i);
    if (const json::Value* name = row.find("name"); name != nullptr && name->is_string()) {
      id = name->string;
    }
    for (const auto& [key, value] : row.object) {
      if (is_gbench_bookkeeping(key)) continue;
      add_scalar(out, id + "." + key, value);
    }
  }
}

void flatten_generic(const json::Value& v, const std::string& prefix,
                     std::vector<FlatMetric>& out) {
  if (v.is_object()) {
    for (const auto& [key, child] : v.object) {
      flatten_generic(child, prefix.empty() ? key : prefix + "." + key, out);
    }
  } else if (v.is_array()) {
    for (std::size_t i = 0; i < v.array.size(); ++i) {
      flatten_generic(v.array[i], prefix + "[" + std::to_string(i) + "]", out);
    }
  } else {
    add_scalar(out, prefix, v);
  }
}

std::string format_value(double v, bool is_bool) {
  if (is_bool) return v != 0.0 ? "true" : "false";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

const char* direction_name(Direction d) {
  switch (d) {
    case Direction::higher_better: return "higher_better";
    case Direction::lower_better: return "lower_better";
    case Direction::two_sided: return "two_sided";
    case Direction::boolean: return "boolean";
  }
  return "two_sided";
}

}  // namespace

Direction direction_of(const std::string& key) {
  const std::size_t dot = key.rfind('.');
  const std::string_view metric =
      dot == std::string::npos ? std::string_view(key) : std::string_view(key).substr(dot + 1);
  if (contains(metric, "per_sec") || contains(metric, "per_second") ||
      contains(metric, "speedup") || contains(metric, "throughput")) {
    return Direction::higher_better;
  }
  if (contains(metric, "time") || contains(metric, "latency") || contains(metric, "misses") ||
      contains(metric, "iterations") || contains(metric, "_ns") || contains(metric, "_ms")) {
    return Direction::lower_better;
  }
  return Direction::two_sided;
}

std::vector<FlatMetric> flatten_bench_json(const std::string& text) {
  const json::Value doc = json::parse(text);
  std::vector<FlatMetric> out;
  bool structured = false;
  if (doc.is_object()) {
    if (const json::Value* rows = doc.find("results"); rows != nullptr && rows->is_array()) {
      flatten_results_rows(*rows, out);
      structured = true;
    }
    if (const json::Value* rows = doc.find("benchmarks"); rows != nullptr && rows->is_array()) {
      flatten_gbench_rows(*rows, out);
      structured = true;
    }
  }
  // Top-level scalars next to "results" are run parameters (words, reps,
  // threads, …), not metrics — only the generic fallback keeps leaves.
  if (!structured) flatten_generic(doc, "", out);
  std::sort(out.begin(), out.end(),
            [](const FlatMetric& a, const FlatMetric& b) { return a.key < b.key; });
  return out;
}

DiffReport diff_bench_json(const std::string& base_text, const std::string& cand_text,
                           const DiffOptions& options) {
  const std::vector<FlatMetric> base = flatten_bench_json(base_text);
  const std::vector<FlatMetric> cand = flatten_bench_json(cand_text);
  std::map<std::string, const FlatMetric*> cand_by_key;
  for (const auto& m : cand) cand_by_key.emplace(m.key, &m);

  DiffReport report;
  std::map<std::string, bool> matched;
  for (const auto& b : base) {
    const auto it = cand_by_key.find(b.key);
    if (it == cand_by_key.end()) {
      (b.is_bool ? report.lost_checks : report.only_base).push_back(b.key);
      report.regression = report.regression || b.is_bool;
      continue;
    }
    matched[b.key] = true;
    const FlatMetric& c = *it->second;

    MetricDiff d;
    d.key = b.key;
    d.base = b.value;
    d.cand = c.value;
    d.direction = (b.is_bool || c.is_bool) ? Direction::boolean : direction_of(b.key);
    d.tolerance_pct = options.tolerance_pct;
    for (const auto& [pattern, tol] : options.per_metric) {
      if (contains(d.key, pattern)) {
        d.tolerance_pct = tol;
        break;
      }
    }
    if (b.value != 0.0) {
      d.delta_pct = (c.value - b.value) / std::fabs(b.value) * 100.0;
    } else {
      d.delta_pct = c.value == 0.0 ? 0.0 : (c.value > 0.0 ? 1e9 : -1e9);
    }
    switch (d.direction) {
      case Direction::higher_better: d.regression = d.delta_pct < -d.tolerance_pct; break;
      case Direction::lower_better: d.regression = d.delta_pct > d.tolerance_pct; break;
      case Direction::two_sided: d.regression = std::fabs(d.delta_pct) > d.tolerance_pct; break;
      case Direction::boolean: d.regression = b.value != 0.0 && c.value == 0.0; break;
    }
    report.regression = report.regression || d.regression;
    report.metrics.push_back(std::move(d));
  }
  for (const auto& c : cand) {
    if (!matched.count(c.key)) report.only_cand.push_back(c.key);
  }
  return report;
}

std::string report_to_json(const DiffReport& report) {
  std::string out = "{\"schema\":\"tsvcod.benchdiff.v1\",\"regression\":";
  out += report.regression ? "true" : "false";
  out += ",\"metrics\":[";
  bool first = true;
  for (const auto& d : report.metrics) {
    if (!first) out += ',';
    first = false;
    out += "{\"key\":\"" + json_escape(d.key) + "\",\"base\":" + json_number(d.base);
    out += ",\"cand\":" + json_number(d.cand);
    out += ",\"delta_pct\":" + json_number(d.delta_pct);
    out += ",\"direction\":\"";
    out += direction_name(d.direction);
    out += "\",\"tolerance_pct\":" + json_number(d.tolerance_pct);
    out += ",\"regression\":";
    out += d.regression ? "true" : "false";
    out += '}';
  }
  out += ']';
  const auto append_keys = [&out](const char* name, const std::vector<std::string>& keys) {
    out += ",\"";
    out += name;
    out += "\":[";
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (i > 0) out += ',';
      out += '"' + json_escape(keys[i]) + '"';
    }
    out += ']';
  };
  append_keys("only_base", report.only_base);
  append_keys("only_cand", report.only_cand);
  append_keys("lost_checks", report.lost_checks);
  out += '}';
  return out;
}

std::string report_to_table(const DiffReport& report) {
  std::size_t key_w = 6;
  for (const auto& d : report.metrics) key_w = std::max(key_w, d.key.size());
  std::string out;
  char line[512];
  std::snprintf(line, sizeof line, "%-*s %14s %14s %9s %14s  %s\n", static_cast<int>(key_w),
                "metric", "base", "candidate", "delta%", "direction", "verdict");
  out += line;
  for (const auto& d : report.metrics) {
    const bool is_bool = d.direction == Direction::boolean;
    std::snprintf(line, sizeof line, "%-*s %14s %14s %+8.2f%% %14s  %s\n",
                  static_cast<int>(key_w), d.key.c_str(), format_value(d.base, is_bool).c_str(),
                  format_value(d.cand, is_bool).c_str(), d.delta_pct, direction_name(d.direction),
                  d.regression ? "REGRESSION" : "ok");
    out += line;
  }
  for (const auto& k : report.only_base) out += "only in base:      " + k + "\n";
  for (const auto& k : report.only_cand) out += "only in candidate: " + k + "\n";
  for (const auto& k : report.lost_checks) out += "lost check:        " + k + "  REGRESSION\n";
  out += report.regression ? "RESULT: REGRESSION\n" : "RESULT: ok\n";
  return out;
}

}  // namespace tsvcod::obs::benchdiff
