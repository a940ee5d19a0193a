// Tests for the observability layer (src/obs): the trace output must be
// schema-valid Chrome trace-event JSON with properly nested per-thread spans,
// arguments taken from outside (file paths) must be escaped, disabled
// tracing must record nothing at all, and the NoC simulator's work counters
// must match its SimStats.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "core/link.hpp"
#include "field/extractor.hpp"
#include "noc/simulator.hpp"
#include "obs/obs.hpp"
#include "obs/profile.hpp"
#include "opt/parallel.hpp"
#include "stats/ingest.hpp"
#include "streams/random_streams.hpp"
#include "streams/word_source.hpp"

namespace {

using namespace tsvcod;

// ---------------------------------------------------------------------------
// Minimal strict JSON parser — the "schema check" half of the obs contract.
// ---------------------------------------------------------------------------

struct JValue {
  enum Kind { Null, Bool, Number, String, Array, Object } kind = Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JValue> array;
  std::map<std::string, JValue> object;

  const JValue* find(const std::string& key) const {
    const auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  /// Parses the full document; returns false on any syntax error or
  /// trailing garbage.
  bool parse(JValue& out) {
    skip_ws();
    if (!value(out)) return false;
    skip_ws();
    return i_ == s_.size();
  }

 private:
  void skip_ws() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_]))) ++i_;
  }
  bool consume(char c) {
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  bool literal(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (s_.compare(i_, n, lit) != 0) return false;
    i_ += n;
    return true;
  }

  bool value(JValue& out) {
    skip_ws();
    if (i_ >= s_.size()) return false;
    switch (s_[i_]) {
      case '{': return object(out);
      case '[': return array(out);
      case '"': out.kind = JValue::String; return string(out.string);
      case 't': out.kind = JValue::Bool; out.boolean = true; return literal("true");
      case 'f': out.kind = JValue::Bool; out.boolean = false; return literal("false");
      case 'n': out.kind = JValue::Null; return literal("null");
      default: out.kind = JValue::Number; return number(out.number);
    }
  }

  bool object(JValue& out) {
    out.kind = JValue::Object;
    if (!consume('{')) return false;
    skip_ws();
    if (consume('}')) return true;
    for (;;) {
      skip_ws();
      std::string key;
      if (!string(key)) return false;
      skip_ws();
      if (!consume(':')) return false;
      JValue v;
      if (!value(v)) return false;
      out.object.emplace(std::move(key), std::move(v));
      skip_ws();
      if (consume(',')) continue;
      return consume('}');
    }
  }

  bool array(JValue& out) {
    out.kind = JValue::Array;
    if (!consume('[')) return false;
    skip_ws();
    if (consume(']')) return true;
    for (;;) {
      JValue v;
      if (!value(v)) return false;
      out.array.push_back(std::move(v));
      skip_ws();
      if (consume(',')) continue;
      return consume(']');
    }
  }

  bool string(std::string& out) {
    if (!consume('"')) return false;
    out.clear();
    while (i_ < s_.size()) {
      const char c = s_[i_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (i_ >= s_.size()) return false;
        const char esc = s_[i_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (i_ + 4 > s_.size()) return false;
            for (int k = 0; k < 4; ++k) {
              if (!std::isxdigit(static_cast<unsigned char>(s_[i_ + k]))) return false;
            }
            i_ += 4;
            out += '?';  // codepoint value irrelevant for the schema check
            break;
          }
          default: return false;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control characters are invalid JSON
      } else {
        out += c;
      }
    }
    return false;
  }

  bool number(double& out) {
    const std::size_t start = i_;
    if (i_ < s_.size() && s_[i_] == '-') ++i_;
    while (i_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i_])) || s_[i_] == '.' || s_[i_] == 'e' ||
            s_[i_] == 'E' || s_[i_] == '+' || s_[i_] == '-')) {
      ++i_;
    }
    if (i_ == start) return false;
    try {
      out = std::stod(s_.substr(start, i_ - start));
    } catch (...) {
      return false;
    }
    return true;
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

// ---------------------------------------------------------------------------
// Fixture: every test starts and ends with obs fully disabled and empty.
// ---------------------------------------------------------------------------

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override { clear(); }
  void TearDown() override { clear(); }
  static void clear() {
    obs::enable_tracing(false);
    obs::enable_profiling(false);
    obs::reset_trace();
    obs::reset_profile();
  }
};

stats::SwitchingStats measure(const core::Link& link, std::uint64_t seed) {
  streams::GaussianAr1Stream src(link.width(), 500.0, 0.4, seed);
  return link.measure(src, 20000);
}

/// The instrumented hot paths at a given thread count: multi-chain annealing
/// plus a field extraction (the two parallel subsystems).
void run_instrumented_workload(int threads) {
  const auto geom = phys::TsvArrayGeometry::itrs2018_relaxed(3, 3);
  const core::Link link(geom);
  const auto st = measure(link, 5);
  core::OptimizeOptions opts;
  opts.schedule.iterations = 1500;
  opts.chains = 4;
  opts.threads = threads;
  core::optimize_assignment(st, link.model(), opts);

  const auto geom2 = phys::TsvArrayGeometry::itrs2018_min(2, 2);
  const std::vector<double> pr(geom2.count(), 0.5);
  field::ExtractionOptions eo;
  eo.cell = 0.2e-6;
  eo.threads = threads;
  field::extract_capacitance(geom2, pr, eo);
}

// ---------------------------------------------------------------------------
// Trace layer
// ---------------------------------------------------------------------------

TEST_F(ObsTest, DisabledRecordsNothing) {
  {
    obs::Span span("should.not.appear");
    EXPECT_FALSE(span.traced());
    obs::counter("nor.that", 1.0);
  }
  JValue doc;
  ASSERT_TRUE(JsonParser(obs::trace_to_json()).parse(doc));
  ASSERT_NE(doc.find("traceEvents"), nullptr);
  EXPECT_TRUE(doc.find("traceEvents")->array.empty());
}

TEST_F(ObsTest, TraceIsSchemaValidChromeJson) {
  obs::enable_tracing(true);
  run_instrumented_workload(4);
  obs::counter("standalone.counter", 42.5);
  obs::enable_tracing(false);

  const std::string json = obs::trace_to_json();
  JValue doc;
  ASSERT_TRUE(JsonParser(json).parse(doc)) << json.substr(0, 400);
  ASSERT_EQ(doc.kind, JValue::Object);
  const JValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JValue::Array);
  ASSERT_FALSE(events->array.empty());

  std::size_t spans = 0, counters = 0;
  for (const auto& ev : events->array) {
    ASSERT_EQ(ev.kind, JValue::Object);
    // Schema: required fields with the right types.
    const JValue* name = ev.find("name");
    const JValue* ph = ev.find("ph");
    ASSERT_NE(name, nullptr);
    ASSERT_NE(ph, nullptr);
    EXPECT_EQ(name->kind, JValue::String);
    ASSERT_EQ(ph->kind, JValue::String);
    ASSERT_NE(ev.find("ts"), nullptr);
    EXPECT_EQ(ev.find("ts")->kind, JValue::Number);
    ASSERT_NE(ev.find("pid"), nullptr);
    ASSERT_NE(ev.find("tid"), nullptr);
    if (ph->string == "X") {
      ++spans;
      ASSERT_NE(ev.find("dur"), nullptr);
      EXPECT_GE(ev.find("dur")->number, 0.0);
    } else if (ph->string == "C") {
      ++counters;
      ASSERT_NE(ev.find("args"), nullptr);
      ASSERT_NE(ev.find("args")->find("value"), nullptr);
    } else {
      FAIL() << "unexpected phase: " << ph->string;
    }
  }
  // The workload must have produced spans from all instrumented subsystems.
  EXPECT_GT(spans, 0u);
  EXPECT_GT(counters, 0u);  // per-chain best-power/temperature tracks

  bool saw_solve = false, saw_extract = false, saw_optimize = false, saw_chain = false;
  for (const auto& ev : events->array) {
    const std::string& n = ev.find("name")->string;
    saw_solve |= n == "field.solve";
    saw_extract |= n == "field.extract";
    saw_optimize |= n == "opt.optimize";
    saw_chain |= n == "opt.chain";
  }
  EXPECT_TRUE(saw_solve);
  EXPECT_TRUE(saw_extract);
  EXPECT_TRUE(saw_optimize);
  EXPECT_TRUE(saw_chain);
}

TEST_F(ObsTest, SpansNestProperlyPerThread) {
  obs::enable_tracing(true);
  // Nested spans on several pool threads at once.
  opt::parallel_for(8, 4, [&](std::size_t i) {
    obs::Span outer("outer");
    volatile double sink = 0.0;
    for (int k = 0; k < 2000; ++k) sink += k;
    for (int j = 0; j < 3; ++j) {
      obs::Span inner("inner");
      for (int k = 0; k < 500; ++k) sink += k;
      (void)i;
    }
  });
  obs::enable_tracing(false);

  JValue doc;
  ASSERT_TRUE(JsonParser(obs::trace_to_json()).parse(doc));
  struct Interval {
    double start, end;
  };
  std::map<double, std::vector<Interval>> by_tid;
  for (const auto& ev : doc.find("traceEvents")->array) {
    if (ev.find("ph")->string != "X") continue;
    const double ts = ev.find("ts")->number;
    by_tid[ev.find("tid")->number].push_back({ts, ts + ev.find("dur")->number});
  }
  ASSERT_FALSE(by_tid.empty());
  std::size_t total = 0;
  for (const auto& [tid, ivs] : by_tid) {
    total += ivs.size();
    // On one thread, scoped spans may nest but never partially overlap.
    for (std::size_t a = 0; a < ivs.size(); ++a) {
      for (std::size_t b = a + 1; b < ivs.size(); ++b) {
        const bool disjoint = ivs[a].end <= ivs[b].start || ivs[b].end <= ivs[a].start;
        const bool a_in_b = ivs[b].start <= ivs[a].start && ivs[a].end <= ivs[b].end;
        const bool b_in_a = ivs[a].start <= ivs[b].start && ivs[b].end <= ivs[a].end;
        EXPECT_TRUE(disjoint || a_in_b || b_in_a)
            << "partial overlap on tid " << tid << ": [" << ivs[a].start << "," << ivs[a].end
            << ") vs [" << ivs[b].start << "," << ivs[b].end << ")";
      }
    }
  }
  EXPECT_EQ(total, 8u * 4u);  // 8 outer + 24 inner spans
}

TEST_F(ObsTest, ResetDropsBufferedEvents) {
  obs::enable_tracing(true);
  { obs::Span span("ephemeral"); }
  obs::reset_trace();
  obs::enable_tracing(false);
  JValue doc;
  ASSERT_TRUE(JsonParser(obs::trace_to_json()).parse(doc));
  EXPECT_TRUE(doc.find("traceEvents")->array.empty());
}

TEST_F(ObsTest, NocSimulatorRecordsLinkActivity) {
  noc::Mesh3D mesh(2, 2, 2);
  noc::TrafficConfig cfg;
  cfg.injection_rate = 0.3;
  cfg.flit_width = 16;
  cfg.seed = 7;
  noc::NocSimulator sim(mesh, cfg);
  sim.probe_link(noc::LinkId{noc::NodeId{0, 0, 0}, noc::Direction::ZPlus});

  obs::enable_profiling(true);
  const auto stats = sim.run(400);
  obs::enable_profiling(false);

  // SimStats-side counters.
  ASSERT_EQ(stats.link_flits.size(), mesh.node_count() * noc::kPortCount);
  std::uint64_t hops = 0;
  for (const auto f : stats.link_flits) hops += f;
  EXPECT_GT(hops, 0u);
  EXPECT_GT(stats.probe_toggled_bits, 0u);
  std::uint64_t toggles = 0;
  for (const auto t : stats.link_toggles) toggles += t;
  EXPECT_GT(toggles, 0u);

  // The noc.run span's work counters mirror them.
  JValue doc;
  ASSERT_TRUE(JsonParser(obs::profile_to_json(obs::ProfileFields::deterministic)).parse(doc));
  const auto& roots = doc.find("roots")->array;
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0].find("name")->string, "noc.run");
  EXPECT_EQ(roots[0].find("count")->number, 1.0);
  const JValue* work = roots[0].find("work");
  ASSERT_NE(work->find("cycles"), nullptr);
  EXPECT_EQ(work->find("cycles")->number, 400.0);
  ASSERT_NE(work->find("flit_hops"), nullptr);
  EXPECT_EQ(work->find("flit_hops")->number, static_cast<double>(hops));
  ASSERT_NE(work->find("probe_toggled_bits"), nullptr);
  EXPECT_EQ(work->find("probe_toggled_bits")->number,
            static_cast<double>(stats.probe_toggled_bits));
  EXPECT_EQ(work->find("vlink_samples"), nullptr) << "no per-link statistics tracked";
}

TEST_F(ObsTest, NocTrackedRunCountsSingleAndBulkLinkSamples) {
  // Every tracked vertical link takes one sample per cycle: each flit it
  // carries one at a time, the idle cycles in bulk. Over two runs the
  // noc.run span's counters add up to exactly that.
  noc::Mesh3D mesh(2, 2, 3);
  noc::TrafficConfig cfg;
  cfg.spatial = noc::SpatialPattern::Uniform;  // planar hops too, which take no sample
  cfg.injection_rate = 0.3;
  cfg.flit_width = 16;
  cfg.seed = 7;
  noc::SimOptions options;
  options.track_vertical_stats = true;
  noc::NocSimulator sim(mesh, cfg, options);
  sim.attach_vertical_coding({.name = "bus-invert"});

  obs::enable_profiling(true);
  sim.run(100);
  const auto stats = sim.run(300);
  obs::enable_profiling(false);

  std::uint64_t vertical_hops = 0;
  for (const noc::LinkId& link : sim.coded_links()) {
    vertical_hops += stats.link_flits[noc::link_slot(mesh.index(link.from), link.out)];
  }
  ASSERT_GT(vertical_hops, 0u);
  std::uint64_t hops = 0;
  for (const auto f : stats.link_flits) hops += f;
  ASSERT_LT(vertical_hops, hops);
  JValue doc;
  ASSERT_TRUE(JsonParser(obs::profile_to_json(obs::ProfileFields::deterministic)).parse(doc));
  const auto& roots = doc.find("roots")->array;
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0].find("count")->number, 2.0);
  const JValue* work = roots[0].find("work");
  ASSERT_NE(work->find("vlink_samples"), nullptr);
  ASSERT_NE(work->find("vlink_samples_bulk"), nullptr);
  EXPECT_EQ(work->find("vlink_samples")->number, static_cast<double>(vertical_hops));
  EXPECT_EQ(work->find("vlink_samples")->number + work->find("vlink_samples_bulk")->number,
            400.0 * static_cast<double>(sim.coded_links().size()));
}

// A trace path is user input: quotes and backslashes in it must come out of
// the stats.ingest span arguments escaped, and round-trip through a parser.
TEST_F(ObsTest, TraceEscapesIngestSourcePath) {
  const std::string path = "/tmp/tsvcod_obs_we\"ird\\name.txt";
  {
    std::ofstream os(path);
    for (int i = 0; i < 64; ++i) os << "0x" << std::hex << (i * 7 % 16) << '\n';
  }
  obs::enable_tracing(true);
  {
    const auto source = streams::open_word_source(path);
    (void)stats::compute_counts(*source, 4, 1);
  }
  obs::enable_tracing(false);
  std::remove(path.c_str());

  const std::string json = obs::trace_to_json();
  JValue doc;
  ASSERT_TRUE(JsonParser(json).parse(doc)) << json.substr(0, 400);
  const JValue* ingest = nullptr;
  for (const auto& ev : doc.find("traceEvents")->array) {
    if (ev.find("name")->string == "stats.ingest") ingest = &ev;
  }
  ASSERT_NE(ingest, nullptr);
  ASSERT_NE(ingest->find("args"), nullptr);
  ASSERT_NE(ingest->find("args")->find("source"), nullptr);
  EXPECT_EQ(ingest->find("args")->find("source")->string, path);
}

}  // namespace
