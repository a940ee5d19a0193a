// Tests for the observability layer (src/obs): the trace output must be
// schema-valid Chrome trace-event JSON holding only complete ("X") events
// with properly nested per-thread spans, an event's args must be its span's
// work counters (summed per name, and equal to the profile's work for every
// span name), span names must be escaped, disabled tracing must record
// nothing at all, and the NoC simulator's work counters must match its
// SimStats. Every document goes through the strict obs::json parser, which
// also rejects duplicate keys.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/link.hpp"
#include "field/extractor.hpp"
#include "noc/simulator.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/profile.hpp"
#include "opt/parallel.hpp"
#include "streams/random_streams.hpp"

namespace {

using namespace tsvcod;

namespace json = obs::json;

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

const std::vector<json::Value>& trace_events(const json::Value& doc) {
  const json::Value* events = doc.find("traceEvents");
  EXPECT_NE(events, nullptr);
  static const std::vector<json::Value> none;
  return events != nullptr ? events->array : none;
}

/// (span name, counter) -> amount, summed over every event or node.
using WorkSums = std::map<std::pair<std::string, std::string>, double>;

void add_work(WorkSums& sums, const std::string& span, const json::Value* work) {
  if (work == nullptr) return;
  for (const auto& [key, value] : work->object) {
    EXPECT_TRUE(value.is_number()) << span << "." << key;
    sums[{span, key}] += value.number;
  }
}

void add_profile_work(WorkSums& sums, const json::Value& node) {
  add_work(sums, node.find("name")->string, node.find("work"));
  for (const auto& child : node.find("children")->array) add_profile_work(sums, child);
}

// ---------------------------------------------------------------------------
// Trace layer
// ---------------------------------------------------------------------------

TEST_F(ObsTest, DisabledRecordsNothing) {
  {
    obs::Span span("should.not.appear");
    obs::profile_work("nor.that", 1);
  }
  EXPECT_TRUE(trace_events(json::parse(obs::trace_to_json())).empty());
}

TEST_F(ObsTest, TraceIsSchemaValidChromeJson) {
  obs::enable_tracing(true);
  run_instrumented_workload(4);
  obs::enable_tracing(false);

  const json::Value doc = json::parse(obs::trace_to_json());
  const auto& events = trace_events(doc);
  ASSERT_FALSE(events.empty());

  for (const auto& ev : events) {
    // Schema: required fields with the right types; complete events only.
    const json::Value* name = ev.find("name");
    const json::Value* ph = ev.find("ph");
    ASSERT_NE(name, nullptr);
    ASSERT_NE(ph, nullptr);
    EXPECT_TRUE(name->is_string());
    ASSERT_TRUE(ph->is_string());
    EXPECT_EQ(ph->string, "X") << name->string;
    ASSERT_NE(ev.find("ts"), nullptr);
    EXPECT_TRUE(ev.find("ts")->is_number());
    ASSERT_NE(ev.find("pid"), nullptr);
    ASSERT_NE(ev.find("tid"), nullptr);
    ASSERT_NE(ev.find("dur"), nullptr);
    EXPECT_GE(ev.find("dur")->number, 0.0);
    // Args, when present, are work counters: non-negative integers.
    if (const json::Value* args = ev.find("args")) {
      EXPECT_FALSE(args->object.empty()) << name->string;
      for (const auto& [key, value] : args->object) {
        ASSERT_TRUE(value.is_number()) << name->string << "." << key;
        EXPECT_GE(value.number, 0.0);
        EXPECT_EQ(value.number, static_cast<double>(static_cast<std::uint64_t>(value.number)));
      }
    }
  }

  // The workload must have produced spans from all instrumented subsystems.
  bool saw_solve = false, saw_extract = false, saw_optimize = false, saw_chain = false;
  for (const auto& ev : events) {
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

TEST_F(ObsTest, TraceArgsAreTheInnermostSpansWorkSummedPerName) {
  obs::enable_tracing(true);
  obs::profile_work("outside", 1);  // no span open: recorded nowhere
  {
    obs::Span outer("outer");
    obs::profile_work("units", 2);
    {
      obs::Span inner("inner");
      obs::profile_work("units", 1);
      obs::profile_work("other", 4);
    }
    obs::profile_work("units", 3);
    obs::Span quiet("quiet");
  }
  obs::enable_tracing(false);

  const json::Value doc = json::parse(obs::trace_to_json());
  std::map<std::string, const json::Value*> by_name;
  for (const auto& ev : trace_events(doc)) by_name[ev.find("name")->string] = &ev;
  ASSERT_EQ(by_name.size(), 3u);
  const json::Value* outer = by_name["outer"]->find("args");
  ASSERT_NE(outer, nullptr);
  ASSERT_EQ(outer->object.size(), 1u);
  EXPECT_EQ(outer->find("units")->number, 5.0);
  const json::Value* inner = by_name["inner"]->find("args");
  ASSERT_NE(inner, nullptr);
  ASSERT_EQ(inner->object.size(), 2u);
  EXPECT_EQ(inner->find("units")->number, 1.0);
  EXPECT_EQ(inner->find("other")->number, 4.0);
  EXPECT_EQ(by_name["quiet"]->find("args"), nullptr) << "a span without work has no args";
}

// Traced and profiled at once, the two layers count the same work: for every
// span name, its events' args sum to its profile nodes' work, key by key.
TEST_F(ObsTest, TraceArgsSumToProfileWorkPerSpanName) {
  obs::enable_tracing(true);
  obs::enable_profiling(true);
  run_instrumented_workload(1);
  obs::enable_tracing(false);
  obs::enable_profiling(false);

  WorkSums traced;
  const json::Value trace = json::parse(obs::trace_to_json());
  for (const auto& ev : trace_events(trace)) {
    add_work(traced, ev.find("name")->string, ev.find("args"));
  }
  WorkSums profiled;
  const json::Value profile = json::parse(obs::profile_to_json(obs::ProfileFields::deterministic));
  for (const auto& root : profile.find("roots")->array) add_profile_work(profiled, root);

  ASSERT_FALSE(profiled.empty());
  EXPECT_EQ(traced, profiled);
  for (const auto& [span, key] : {std::pair{"field.solve", "iterations"},
                                   std::pair{"field.extract", "solves"},
                                   std::pair{"opt.optimize", "chains"},
                                   std::pair{"opt.chain", "evaluations"}}) {
    const auto it = traced.find({span, key});
    EXPECT_TRUE(it != traced.end() && it->second > 0.0) << span << "." << key;
  }
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

  const json::Value doc = json::parse(obs::trace_to_json());
  struct Interval {
    double start, end;
  };
  std::map<double, std::vector<Interval>> by_tid;
  for (const auto& ev : trace_events(doc)) {
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
  EXPECT_TRUE(trace_events(json::parse(obs::trace_to_json())).empty());
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
  const json::Value doc = json::parse(obs::profile_to_json(obs::ProfileFields::deterministic));
  const auto& roots = doc.find("roots")->array;
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0].find("name")->string, "noc.run");
  EXPECT_EQ(roots[0].find("count")->number, 1.0);
  const json::Value* work = roots[0].find("work");
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
  const json::Value doc = json::parse(obs::profile_to_json(obs::ProfileFields::deterministic));
  const auto& roots = doc.find("roots")->array;
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0].find("count")->number, 2.0);
  const json::Value* work = roots[0].find("work");
  ASSERT_NE(work->find("vlink_samples"), nullptr);
  ASSERT_NE(work->find("vlink_samples_bulk"), nullptr);
  EXPECT_EQ(work->find("vlink_samples")->number, static_cast<double>(vertical_hops));
  EXPECT_EQ(work->find("vlink_samples")->number + work->find("vlink_samples_bulk")->number,
            400.0 * static_cast<double>(sim.coded_links().size()));
}

// Span names reach the document through json_escape: a quote and a backslash
// in one must come out escaped and round-trip through the parser.
TEST_F(ObsTest, TraceEscapesSpanName) {
  const std::string name = "we\"ird\\name";
  obs::enable_tracing(true);
  {
    obs::Span span(name.c_str());
    obs::profile_work("units", 1);
  }
  obs::enable_tracing(false);

  const json::Value doc = json::parse(obs::trace_to_json());
  const auto& events = trace_events(doc);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].find("name")->string, name);
  EXPECT_EQ(events[0].find("args")->find("units")->number, 1.0);
}

}  // namespace
