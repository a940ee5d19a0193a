// Tests for the profiling layer (DESIGN.md §5i): the span-tree profiler's
// deterministic projection must be bit-identical at every thread count, the
// perf_event_open wrapper must degrade gracefully (flagged fallback, never an
// error), the periodic snapshot exporter must rotate files and mark its final
// write, and the benchdiff gate must catch an injected regression while
// passing an identical pair.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/link.hpp"
#include "field/extractor.hpp"
#include "field/solver.hpp"
#include "obs/benchdiff.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/perf_counters.hpp"
#include "obs/profile.hpp"
#include "obs/snapshot.hpp"
#include "opt/parallel.hpp"
#include "streams/random_streams.hpp"

namespace {

using namespace tsvcod;
namespace json = obs::json;
namespace bd = obs::benchdiff;

class ProfileTest : public ::testing::Test {
 protected:
  void SetUp() override { clear(); }
  void TearDown() override { clear(); }
  static void clear() {
    obs::stop_snapshots();
    obs::enable_tracing(false);
    obs::enable_profiling(false);
    obs::reset_trace();
    obs::reset_profile();
  }
};

/// The instrumented hot paths at a given thread count (same workload as
/// test_obs, so the trace and profile views of one run stay comparable).
void run_instrumented_workload(int threads) {
  const auto geom = phys::TsvArrayGeometry::itrs2018_relaxed(3, 3);
  const core::Link link(geom);
  streams::GaussianAr1Stream src(link.width(), 500.0, 0.4, 5);
  const auto st = link.measure(src, 20000);
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

const json::Value* child_named(const json::Value& children, const std::string& name) {
  for (const auto& node : children.array) {
    const json::Value* n = node.find("name");
    if (n != nullptr && n->is_string() && n->string == name) return &node;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Span-tree shape
// ---------------------------------------------------------------------------

TEST_F(ProfileTest, DisabledProfilerRecordsNothing) {
  {
    obs::Span span("should.not.appear");
    EXPECT_FALSE(span.active());
    obs::profile_work("ignored", 7);
  }
  const json::Value doc = json::parse(obs::profile_to_json(obs::ProfileFields::deterministic));
  const json::Value* roots = doc.find("roots");
  ASSERT_NE(roots, nullptr);
  EXPECT_TRUE(roots->array.empty());
}

TEST_F(ProfileTest, TreeShapeFollowsSpanNesting) {
  obs::enable_profiling(true);
  for (int rep = 0; rep < 3; ++rep) {
    obs::Span outer("outer");
    obs::profile_work("units", 10);
    for (int j = 0; j < 2; ++j) {
      obs::Span inner("inner");
      obs::profile_work("units", 1);
    }
    obs::Span side("side");
  }
  obs::enable_profiling(false);

  const json::Value doc = json::parse(obs::profile_to_json(obs::ProfileFields::deterministic));
  EXPECT_EQ(doc.find("schema")->string, "tsvcod.profile.v1");
  EXPECT_EQ(doc.find("fields")->string, "deterministic");
  const json::Value* roots = doc.find("roots");
  ASSERT_NE(roots, nullptr);
  ASSERT_EQ(roots->array.size(), 1u);

  const json::Value& outer = roots->array[0];
  EXPECT_EQ(outer.find("name")->string, "outer");
  EXPECT_EQ(outer.find("count")->number, 3.0);
  EXPECT_EQ(outer.find("work")->find("units")->number, 30.0);
  // Deterministic projection must not leak timing fields.
  EXPECT_EQ(outer.find("total_ns"), nullptr);
  EXPECT_EQ(outer.find("self_ns"), nullptr);

  const json::Value* children = outer.find("children");
  ASSERT_NE(children, nullptr);
  ASSERT_EQ(children->array.size(), 2u);
  // Children are name-sorted: "inner" before "side".
  EXPECT_EQ(children->array[0].find("name")->string, "inner");
  EXPECT_EQ(children->array[1].find("name")->string, "side");
  EXPECT_EQ(children->array[0].find("count")->number, 6.0);
  EXPECT_EQ(children->array[0].find("work")->find("units")->number, 6.0);
  EXPECT_EQ(children->array[1].find("count")->number, 3.0);
}

TEST_F(ProfileTest, ParallelForAggregatesUnderSubmittingSpan) {
  obs::enable_profiling(true);
  {
    obs::Span parent("logical.parent");
    opt::parallel_for(16, 4, [&](std::size_t) {
      obs::Span item("logical.item");
      obs::profile_work("items", 1);
    });
  }
  obs::enable_profiling(false);

  const json::Value doc = json::parse(obs::profile_to_json(obs::ProfileFields::deterministic));
  const json::Value* roots = doc.find("roots");
  ASSERT_EQ(roots->array.size(), 1u);
  const json::Value& parent = roots->array[0];
  EXPECT_EQ(parent.find("name")->string, "logical.parent");
  const json::Value* item = child_named(*parent.find("children"), "logical.item");
  ASSERT_NE(item, nullptr) << "worker spans must nest under the submitting span";
  EXPECT_EQ(item->find("count")->number, 16.0);
  EXPECT_EQ(item->find("work")->find("items")->number, 16.0);
}

// A job submitted outside any span stays a root even when the thread that
// runs it has a span of its own open (a caller helping to drain the pool).
TEST_F(ProfileTest, TaskScopeWithNullTokenOpensRootSpans) {
  obs::enable_profiling(true);
  {
    obs::Span outer("outer");
    obs::ProfileTaskScope scope(nullptr);
    obs::Span job("job");
  }
  obs::enable_profiling(false);

  const json::Value doc = json::parse(obs::profile_to_json(obs::ProfileFields::deterministic));
  const json::Value* roots = doc.find("roots");
  ASSERT_EQ(roots->array.size(), 2u);
  const json::Value* job = child_named(*roots, "job");
  ASSERT_NE(job, nullptr) << "the job must be a root, not a child of outer";
  EXPECT_EQ(job->find("count")->number, 1.0);
  EXPECT_TRUE(child_named(*roots, "outer")->find("children")->array.empty());
}

// Solver outcomes that only happen sometimes are work counters on
// field.solve, recorded only when they occur.
TEST_F(ProfileTest, NonconvergedSolveRecordsWorkCounter) {
  field::Grid g(8e-6, 8e-6, 0.25e-6);
  g.fill(field::Complex{1.0, 0.0});
  g.paint_disk(4e-6, 4e-6, 1e-6, field::Complex{1.0, 0.0}, 0);
  const field::FieldProblem problem(g);
  field::SolverOptions opts;
  opts.max_iterations = 1;
  field::SolveStats stats;
  obs::enable_profiling(true);
  (void)problem.solve(0, opts, &stats);
  obs::enable_profiling(false);
  ASSERT_FALSE(stats.converged);

  const json::Value doc = json::parse(obs::profile_to_json(obs::ProfileFields::deterministic));
  const json::Value* solve = child_named(*doc.find("roots"), "field.solve");
  ASSERT_NE(solve, nullptr);
  const json::Value* work = solve->find("work");
  ASSERT_NE(work->find("nonconverged"), nullptr);
  EXPECT_EQ(work->find("nonconverged")->number, 1.0);
  EXPECT_EQ(work->find("iterations")->number, static_cast<double>(stats.iterations));
  EXPECT_EQ(work->find("trivial"), nullptr);
  EXPECT_EQ(work->find("warm_started"), nullptr);
}

TEST_F(ProfileTest, InstrumentedSubsystemsAppearInTree) {
  obs::enable_profiling(true);
  run_instrumented_workload(2);
  obs::enable_profiling(false);

  const json::Value doc = json::parse(obs::profile_to_json(obs::ProfileFields::deterministic));
  const json::Value* roots = doc.find("roots");
  const json::Value* optimize = child_named(*roots, "opt.optimize");
  const json::Value* extract = child_named(*roots, "field.extract");
  ASSERT_NE(optimize, nullptr);
  ASSERT_NE(extract, nullptr);

  const json::Value* chain = child_named(*optimize->find("children"), "opt.chain");
  ASSERT_NE(chain, nullptr);
  EXPECT_EQ(chain->find("count")->number, 4.0);
  EXPECT_GT(chain->find("work")->find("evaluations")->number, 0.0);
  EXPECT_GT(optimize->find("work")->find("chains")->number, 0.0);

  const json::Value* solve = child_named(*extract->find("children"), "field.solve");
  ASSERT_NE(solve, nullptr);
  EXPECT_GE(solve->find("count")->number, 4.0);  // one per conductor of the 2x2
  EXPECT_GT(solve->find("work")->find("iterations")->number, 0.0);
}

// ---------------------------------------------------------------------------
// Determinism contract
// ---------------------------------------------------------------------------

TEST_F(ProfileTest, DeterministicProjectionBitIdenticalAcrossThreadCounts) {
  const auto run_at = [](int threads) {
    obs::reset_profile();
    obs::enable_profiling(true);
    run_instrumented_workload(threads);
    const std::string json_text = obs::profile_to_json(obs::ProfileFields::deterministic);
    obs::enable_profiling(false);
    return json_text;
  };
  const std::string serial = run_at(1);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(run_at(2), serial) << "2 threads";
  EXPECT_EQ(run_at(8), serial) << "8 threads";
}

// ---------------------------------------------------------------------------
// Full projection, perf fallback, collapsed stacks
// ---------------------------------------------------------------------------

TEST_F(ProfileTest, FullProjectionCarriesTimingAndPerfAvailability) {
  obs::enable_profiling(true);
  {
    obs::Span span("timed");
    volatile double sink = 0.0;
    for (int k = 0; k < 50000; ++k) sink = sink + k;
  }
  obs::enable_profiling(false);

  const json::Value doc = json::parse(obs::profile_to_json(obs::ProfileFields::full));
  EXPECT_EQ(doc.find("fields")->string, "full");

  // The availability block is always present: available + reason, and an
  // unavailable PMU is a flagged fallback, never an error.
  const json::Value* perf = doc.find("perf_counters");
  ASSERT_NE(perf, nullptr);
  const json::Value* available = perf->find("available");
  ASSERT_NE(available, nullptr);
  ASSERT_TRUE(available->is_boolean());
  ASSERT_NE(perf->find("reason"), nullptr);
  EXPECT_EQ(available->boolean, obs::perf_availability().available);
  if (!available->boolean) {
    EXPECT_FALSE(perf->find("reason")->string.empty())
        << "unavailable perf must say why";
  }

  const json::Value& node = doc.find("roots")->array[0];
  EXPECT_EQ(node.find("name")->string, "timed");
  ASSERT_NE(node.find("total_ns"), nullptr);
  ASSERT_NE(node.find("self_ns"), nullptr);
  EXPECT_GT(node.find("total_ns")->number, 0.0);
  EXPECT_GE(node.find("total_ns")->number, node.find("self_ns")->number);
  // The four counter fields exist either way; without a PMU they stay 0.
  for (int i = 0; i < obs::kPerfCounterCount; ++i) {
    const json::Value* c = node.find(obs::perf_counter_name(i));
    ASSERT_NE(c, nullptr) << obs::perf_counter_name(i);
    EXPECT_GE(c->number, 0.0);
  }
}

TEST_F(ProfileTest, PerfReadDegradesGracefullyWhenUnavailable) {
  if (obs::perf_availability().available) {
    GTEST_SKIP() << "PMU available on this host; fallback path not reachable";
  }
  std::uint64_t out[obs::kPerfCounterCount] = {1, 2, 3, 4};
  EXPECT_FALSE(obs::detail::perf_read_counters(out));
  // Profiling still works end to end without hardware counters.
  obs::enable_profiling(true);
  { obs::Span span("no.pmu"); }
  obs::enable_profiling(false);
  const json::Value doc = json::parse(obs::profile_to_json(obs::ProfileFields::full));
  EXPECT_EQ(doc.find("roots")->array.size(), 1u);
}

TEST_F(ProfileTest, CollapsedStacksListEveryPath) {
  obs::enable_profiling(true);
  {
    obs::Span a("alpha");
    { obs::Span b("beta"); }
    { obs::Span b("beta"); }
  }
  { obs::Span c("gamma"); }
  obs::enable_profiling(false);

  const std::string folded = obs::profile_to_collapsed();
  std::istringstream lines(folded);
  std::vector<std::string> paths;
  std::string line;
  while (std::getline(lines, line)) {
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    paths.push_back(line.substr(0, space));
    EXPECT_GE(std::stoll(line.substr(space + 1)), 0) << line;
  }
  // Depth-first, name-sorted: alpha, alpha;beta, gamma.
  ASSERT_EQ(paths.size(), 3u);
  EXPECT_EQ(paths[0], "alpha");
  EXPECT_EQ(paths[1], "alpha;beta");
  EXPECT_EQ(paths[2], "gamma");
}

TEST_F(ProfileTest, ResetDropsTree) {
  obs::enable_profiling(true);
  { obs::Span span("ephemeral"); }
  obs::reset_profile();
  obs::enable_profiling(false);
  const json::Value doc = json::parse(obs::profile_to_json(obs::ProfileFields::deterministic));
  EXPECT_TRUE(doc.find("roots")->array.empty());
  EXPECT_TRUE(obs::profile_to_collapsed().empty());
}

// ---------------------------------------------------------------------------
// Snapshot exporter
// ---------------------------------------------------------------------------

std::string slurp(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

TEST_F(ProfileTest, SnapshotsRotateAndMarkFinal) {
  const std::string path = "/tmp/tsvcod_test_snapshot.json";
  const char* const files[] = {"", ".1", ".2", ".3"};
  for (const char* suffix : files) std::remove((path + suffix).c_str());

  obs::start_snapshots(path, std::chrono::milliseconds(10));
  EXPECT_TRUE(obs::snapshots_running());
  EXPECT_EQ(obs::snapshot_path(), path);
  EXPECT_TRUE(obs::profiling_enabled()) << "snapshots imply the profiler";

  {
    obs::Span span("snapshot.test");
    obs::profile_work("units", 3);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  obs::stop_snapshots();
  EXPECT_FALSE(obs::snapshots_running());
  EXPECT_EQ(obs::snapshot_path(), "");

  const json::Value live = json::parse(slurp(path));
  ASSERT_NE(live.find("seq"), nullptr);
  EXPECT_TRUE(live.find("final")->boolean) << "stop_snapshots writes the final snapshot";
  const json::Value* profile = live.find("profile");
  ASSERT_NE(profile, nullptr);
  EXPECT_EQ(profile->find("schema")->string, "tsvcod.profile.v1");
  EXPECT_EQ(profile->find("fields")->string, "full");
  const json::Value* node = child_named(*profile->find("roots"), "snapshot.test");
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->find("work")->find("units")->number, 3.0);

  // >= 10 periodic writes happened before the final one, so the three-deep
  // rotation chain exists and sequence numbers decrease down the chain.
  double seq = live.find("seq")->number;
  for (const char* suffix : {".1", ".2", ".3"}) {
    const json::Value prev = json::parse(slurp(path + suffix));
    EXPECT_FALSE(prev.find("final")->boolean) << suffix;
    EXPECT_LT(prev.find("seq")->number, seq) << suffix;
    seq = prev.find("seq")->number;
  }
  EXPECT_TRUE(slurp(path + ".4").empty()) << "only three rotated copies are kept";

  for (const char* suffix : files) std::remove((path + suffix).c_str());
}

// profile_to_json is safe while spans run: snapshots every 1 ms race
// parallel spans that add work, and the final snapshot's total is exact.
TEST_F(ProfileTest, SnapshotsReadProfileWhileSpansRun) {
  const std::string path = "/tmp/tsvcod_test_snapshot_live.json";
  obs::start_snapshots(path, std::chrono::milliseconds(1));
  constexpr std::size_t kItems = 2000;
  {
    obs::Span parent("live.parent");
    opt::parallel_for(kItems, 4, [](std::size_t) {
      obs::Span item("live.item");
      obs::profile_work("units", 1);
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    });
  }
  obs::stop_snapshots();

  const json::Value doc = json::parse(slurp(path));
  EXPECT_TRUE(doc.find("final")->boolean);
  const json::Value* parent = child_named(*doc.find("profile")->find("roots"), "live.parent");
  ASSERT_NE(parent, nullptr);
  const json::Value* item = child_named(*parent->find("children"), "live.item");
  ASSERT_NE(item, nullptr);
  EXPECT_EQ(item->find("count")->number, static_cast<double>(kItems));
  EXPECT_EQ(item->find("work")->find("units")->number, static_cast<double>(kItems));
  EXPECT_GT(doc.find("seq")->number, 0.0) << "periodic snapshots ran while the spans did";
  for (const char* suffix : {"", ".1", ".2", ".3"}) std::remove((path + suffix).c_str());
}

TEST_F(ProfileTest, SnapshotIntervalMustBePositiveNamingTheKnob) {
  try {
    obs::start_snapshots("/tmp/tsvcod_test_snapshot_bad.json", std::chrono::milliseconds(0));
    FAIL() << "non-positive interval must throw";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--snapshot-interval"), std::string::npos) << msg;
    EXPECT_NE(msg.find("TSVCOD_SNAPSHOT_INTERVAL"), std::string::npos) << msg;
  }
  EXPECT_FALSE(obs::snapshots_running()) << "a rejected start leaves the exporter stopped";

  EXPECT_THROW(
      obs::start_snapshots("/tmp/tsvcod_test_snapshot_bad.json", std::chrono::milliseconds(-5)),
      std::invalid_argument);
}

// The flag and the variable share one conversion: whole text, finite,
// > 0, rounded to the nearest millisecond and to at least 1 ms.
TEST_F(ProfileTest, SnapshotIntervalParsesSecondsToMilliseconds) {
  using std::chrono::milliseconds;
  EXPECT_EQ(obs::parse_snapshot_interval("1", "--snapshot-interval"), milliseconds(1000));
  EXPECT_EQ(obs::parse_snapshot_interval("0.25", "--snapshot-interval"), milliseconds(250));
  EXPECT_EQ(obs::parse_snapshot_interval("0.0015", "--snapshot-interval"), milliseconds(2));
  EXPECT_EQ(obs::parse_snapshot_interval("1e-9", "--snapshot-interval"), milliseconds(1));
  EXPECT_EQ(obs::parse_snapshot_interval("1e9", "--snapshot-interval"),
            milliseconds(1'000'000'000'000));
  for (const char* bad : {"inf", "nan", "-inf", "0", "1e10", "2s", ""}) {
    try {
      obs::parse_snapshot_interval(bad, "--snapshot-interval");
      FAIL() << "'" << bad << "' must be rejected";
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("--snapshot-interval must be a finite number"), std::string::npos) << msg;
      EXPECT_NE(msg.find(std::string("'") + bad + "'"), std::string::npos) << msg;
    }
  }
}

TEST_F(ProfileTest, InitFromEnvRejectsMalformedSnapshotInterval) {
  const std::string path = "/tmp/tsvcod_test_snapshot_env.json";
  setenv("TSVCOD_SNAPSHOT", path.c_str(), 1);
  for (const char* bad : {"0", "-2", "fast", "1.5x", "inf", "nan", "1e10", ""}) {
    setenv("TSVCOD_SNAPSHOT_INTERVAL", bad, 1);
    if (*bad == '\0') {
      // Empty means unset: the default interval applies and startup succeeds.
      obs::init_from_env();
      EXPECT_TRUE(obs::snapshots_running());
      obs::stop_snapshots();
      continue;
    }
    try {
      obs::init_from_env();
      FAIL() << "TSVCOD_SNAPSHOT_INTERVAL='" << bad << "' must be rejected";
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("TSVCOD_SNAPSHOT_INTERVAL"), std::string::npos) << msg;
      EXPECT_NE(msg.find(bad), std::string::npos) << "message should quote the value: " << msg;
    }
    EXPECT_FALSE(obs::snapshots_running());
  }
  unsetenv("TSVCOD_SNAPSHOT");
  unsetenv("TSVCOD_SNAPSHOT_INTERVAL");
  std::remove(path.c_str());
}

TEST_F(ProfileTest, StopRacingPeriodicWritesAlwaysLeavesFinalTrue) {
  // stop_snapshots() joins the worker before writing the closing document,
  // so even when stop lands mid-periodic-write the last document on disk is
  // the final one. Run several short rounds with a 1 ms interval and a
  // stopper thread racing the worker; under the tsan-profile preset this
  // also proves the lifecycle handshake is data-race-free.
  const std::string path = "/tmp/tsvcod_test_snapshot_race.json";
  for (int round = 0; round < 8; ++round) {
    std::remove(path.c_str());
    obs::start_snapshots(path, std::chrono::milliseconds(1));
    { obs::Span span("snapshot.race"); }
    // Vary how far into the periodic cadence the stop lands.
    std::this_thread::sleep_for(std::chrono::microseconds(300 * round));
    std::thread stopper([] { obs::stop_snapshots(); });
    obs::stop_snapshots();  // concurrent stops: exactly one final write
    stopper.join();
    EXPECT_FALSE(obs::snapshots_running());

    const json::Value doc = json::parse(slurp(path));  // rename keeps it untorn
    ASSERT_NE(doc.find("final"), nullptr);
    EXPECT_TRUE(doc.find("final")->boolean)
        << "round " << round << ": final:true must be the last document";
  }
  for (const char* suffix : {"", ".1", ".2", ".3"}) std::remove((path + suffix).c_str());
}

// ---------------------------------------------------------------------------
// Benchdiff gate
// ---------------------------------------------------------------------------

constexpr const char* kBase = R"({
  "bench": "stats_throughput", "words": 262144, "reps": 5, "threads": 4,
  "results": [
    {"width": 32, "scalar_words_per_sec": 1.0e7, "solve_time_ms": 12.0,
     "bit_identical": true},
    {"width": 64, "scalar_words_per_sec": 5.0e6, "solve_time_ms": 30.0,
     "bit_identical": true}
  ]
})";

std::string with_injected_regression() {
  // 20% throughput drop on the w32 row only.
  std::string s = kBase;
  const std::string needle = "\"scalar_words_per_sec\": 1.0e7";
  s.replace(s.find(needle), needle.size(), "\"scalar_words_per_sec\": 0.8e7");
  return s;
}

TEST_F(ProfileTest, BenchdiffPassesIdenticalDocuments) {
  const bd::DiffReport report = bd::diff_bench_json(kBase, kBase, {});
  EXPECT_FALSE(report.regression);
  ASSERT_FALSE(report.metrics.empty());
  for (const auto& m : report.metrics) {
    EXPECT_FALSE(m.regression) << m.key;
    EXPECT_EQ(m.delta_pct, 0.0) << m.key;
  }
  EXPECT_TRUE(report.only_base.empty());
  EXPECT_TRUE(report.only_cand.empty());
  EXPECT_NE(bd::report_to_table(report).find("RESULT: ok"), std::string::npos);
}

TEST_F(ProfileTest, BenchdiffCatchesInjectedTwentyPercentRegression) {
  const bd::DiffReport report = bd::diff_bench_json(kBase, with_injected_regression(), {});
  EXPECT_TRUE(report.regression);
  int flagged = 0;
  for (const auto& m : report.metrics) {
    if (m.regression) {
      ++flagged;
      EXPECT_EQ(m.key, "w32.scalar_words_per_sec");
      EXPECT_NEAR(m.delta_pct, -20.0, 1e-9);
      EXPECT_EQ(m.direction, bd::Direction::higher_better);
    }
  }
  EXPECT_EQ(flagged, 1);
  EXPECT_NE(bd::report_to_table(report).find("RESULT: REGRESSION"), std::string::npos);
  // The machine report round-trips through the strict parser.
  const json::Value doc = json::parse(bd::report_to_json(report));
  EXPECT_EQ(doc.find("schema")->string, "tsvcod.benchdiff.v1");
  EXPECT_TRUE(doc.find("regression")->boolean);
}

TEST_F(ProfileTest, BenchdiffToleranceOverridesSuppressTheGate) {
  bd::DiffOptions opts;
  opts.per_metric = {{"scalar_words_per_sec", 30.0}};
  const bd::DiffReport report = bd::diff_bench_json(kBase, with_injected_regression(), opts);
  EXPECT_FALSE(report.regression);
}

TEST_F(ProfileTest, BenchdiffDirectionHeuristics) {
  using bd::Direction;
  EXPECT_EQ(bd::direction_of("w32.scalar_words_per_sec"), Direction::higher_better);
  EXPECT_EQ(bd::direction_of("w64.speedup_simd"), Direction::higher_better);
  EXPECT_EQ(bd::direction_of("row.throughput"), Direction::higher_better);
  EXPECT_EQ(bd::direction_of("w32.solve_time_ms"), Direction::lower_better);
  EXPECT_EQ(bd::direction_of("bench.llc_misses"), Direction::lower_better);
  EXPECT_EQ(bd::direction_of("w16.iterations"), Direction::lower_better);
  EXPECT_EQ(bd::direction_of("w16.acceptance_rate"), Direction::two_sided);

  // lower_better regressions fire on increases, not decreases.
  const std::string slow = [] {
    std::string s = kBase;
    const std::string needle = "\"solve_time_ms\": 12.0";
    std::string r = s;
    r.replace(r.find(needle), needle.size(), "\"solve_time_ms\": 18.0");
    return r;
  }();
  const bd::DiffReport report = bd::diff_bench_json(kBase, slow, {});
  EXPECT_TRUE(report.regression);
  for (const auto& m : report.metrics) {
    if (m.regression) {
      EXPECT_EQ(m.key, "w32.solve_time_ms");
    }
  }
}

TEST_F(ProfileTest, BenchdiffBooleanRegressionOnlyOnTrueToFalse) {
  const std::string broken = [] {
    std::string s = kBase;
    const std::string needle = "\"width\": 64, \"scalar_words_per_sec\": 5.0e6";
    // flip the w64 bit_identical to false
    const std::string tneedle = "\"solve_time_ms\": 30.0,\n     \"bit_identical\": true";
    s.replace(s.find(tneedle), tneedle.size(),
              "\"solve_time_ms\": 30.0,\n     \"bit_identical\": false");
    (void)needle;
    return s;
  }();
  const bd::DiffReport report = bd::diff_bench_json(kBase, broken, {});
  EXPECT_TRUE(report.regression);
  for (const auto& m : report.metrics) {
    if (m.regression) {
      EXPECT_EQ(m.key, "w64.bit_identical");
      EXPECT_EQ(m.direction, bd::Direction::boolean);
    }
  }
  // false -> true is an improvement, never a regression.
  const bd::DiffReport improved = bd::diff_bench_json(broken, kBase, {});
  EXPECT_FALSE(improved.regression);
}

TEST_F(ProfileTest, BenchdiffReportsOnlyKeysWithoutGating) {
  const std::string extra = [] {
    std::string s = kBase;
    const std::string needle = "\"bit_identical\": true\n    }";
    const std::size_t pos = s.rfind("\"bit_identical\": true");
    s.insert(pos + std::string("\"bit_identical\": true").size(), ", \"new_metric\": 1.5");
    (void)needle;
    return s;
  }();
  const bd::DiffReport added = bd::diff_bench_json(kBase, extra, {});
  EXPECT_FALSE(added.regression);
  ASSERT_EQ(added.only_cand.size(), 1u);
  EXPECT_EQ(added.only_cand[0], "w64.new_metric");
  const bd::DiffReport removed = bd::diff_bench_json(extra, kBase, {});
  EXPECT_FALSE(removed.regression);
  ASSERT_EQ(removed.only_base.size(), 1u);
  EXPECT_TRUE(removed.lost_checks.empty());
}

// A boolean that exists in the base and is missing from the candidate is a
// check that no longer runs: it gates like a true -> false flip.
TEST_F(ProfileTest, BenchdiffVanishedBooleanIsARegression) {
  const std::string base =
      R"({"bench":"g","results":[{"width":32,"words_per_sec":1e6,"bit_identical":true}]})";
  const std::string cand = R"({"bench":"g","results":[{"width":32,"words_per_sec":1e6}]})";
  const bd::DiffReport report = bd::diff_bench_json(base, cand, {});
  EXPECT_TRUE(report.regression);
  ASSERT_EQ(report.lost_checks.size(), 1u);
  EXPECT_EQ(report.lost_checks[0], "w32.bit_identical");
  EXPECT_TRUE(report.only_base.empty());
  const std::string table = bd::report_to_table(report);
  EXPECT_NE(table.find("lost check:        w32.bit_identical"), std::string::npos) << table;
  EXPECT_NE(table.find("RESULT: REGRESSION"), std::string::npos) << table;
  const json::Value doc = json::parse(bd::report_to_json(report));
  EXPECT_TRUE(doc.find("regression")->boolean);
  ASSERT_EQ(doc.find("lost_checks")->array.size(), 1u);
  EXPECT_EQ(doc.find("lost_checks")->array[0].string, "w32.bit_identical");
  // A boolean that appears only in the candidate is new, not lost.
  EXPECT_FALSE(bd::diff_bench_json(cand, base, {}).regression);
}

}  // namespace
