// Tests for the profiling layer (DESIGN.md §5i): the span-tree profiler's
// deterministic projection must be bit-identical at every thread count, the
// full projection's cpu_ns must be the span's thread CPU time, the periodic
// snapshot exporter must rotate files and mark its final write, and the
// strict JSON parser must reject malformed input naming the byte.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <time.h>
#include <vector>

#include "core/link.hpp"
#include "field/extractor.hpp"
#include "field/solver.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/profile.hpp"
#include "obs/snapshot.hpp"
#include "opt/parallel.hpp"
#include "streams/random_streams.hpp"

namespace {

using namespace tsvcod;
namespace json = obs::json;

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
  EXPECT_EQ(doc.find("schema")->string, "tsvcod.profile.v2");
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

// Threads racing to create the same child or work slot must end up with one
// node per path and exact totals (TSan vets the tree lock's discipline under
// `ctest --preset tsan -L profile`).
TEST_F(ProfileTest, ConcurrentSpansOnOnePathCountExactly) {
  obs::enable_profiling(true);
  constexpr int kThreads = 8;
  constexpr int kRounds = 2000;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load()) {}
      const std::string own = "units_" + std::to_string(t % 2);
      for (int r = 0; r < kRounds; ++r) {
        obs::Span outer("race.outer");
        obs::profile_work("rounds", 1);
        obs::Span inner("race.inner");
        obs::profile_work("units", 3);
        obs::profile_work(own.c_str(), 1);
      }
    });
  }
  go.store(true);
  for (auto& th : threads) th.join();
  obs::enable_profiling(false);

  const json::Value doc = json::parse(obs::profile_to_json(obs::ProfileFields::deterministic));
  const json::Value* roots = doc.find("roots");
  ASSERT_EQ(roots->array.size(), 1u) << "one node per path, however many threads insert it";
  const json::Value& outer = roots->array[0];
  EXPECT_EQ(outer.find("name")->string, "race.outer");
  EXPECT_EQ(outer.find("count")->number, double{kThreads} * kRounds);
  EXPECT_EQ(outer.find("work")->find("rounds")->number, double{kThreads} * kRounds);
  ASSERT_EQ(outer.find("children")->array.size(), 1u);
  const json::Value& inner = outer.find("children")->array[0];
  EXPECT_EQ(inner.find("count")->number, double{kThreads} * kRounds);
  const json::Value* work = inner.find("work");
  EXPECT_EQ(work->find("units")->number, 3.0 * kThreads * kRounds);
  EXPECT_EQ(work->find("units_0")->number, double{kThreads / 2} * kRounds);
  EXPECT_EQ(work->find("units_1")->number, double{kThreads / 2} * kRounds);
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

  // The uniform 2x2 grid is D4-symmetric: conductor 0 is solved and the
  // other three are its mirror images.
  const json::Value* solve = child_named(*extract->find("children"), "field.solve");
  ASSERT_NE(solve, nullptr);
  EXPECT_EQ(solve->find("count")->number, 1.0);
  EXPECT_GT(solve->find("work")->find("iterations")->number, 0.0);
  EXPECT_EQ(extract->find("work")->find("solves")->number, 1.0);
  EXPECT_EQ(extract->find("work")->find("mirrored")->number, 3.0);

  // Unequal probabilities leave the grid without symmetry: one solve per
  // conductor.
  obs::reset_profile();
  obs::enable_profiling(true);
  field::ExtractionOptions eo;
  eo.cell = 0.2e-6;
  eo.threads = 2;
  field::extract_capacitance(phys::TsvArrayGeometry::itrs2018_min(2, 2),
                             std::vector<double>{0.1, 0.3, 0.6, 0.9}, eo);
  obs::enable_profiling(false);
  const json::Value asym = json::parse(obs::profile_to_json(obs::ProfileFields::deterministic));
  const json::Value* asym_extract = child_named(*asym.find("roots"), "field.extract");
  ASSERT_NE(asym_extract, nullptr);
  const json::Value* asym_solve = child_named(*asym_extract->find("children"), "field.solve");
  ASSERT_NE(asym_solve, nullptr);
  EXPECT_EQ(asym_solve->find("count")->number, 4.0);  // one per conductor of the 2x2
  EXPECT_EQ(asym_extract->find("work")->find("mirrored")->number, 0.0);
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
// Full projection, CPU time, collapsed stacks
// ---------------------------------------------------------------------------

std::vector<std::string> keys_of(const json::Value& object) {
  std::vector<std::string> keys;
  for (const auto& [key, value] : object.object) keys.push_back(key);
  return keys;
}

/// The named root of a full projection rendered after the spans closed.
json::Value full_root(const std::string& name) {
  const json::Value doc = json::parse(obs::profile_to_json(obs::ProfileFields::full));
  const json::Value* node = child_named(*doc.find("roots"), name);
  return node != nullptr ? *node : json::Value{};
}

TEST_F(ProfileTest, FullProjectionCarriesWallAndCpuTimeOnly) {
  obs::enable_profiling(true);
  {
    obs::Span span("timed");
    obs::Span inner("inner");
    volatile double sink = 0.0;
    for (int k = 0; k < 50000; ++k) sink = sink + k;
  }
  obs::enable_profiling(false);

  const json::Value doc = json::parse(obs::profile_to_json(obs::ProfileFields::full));
  const std::vector<std::string> top = {"schema", "fields", "roots"};
  EXPECT_EQ(keys_of(doc), top);
  EXPECT_EQ(doc.find("schema")->string, "tsvcod.profile.v2");
  EXPECT_EQ(doc.find("fields")->string, "full");

  const json::Value& node = doc.find("roots")->array[0];
  EXPECT_EQ(node.find("name")->string, "timed");
  const std::vector<std::string> fields = {"name",   "count", "total_ns", "self_ns",
                                           "cpu_ns", "work",  "children"};
  EXPECT_EQ(keys_of(node), fields);
  EXPECT_EQ(keys_of(node.find("children")->array.at(0)), fields);
  EXPECT_GT(node.find("total_ns")->number, 0.0);
  EXPECT_GE(node.find("total_ns")->number, node.find("self_ns")->number);
  for (const char* gone : {"cycles", "instructions", "llc_misses", "branch_misses"}) {
    EXPECT_EQ(node.find(gone), nullptr) << gone;
  }
  EXPECT_EQ(doc.find("perf_counters"), nullptr);
}

// A single-threaded span's CPU interval lies inside its wall interval (the
// CPU clock is read inside the steady-clock reads), up to one CPU-clock tick.
TEST_F(ProfileTest, BusySpanCpuTimeLiesWithinItsWallTime) {
  timespec res{};
  ASSERT_EQ(clock_getres(CLOCK_THREAD_CPUTIME_ID, &res), 0);
  const double tick_ns = static_cast<double>(res.tv_sec) * 1e9 + static_cast<double>(res.tv_nsec);

  obs::enable_profiling(true);
  {
    obs::Span span("busy");
    const auto until = std::chrono::steady_clock::now() + std::chrono::milliseconds(2);
    volatile double sink = 0.0;
    while (std::chrono::steady_clock::now() < until) sink = sink + 1.0;
  }
  obs::enable_profiling(false);

  const json::Value node = full_root("busy");
  ASSERT_NE(node.find("cpu_ns"), nullptr);
  const double cpu_ns = node.find("cpu_ns")->number;
  EXPECT_GT(cpu_ns, 0.0);
  EXPECT_LE(cpu_ns, node.find("total_ns")->number + tick_ns);
}

// cpu_ns is CPU time, not a second copy of wall time: a span that sleeps
// burns almost none.
TEST_F(ProfileTest, SleepingSpanBurnsLittleCpuTime) {
  obs::enable_profiling(true);
  {
    obs::Span span("sleepy");
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  obs::enable_profiling(false);

  const json::Value node = full_root("sleepy");
  ASSERT_NE(node.find("cpu_ns"), nullptr);
  EXPECT_GE(node.find("total_ns")->number, 20e6);
  EXPECT_LT(node.find("cpu_ns")->number, node.find("total_ns")->number / 2);
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
  EXPECT_EQ(obs::snapshot_path(), path);
  EXPECT_TRUE(obs::profiling_enabled()) << "snapshots imply the profiler";

  {
    obs::Span span("snapshot.test");
    obs::profile_work("units", 3);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  obs::stop_snapshots();
  EXPECT_EQ(obs::snapshot_path(), "");

  const json::Value live = json::parse(slurp(path));
  ASSERT_NE(live.find("seq"), nullptr);
  EXPECT_TRUE(live.find("final")->boolean) << "stop_snapshots writes the final snapshot";
  const json::Value* profile = live.find("profile");
  ASSERT_NE(profile, nullptr);
  EXPECT_EQ(profile->find("schema")->string, "tsvcod.profile.v2");
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
  EXPECT_TRUE(obs::snapshot_path().empty()) << "a rejected start leaves the exporter stopped";

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
      EXPECT_FALSE(obs::snapshot_path().empty());
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
    EXPECT_TRUE(obs::snapshot_path().empty());
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
    EXPECT_TRUE(obs::snapshot_path().empty());

    const json::Value doc = json::parse(slurp(path));  // rename keeps it untorn
    ASSERT_NE(doc.find("final"), nullptr);
    EXPECT_TRUE(doc.find("final")->boolean)
        << "round " << round << ": final:true must be the last document";
  }
  for (const char* suffix : {"", ".1", ".2", ".3"}) std::remove((path + suffix).c_str());
}

// ---------------------------------------------------------------------------
// Strict JSON parser
// ---------------------------------------------------------------------------

/// The parser's error message for `text`, or "" when it parses.
std::string parse_error(std::string_view text) {
  try {
    json::parse(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(Json, NestingPastTheLimitThrowsNamingTheByte) {
  // A million levels overflowed the stack before the bound.
  EXPECT_EQ(parse_error(std::string(1000000, '[')), "json: nesting deeper than 512 at byte 512");
  std::string mixed;
  for (int i = 0; i < 300; ++i) mixed += "{\"k\":[";  // two levels per 6 bytes
  EXPECT_EQ(parse_error(mixed), "json: nesting deeper than 512 at byte 1536");
  EXPECT_EQ(parse_error("{\"a\": " + std::string(512, '[') + std::string(512, ']') + "}"),
            "json: nesting deeper than 512 at byte 517");

  const json::Value deepest = json::parse(std::string(512, '[') + std::string(512, ']'));
  ASSERT_TRUE(deepest.is_array());
  // Closed levels do not count against the bound.
  std::string siblings = "[";
  for (int i = 0; i < 4; ++i) siblings += std::string(511, '[') + std::string(511, ']') + ",";
  siblings += "0]";
  EXPECT_EQ(json::parse(siblings).array.size(), 5u);
}

TEST(Json, LeadingZerosAreRejectedNamingTheByte) {
  EXPECT_EQ(parse_error("012"), "json: leading zero in number at byte 0");
  EXPECT_EQ(parse_error("-01"), "json: leading zero in number at byte 1");
  EXPECT_EQ(parse_error("[1, 00.5]"), "json: leading zero in number at byte 4");
  EXPECT_EQ(parse_error("{\"n\": -007}"), "json: leading zero in number at byte 7");

  EXPECT_EQ(json::parse("0").number, 0.0);
  EXPECT_TRUE(std::signbit(json::parse("-0").number));
  EXPECT_EQ(json::parse("0.5").number, 0.5);
  EXPECT_EQ(json::parse("-0.25").number, -0.25);
  EXPECT_EQ(json::parse("0e2").number, 0.0);
  EXPECT_EQ(json::parse("100").number, 100.0);
  EXPECT_EQ(json::parse("[0,10]").array[1].number, 10.0);
}

TEST(Json, MalformedDocumentsThrowNamingTheByte) {
  EXPECT_EQ(parse_error(R"({"a": 1, "a": 2})"), "json: duplicate object key \"a\" at byte 12");
  EXPECT_EQ(parse_error("{} x"), "json: trailing content after document at byte 3");
  EXPECT_EQ(parse_error("[1] [2]"), "json: trailing content after document at byte 4");
  EXPECT_EQ(parse_error(R"(["ok", "\q"])"), "json: bad escape character at byte 10");
  EXPECT_EQ(parse_error(R"("\u12G4")"), "json: bad \\u escape digit at byte 6");
}

}  // namespace
