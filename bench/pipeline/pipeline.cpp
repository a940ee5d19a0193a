// End-to-end pipeline benchmark: the paper's designer flow, the streaming
// service and the 3D NoC, driven through the library's public API on
// generated inputs, with one traced iteration that splits the wall time by
// layer (the span-tree profiler's full projection).
//
// Workloads (README.md records why each one exists):
//   flow-field   field extraction -> linear fit -> MEMS .tsvb -> correlator
//                -> stats -> anneal -> baselines -> coded round trip -> Fig. 6
//                circuit simulation; the field solver and transient dominate.
//   flow-trace   analytic fit -> 16 Mi-word 64-line .tsvb -> zero-copy stats
//                -> anneal -> baseline -> evaluate; stats ingest dominates.
//   serve-drift  the service's session path: four drifting sessions fed
//                round-robin, per-word coded round trips, streaming folds,
//                drift-triggered re-anneals and hot swaps.
//   noc-plan     8x8x8 mesh: uncoded run, per-link vertical coding plan, coded
//                run; the batch annealer dominates.
//
// The library runs on --threads threads (default 1: on a shared virtual
// machine, multi-threaded timings moved 15-35 % between runs where
// single-threaded ones moved a few percent); a single-threaded run moves
// itself to the next CPU before each set-up and iteration (CpuRotation).
// Every iteration checks its outputs; a failed check fails the operation and
// the process exits 1. Timing metrics are medians over the timed iterations
// (one warm-up iteration discarded) and come with their quartiles and sample
// count. The traced iteration (--trace) runs after the timed ones, so the
// end-to-end numbers never include profiler overhead.
//
//   pipeline --workload NAME|all [--seed S] [--seconds T] [--threads N]
//            [--quick] [--trace DIR] [--data DIR] [--out FILE]
//   pipeline --compare BASE.json CANDIDATE.json [--bounds BENCHMARK.json]
//
// One workload prints every metric by name with its unit, then one JSON line
// {"correct","attempted","failed","metrics"}: the end-to-end metrics, or the
// per-layer ones when --trace is given. `--workload all` runs each workload
// in a fresh process (so peak_rss_mb is per workload) and writes the set to
// --out; `--compare` judges a candidate set against a base set with the
// bounds in BENCHMARK.json.
#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "circuit/tsv_link_sim.hpp"
#include "coding/factory.hpp"
#include "core/link.hpp"
#include "core/power.hpp"
#include "noc/coded.hpp"
#include "noc/simulator.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/profile.hpp"
#include "opt/parallel.hpp"
#include "serve/session.hpp"
#include "simd/dispatch.hpp"
#include "stats/ingest.hpp"
#include "stats/switching_stats.hpp"
#include "streams/binary_trace.hpp"
#include "streams/mems.hpp"
#include "streams/word_source.hpp"
#include "tsv/linear_model.hpp"

extern char** environ;

using namespace tsvcod;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Metric catalogue. BENCHMARK.json names the same metrics with the same
// units; the smoke check (smoke.py) holds the two together.
// ---------------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
  bool exact;  ///< a pure function of the inputs: repeats bit-for-bit
};

constexpr MetricDef kEndToEnd[] = {
    {"run_s", "s", false},
    {"setup_s", "s", false},
    {"peak_rss_mb", "MB", false},
    {"reduction_pct", "%", true},
};

constexpr MetricDef kPerLayer[] = {
    {"field.fit_s", "s", false},
    {"field.solves", "count", true},
    {"field.iterations", "count", true},
    {"circuit.sim_s", "s", false},
    {"circuit.cycles", "count", true},
    {"circuit.cycles_per_s", "1/s", false},
    {"circuit.reduction_pct", "%", true},
    {"stats.busy_s", "s", false},
    {"stats.words", "count", true},
    {"stats.words_per_s", "1/s", false},
    {"streams.open_s", "s", false},
    {"streams.words", "count", true},
    {"tsv.fit_s", "s", false},
    {"coding.encode_s", "s", false},
    {"coding.encode_words", "count", true},
    {"core.anneal_s", "s", false},
    {"core.evaluations", "count", true},
    {"core.evals_per_s", "1/s", false},
    {"core.baseline_s", "s", false},
    {"core.roundtrip_s", "s", false},
    {"core.roundtrip_words", "count", true},
    {"core.roundtrip_words_per_s", "1/s", false},
    {"noc.sim_s", "s", false},
    {"noc.flit_hops", "count", true},
    {"noc.coded_sim_s", "s", false},
    {"noc.plan_s", "s", false},
    {"noc.plan_warmup_s", "s", false},
    {"noc.plan_anneal_s", "s", false},
    {"noc.links_planned", "count", true},
    {"noc.mflits_per_s", "Mflit/s", false},
    {"noc.vlink_toggle_reduction_pct", "%", true},
    {"serve.words_per_s", "1/s", false},
    {"serve.swap_p50_ms", "ms", false},
    {"serve.swap_p90_ms", "ms", false},
    {"serve.swap_samples", "count", false},
    {"serve.ingest_s", "s", false},
    {"serve.reanneal_s", "s", false},
    {"serve.batches", "count", true},
    {"serve.trips", "count", true},
    {"serve.swaps", "count", true},
    {"serve.reanneal_evals", "count", true},
    {"serve.desyncs", "count", true},
    {"obs.traced_run_s", "s", false},
    {"obs.unaccounted_pct", "%", false},
    {"obs.trace_overhead_pct", "%", false},
};

const char* const kWorkloads[] = {"flow-field", "flow-trace", "serve-drift", "noc-plan"};

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

/// Python's statistics.median.
double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Python's statistics.quantiles(v, n=4) (the default 'exclusive' method),
/// so a quartile printed here equals the one a reader recomputes from the
/// samples.
std::vector<double> quartiles_of(std::vector<double> v) {
  if (v.empty()) return {0.0, 0.0, 0.0};
  if (v.size() == 1) return {v[0], v[0], v[0]};
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  const long m = ld + 1;
  std::vector<double> out;
  for (long i = 1; i < 4; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    out.push_back((v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
                   v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
                  4.0);
  }
  return out;
}

/// Linear-interpolated percentile (q in [0, 1]) of a sample set.
double percentile_of(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Peak resident set of this process (VmHWM), in MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("pipeline: VmHWM not found in /proc/self/status");
}

/// Flush a written file to storage, so its writeback cannot land inside a
/// timed iteration.
void fsync_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw std::runtime_error("pipeline: cannot open " + path + " for fsync");
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) throw std::runtime_error("pipeline: fsync failed for " + path);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("pipeline: cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw std::runtime_error("pipeline: cannot write " + path);
}

bool same_stats(const stats::SwitchingStats& a, const stats::SwitchingStats& b) {
  return a.width == b.width && a.transitions == b.transitions && a.self == b.self &&
         a.prob_one == b.prob_one && a.coupling == b.coupling;
}

bool same_counts(const stats::SwitchingCounts& a, const stats::SwitchingCounts& b) {
  return a.width == b.width && a.words == b.words && a.transitions == b.transitions &&
         a.ones == b.ones && a.self == b.self && a.cross == b.cross;
}

/// Moves the calling thread to the next CPU of its allowed set before each
/// set-up and iteration. On a shared host each virtual CPU runs beside other
/// tenants' work that comes and goes, and single-threaded iterations on a
/// CPU whose neighbour was busy took up to 2x as long as on one whose
/// neighbour was idle. A run that stays on one CPU measures that neighbour;
/// a run that visits every CPU in turn measures their mix, and its median
/// moves far less between runs. release() restores the allowed set (pool
/// threads created later inherit it).
class CpuRotation {
 public:
  explicit CpuRotation(bool enabled) {
    if (!enabled || ::sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
    }
    if (cpus_.size() < 2) cpus_.clear();
  }
  ~CpuRotation() { release(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[turn_++ % cpus_.size()], &one);
    if (::sched_setaffinity(0, sizeof one, &one) != 0) release();
  }
  void release() {
    if (cpus_.empty()) return;
    cpus_.clear();
    ::sched_setaffinity(0, sizeof allowed_, &allowed_);
  }

 private:
  cpu_set_t allowed_{};
  std::vector<int> cpus_;
  std::size_t turn_ = 0;
};

/// splitmix64 step: the benchmark's own input generator (seeded by --seed).
std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct WorkloadConfig {
  std::uint64_t seed = 1;
  int threads = 1;
  bool quick = false;
  std::string data_dir;
};

/// One operation's outcome. `run_s` is the workload's own timed region;
/// `layer` carries per-layer values that public APIs return (counts,
/// workload-specific rates); the rest of the ledger comes from the profile.
struct Iteration {
  double run_s = 0.0;
  double reduction_pct = 0.0;
  std::uint64_t operations = 1;
  std::vector<std::string> failures;
  std::map<std::string, double> layer;
  std::vector<double> swap_latency_ms;
};

class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Generate the inputs and write the trace files out. Repeatable.
  virtual void setup() = 0;
  /// The files setup() writes. run_workload() fsyncs them after each timed
  /// set-up: their writeback then lands neither in setup_s (the device's
  /// speed, not the program's work) nor in a timed iteration.
  virtual std::vector<std::string> written_files() const { return {}; }
  virtual Iteration iterate() = 0;
  /// Checks run once per process, outside every timed region.
  virtual std::vector<std::string> final_checks() { return {}; }
};

/// A trace file in the data directory, removed when the workload ends.
struct DataFile {
  explicit DataFile(std::string p) : path(std::move(p)) {}
  ~DataFile() {
    std::error_code ignored;
    std::filesystem::remove(path, ignored);
  }
  DataFile(const DataFile&) = delete;
  DataFile& operator=(const DataFile&) = delete;

  std::string path;
};

/// Run `fn` inside a profiled span named for the layer it calls into.
template <typename Fn>
decltype(auto) in_span(const char* name, Fn&& fn) {
  obs::Span span(name);
  return fn();
}

// ---- flow-field -----------------------------------------------------------

class FlowField final : public Workload {
 public:
  explicit FlowField(const WorkloadConfig& c)
      : c_(c),
        geom_(phys::TsvArrayGeometry::itrs2018_relaxed(4, 4)),
        file_(c.data_dir + "/flow-field.tsvb"),
        words_(c.quick ? std::size_t{1} << 16 : std::size_t{1} << 20),
        cell_(c.quick ? 1e-6 : 0.5e-6),
        circuit_cycles_(c.quick ? 100 : 500) {
    // Three sensors x three axes, interleaved word by word: the correlator
    // compares each word with the same channel nine words back.
    spec_.name = "correlator";
    spec_.period = 9;
    if (c.quick) {
      optimize_.schedule.iterations = 2000;
      optimize_.schedule.restarts = 1;
    }
    optimize_.threads = c.threads;
  }
  void setup() override {
    auto mux = streams::make_all_sensor_mux(c_.seed);
    streams::save_binary_trace(file_.path, streams::collect(*mux, words_), mux->width(),
                               c_.seed);
  }
  std::vector<std::string> written_files() const override { return {file_.path}; }

  Iteration iterate() override {
    const auto t0 = Clock::now();
    Iteration it;
    tsv::FieldFitStats fit_stats;
    const tsv::LinearCapacitanceModel model = in_span("bench.field.fit_from_field", [&] {
      field::ExtractionOptions fo;
      fo.cell = cell_;
      fo.threads = c_.threads;
      fo.solver.preconditioner = field::Preconditioner::multigrid;
      return tsv::fit_from_field(geom_, fo, &fit_stats);
    });
    const core::Link link(geom_, model);

    const std::vector<std::uint64_t> words =
        in_span("bench.streams.open_word_source", [&] { return read_trace(); });
    const std::vector<std::uint64_t> coded =
        in_span("bench.coding.encode", [&] { return encode(words); });
    const stats::SwitchingStats st = in_span("bench.stats.compute_stats", [&] {
      return stats::compute_stats(coded, link.width(), c_.threads);
    });
    const core::OptimizeResult best = in_span("bench.core.optimize_assignment", [&] {
      return core::optimize_assignment(st, model, optimize_);
    });
    const core::BaselinePowers base = in_span("bench.core.random_assignment_power", [&] {
      return core::random_assignment_power(st, model, 200, 99, c_.threads);
    });
    const double mappings = in_span("bench.core.mappings", [&] {
      return link.power(st, core::spiral_assignment(geom_, st)) +
             link.power(st, core::sawtooth_assignment(geom_, st));
    });
    const std::size_t mismatches = in_span("bench.core.roundtrip", [&] {
      core::CodedLink coded_link = link.coded(spec_, best.assignment);
      std::size_t bad = 0;
      for (const std::uint64_t w : words) bad += coded_link.roundtrip(w) != w;
      return bad;
    });
    std::size_t cycles = 0;
    const double p_identity = in_span("bench.circuit.simulate_link", [&] {
      return circuit_power(link, coded, core::SignedPermutation::identity(link.width()), st,
                           cycles);
    });
    const double p_optimal = in_span("bench.circuit.simulate_link", [&] {
      return circuit_power(link, coded, best.assignment, st, cycles);
    });

    if (mismatches > 0) {
      it.failures.push_back("flow-field: " + std::to_string(mismatches) +
                            " coded round-trip mismatches");
    }
    if (!(best.power > 0.0 && best.power <= base.mean)) {
      it.failures.push_back("flow-field: optimal power is not below the random mean");
    }
    if (!std::isfinite(mappings)) it.failures.push_back("flow-field: Spiral/Sawtooth power");
    if (!(p_identity > 0.0 && p_optimal > 0.0)) {
      it.failures.push_back("flow-field: circuit power is not positive");
    }
    it.reduction_pct = core::reduction_pct(base.mean, best.power);
    it.layer["field.solves"] = static_cast<double>(fit_stats.solves);
    it.layer["field.iterations"] = static_cast<double>(fit_stats.iterations);
    it.layer["circuit.cycles"] = static_cast<double>(cycles);
    it.layer["circuit.reduction_pct"] = core::reduction_pct(p_identity, p_optimal);
    it.layer["streams.words"] = static_cast<double>(words.size());
    it.layer["coding.encode_words"] = static_cast<double>(words.size());
    it.layer["core.roundtrip_words"] = static_cast<double>(words.size());
    it.run_s = seconds_since(t0);
    return it;
  }

  std::vector<std::string> final_checks() override {
    const std::vector<std::uint64_t> coded = encode(read_trace());
    if (!same_stats(stats::compute_stats(coded, geom_.count(), 1),
                    stats::compute_stats(coded, geom_.count(), opt::hardware_threads()))) {
      return {"flow-field: compute_stats differs between 1 and nproc threads"};
    }
    return {};
  }

 private:
  std::vector<std::uint64_t> read_trace() const {
    const auto source = streams::open_word_source(file_.path, geom_.count());
    return streams::collect(*source);
  }

  /// The correlator is stateful, so it encodes the whole trace in order.
  std::vector<std::uint64_t> encode(const std::vector<std::uint64_t>& words) const {
    const auto codec = coding::make_codec_for_lines(spec_, geom_.count());
    std::vector<std::uint64_t> out(words.size());
    for (std::size_t i = 0; i < words.size(); ++i) out[i] = codec->encode(words[i]);
    return out;
  }

  /// Fig. 6 circuit power of the first `circuit_cycles_` coded words under
  /// assignment `a`: the capacitances follow the assigned line statistics.
  double circuit_power(const core::Link& link, std::span<const std::uint64_t> coded,
                       const core::SignedPermutation& a, const stats::SwitchingStats& st,
                       std::size_t& cycles) const {
    const phys::Matrix cap = link.model().evaluate_eps(a.apply(st).eps());
    std::vector<std::uint64_t> lines;
    const std::size_t n = std::min(circuit_cycles_, coded.size());
    lines.reserve(n);
    for (std::size_t i = 0; i < n; ++i) lines.push_back(a.apply_word(coded[i]));
    circuit::SimOptions opts;
    opts.frequency = 3e9;
    opts.steps_per_cycle = 32;
    const circuit::LinkSimResult res = circuit::simulate_link(geom_, cap, lines, {}, opts);
    cycles += res.cycles;
    return res.total_power();
  }

  WorkloadConfig c_;
  phys::TsvArrayGeometry geom_;
  DataFile file_;
  std::size_t words_;
  double cell_;
  std::size_t circuit_cycles_;
  coding::CodecSpec spec_;
  core::OptimizeOptions optimize_;
};

// ---- flow-trace -----------------------------------------------------------

class FlowTrace final : public Workload {
 public:
  explicit FlowTrace(const WorkloadConfig& c)
      : c_(c),
        geom_(phys::TsvArrayGeometry::itrs2018_relaxed(8, 8)),
        file_(c.data_dir + "/flow-trace.tsvb"),
        words_(c.quick ? std::size_t{1} << 18 : std::size_t{1} << 24) {
    if (c.quick) {
      optimize_.schedule.iterations = 2000;
      optimize_.schedule.restarts = 1;
    }
    optimize_.threads = c.threads;
  }

  /// Four 16-bit AR(1) channels (coefficient 15/16, uniform noise) packed
  /// per 64-line word: DSP-like samples whose sign and high bits are
  /// strongly correlated and whose low bits are noise. Streamed to disk
  /// without materializing the trace.
  void setup() override {
    streams::BinaryTraceWriter writer(file_.path, 64, c_.seed);
    std::uint64_t rng = c_.seed;
    std::int32_t x[4] = {0, 0, 0, 0};
    for (std::size_t i = 0; i < words_; ++i) {
      const std::uint64_t r = splitmix(rng);
      std::uint64_t word = 0;
      for (int k = 0; k < 4; ++k) {
        const std::int32_t noise = static_cast<std::int32_t>((r >> (16 * k)) & 0x3FF) - 512;
        x[k] = std::clamp(x[k] - x[k] / 16 + noise, -32768, 32767);
        word |= static_cast<std::uint64_t>(static_cast<std::uint16_t>(x[k])) << (16 * k);
      }
      writer.write(word);
    }
    writer.close();
  }
  std::vector<std::string> written_files() const override { return {file_.path}; }

  Iteration iterate() override {
    const auto t0 = Clock::now();
    Iteration it;
    const tsv::LinearCapacitanceModel model =
        in_span("bench.tsv.fit_from_analytic", [&] { return tsv::fit_from_analytic(geom_); });
    const core::Link link(geom_, model);

    std::size_t opened = 0;
    const auto measure = [&] {
      const auto source = in_span("bench.streams.open_word_source",
                                  [&] { return streams::open_word_source(file_.path, 64); });
      opened += source->size();
      return in_span("bench.stats.compute_stats",
                     [&] { return stats::compute_stats(*source, link.width(), c_.threads); });
    };
    const stats::SwitchingStats st = measure();
    const core::OptimizeResult best = in_span("bench.core.optimize_assignment", [&] {
      return core::optimize_assignment(st, model, optimize_);
    });
    const core::BaselinePowers base = in_span("bench.core.random_assignment_power", [&] {
      return core::random_assignment_power(st, model, 200, 99, c_.threads);
    });
    // The CLI's `evaluate`: a fresh open of the same trace, priced under the
    // optimized assignment.
    const stats::SwitchingStats again = measure();
    const double power =
        in_span("bench.core.power", [&] { return link.power(again, best.assignment); });

    if (!same_stats(st, again)) {
      it.failures.push_back("flow-trace: statistics differ between two opens of the trace");
    }
    if (!(power > 0.0 && power <= base.mean)) {
      it.failures.push_back("flow-trace: optimal power is not below the random mean");
    }
    it.reduction_pct = core::reduction_pct(base.mean, power);
    it.layer["streams.words"] = static_cast<double>(opened);
    it.run_s = seconds_since(t0);
    return it;
  }

  std::vector<std::string> final_checks() override {
    streams::MappedTraceSource source(file_.path);
    if (!same_stats(stats::compute_stats(source, 64, 1),
                    stats::compute_stats(source, 64, opt::hardware_threads()))) {
      return {"flow-trace: compute_stats differs between 1 and nproc threads"};
    }
    return {};
  }

 private:
  WorkloadConfig c_;
  phys::TsvArrayGeometry geom_;
  DataFile file_;
  std::size_t words_;
  core::OptimizeOptions optimize_;
};

// ---- serve-drift ----------------------------------------------------------

/// The service's session path on one thread: the producer feeds four
/// sessions round-robin and runs every drift-triggered re-anneal itself
/// before the next batch, as one shard of serve::Server does when its queue
/// never runs dry. The Server's own threads are left out: with a producer
/// blocking on bounded shard queues, their hand-offs moved throughput by
/// 15-35 % between runs on a shared 4-vCPU host.
class ServeDrift final : public Workload {
 public:
  static constexpr std::size_t kSessions = 4;
  static constexpr std::size_t kBatch = 512;

  explicit ServeDrift(const WorkloadConfig& c)
      : c_(c),
        words_(c.quick ? std::size_t{1} << 16 : std::size_t{1} << 21),
        shift_every_(c.quick ? std::size_t{1} << 13 : std::size_t{1} << 16),
        model_(tsv::fit_from_analytic(phys::TsvArrayGeometry::itrs2018_relaxed(2, 4))),
        traffic_(kSessions) {}

  /// Per-session 8-bit traffic: three busy bits toggle at random and the
  /// busy group moves between bits 0-2 and 5-7 every `shift_every_` words,
  /// which is what the drift detector keys on.
  void setup() override {
    for (std::size_t s = 0; s < kSessions; ++s) {
      std::uint64_t rng = opt::deterministic_seed(c_.seed, s);
      std::vector<std::uint64_t>& words = traffic_[s];
      words.resize(words_);
      std::uint64_t prev = 0;
      for (std::size_t i = 0; i < words_; ++i) {
        const std::uint64_t r = splitmix(rng) & 0x7u;
        prev ^= (i / shift_every_) % 2 == 0 ? r : r << 5;
        words[i] = prev;
      }
    }
  }

  /// Batch b of every session in turn; a trip is re-annealed against its
  /// window and installed before the next batch, so a swap's latency is
  /// the re-anneal plus the hot swap.
  Iteration iterate() override {
    Iteration it;
    const std::size_t batches = words_ / kBatch;
    it.operations = kSessions * batches;
    const auto t0 = Clock::now();
    std::vector<std::unique_ptr<serve::Session>> sessions;
    double improvement_sum = 0.0;
    std::uint64_t desyncs = 0;
    std::uint64_t evaluations = 0;
    std::size_t lost_swaps = 0;
    {
      obs::Span stream("bench.serve.stream");
      for (std::size_t id = 0; id < kSessions; ++id) {
        sessions.push_back(std::make_unique<serve::Session>(id, session_config()));
      }
      for (std::size_t b = 0; b < batches; ++b) {
        for (std::size_t s = 0; s < kSessions; ++s) {
          serve::Session& session = *sessions[s];
          const std::span<const std::uint64_t> batch(traffic_[s].data() + b * kBatch, kBatch);
          const serve::Session::IngestResult result =
              in_span("bench.serve.ingest", [&] { return session.ingest(batch); });
          desyncs += result.new_desyncs;
          if (!result.tripped) continue;
          const auto tripped = Clock::now();
          in_span("bench.serve.reanneal", [&] {
            const core::OptimizeResult annealed = core::optimize_assignment(
                result.window_stats, session.model(), session.optimize_options());
            const double before =
                core::assignment_power(result.window_stats, result.current, session.model());
            lost_swaps += !session.install(annealed.assignment);
            improvement_sum += core::reduction_pct(before, annealed.power);
            evaluations += annealed.evaluations;
          });
          it.swap_latency_ms.push_back(seconds_since(tripped) * 1e3);
        }
      }
    }
    it.run_s = seconds_since(t0);

    std::uint64_t trips = 0;
    std::uint64_t swaps = 0;
    in_span("bench.check.serve", [&] {
      for (std::size_t s = 0; s < kSessions; ++s) {
        const serve::SessionSnapshot snap = sessions[s]->snapshot();
        trips += snap.trips;
        swaps += snap.swaps;
        stats::ChunkFolder folder(8);
        folder.fold(traffic_[s]);
        if (!same_counts(snap.longrun, folder.counts())) {
          it.failures.push_back("serve-drift: session " + std::to_string(s) +
                                " long-run counts differ from a one-shot fold");
        }
      }
    });
    if (desyncs > 0) it.failures.push_back("serve-drift: " + std::to_string(desyncs) + " desyncs");
    if (lost_swaps > 0) it.failures.push_back("serve-drift: a re-anneal was not installed");
    if (swaps == 0) it.failures.push_back("serve-drift: no swap was installed");

    it.reduction_pct = swaps > 0 ? improvement_sum / static_cast<double>(swaps) : 0.0;
    it.layer["serve.words_per_s"] = static_cast<double>(kSessions * words_) / it.run_s;
    it.layer["serve.batches"] = static_cast<double>(it.operations);
    it.layer["serve.trips"] = static_cast<double>(trips);
    it.layer["serve.swaps"] = static_cast<double>(swaps);
    it.layer["serve.reanneal_evals"] = static_cast<double>(evaluations);
    it.layer["serve.desyncs"] = static_cast<double>(desyncs);
    return it;
  }

 private:
  serve::SessionConfig session_config() const {
    serve::SessionConfig cfg;
    cfg.width = 8;
    cfg.model = model_;
    cfg.codec.name = "correlator";
    cfg.drift.window_words = 1024;
    cfg.drift.threshold = 0.05;
    // Every window after a shift differs from the long-run mix, so without a
    // cooldown a session re-trips right after each swap; one trip per phase
    // keeps the re-anneals a fixed share of the work.
    cfg.drift.cooldown_words = shift_every_;
    cfg.optimize.schedule.iterations = 5000;
    cfg.optimize.schedule.restarts = 1;
    cfg.optimize.chains = 2;
    cfg.optimize.threads = c_.threads;
    cfg.stats_threads = c_.threads;
    return cfg;
  }

  WorkloadConfig c_;
  std::size_t words_;
  std::size_t shift_every_;
  tsv::LinearCapacitanceModel model_;
  std::vector<std::vector<std::uint64_t>> traffic_;
};

// ---- noc-plan -------------------------------------------------------------

class NocPlan final : public Workload {
 public:
  explicit NocPlan(const WorkloadConfig& c)
      : side_(c.quick ? 4 : 8), cycles_(c.quick ? 500 : 4000) {
    // Bursty MEMS payload towards the top layer (the noc_mesh bench's
    // bursty-mems regime): every flit crosses vertical TSV bundles.
    traffic_.spatial = noc::SpatialPattern::Hotspot;
    traffic_.payload = noc::PayloadModel::Mems;
    traffic_.injection_rate = 0.5;
    traffic_.flit_width = 32;
    traffic_.burst_on = 32.0;
    traffic_.burst_off = 96.0;
    traffic_.seed = c.seed;
    plan_.spec.name = "bus-invert";
    plan_.warmup_cycles = c.quick ? 512 : 4096;
    plan_.optimize.schedule.iterations = c.quick ? 500 : 5000;
    plan_.optimize.schedule.restarts = 1;
    plan_.optimize.chains = 1;
    plan_.threads = c.threads;
    sim_.threads = c.threads;
  }

  /// The NoC's input is its configuration; setup validates it and builds
  /// the mesh and one simulator (routing tables, router state).
  void setup() override {
    traffic_.validate();
    plan_.validate();
    sim_.validate();
    mesh_ = std::make_unique<noc::Mesh3D>(side_, side_, side_);
    const noc::NocSimulator probe(*mesh_, traffic_, sim_);
    (void)probe;
  }

  Iteration iterate() override {
    const auto t0 = Clock::now();
    Iteration it;
    it.operations = 2;  // the uncoded and the coded run
    noc::SimStats uncoded;
    double uncoded_s = 0.0;
    in_span("bench.noc.run", [&] {
      noc::NocSimulator sim(*mesh_, traffic_, sim_);
      const auto t = Clock::now();
      uncoded = sim.run(cycles_);
      uncoded_s = seconds_since(t);
    });
    const noc::VerticalCodingPlan plan = in_span("bench.noc.plan_vertical_coding", [&] {
      return noc::plan_vertical_coding(*mesh_, traffic_, plan_);
    });
    const noc::SimStats coded = in_span("bench.noc.run_coded", [&] {
      noc::NocSimulator sim(*mesh_, traffic_, sim_);
      sim.attach_vertical_coding(plan_.spec, plan.assignments);
      return sim.run(cycles_);
    });

    std::uint64_t payload_toggles = 0;
    std::uint64_t line_toggles = 0;
    in_span("bench.check.noc", [&] {
      // Bus-invert never toggles more lines than the payload does; an
      // inverted line keeps every toggle count except its first transition
      // out of the all-zero power-on latch, so each inversion in a link's
      // assignment may add one toggle.
      bool bounded = true;
      for (std::size_t i = 0; i < plan.links.size(); ++i) {
        const noc::LinkId& link = plan.links[i];
        const std::size_t slot = noc::link_slot(mesh_->index(link.from), link.out);
        std::uint64_t inversions = 0;
        for (std::size_t bit = 0; bit < plan.line_width; ++bit) {
          inversions += plan.assignments[i].inverted(bit);
        }
        payload_toggles += coded.link_toggles[slot];
        line_toggles += coded.link_coded_toggles[slot];
        bounded = bounded &&
                  coded.link_coded_toggles[slot] <= coded.link_toggles[slot] + inversions;
      }
      if (!bounded) {
        it.failures.push_back("noc-plan: a coded vertical link toggles more than uncoded");
      }
      if (coded.ejection_digest != uncoded.ejection_digest ||
          coded.delivered != uncoded.delivered || coded.link_flits != uncoded.link_flits) {
        it.failures.push_back("noc-plan: the coded mesh delivers a different stream");
      }
      const noc::SimStats* runs[] = {&uncoded, &coded};
      for (const noc::SimStats* s : runs) {
        if (s->injected != s->delivered + s->in_flight) {
          it.failures.push_back("noc-plan: injected != delivered + in_flight");
        }
      }
    });

    it.reduction_pct =
        core::reduction_pct(plan.total_identity_power(), plan.total_optimized_power());
    it.layer["noc.links_planned"] = static_cast<double>(plan.links.size());
    it.layer["noc.mflits_per_s"] = static_cast<double>(uncoded.delivered) / uncoded_s / 1e6;
    it.layer["noc.vlink_toggle_reduction_pct"] =
        core::reduction_pct(static_cast<double>(payload_toggles),
                            static_cast<double>(line_toggles));
    it.run_s = seconds_since(t0);
    return it;
  }

 private:
  std::size_t side_;
  std::size_t cycles_;
  noc::TrafficConfig traffic_;
  noc::VerticalCodingOptions plan_;
  noc::SimOptions sim_;
  std::unique_ptr<noc::Mesh3D> mesh_;
};

std::unique_ptr<Workload> make_workload(const std::string& name, const WorkloadConfig& c) {
  if (name == "flow-field") return std::make_unique<FlowField>(c);
  if (name == "flow-trace") return std::make_unique<FlowTrace>(c);
  if (name == "serve-drift") return std::make_unique<ServeDrift>(c);
  if (name == "noc-plan") return std::make_unique<NocPlan>(c);
  throw std::invalid_argument("unknown workload '" + name +
                              "' (flow-field | flow-trace | serve-drift | noc-plan | all)");
}

// ---------------------------------------------------------------------------
// Per-layer ledger from the traced iteration's profile
// ---------------------------------------------------------------------------

/// Read-only walk over a `tsvcod.profile.v1` full projection.
class ProfileView {
 public:
  explicit ProfileView(const std::string& text) : doc_(obs::json::parse(text)) {}

  /// Seconds in the outermost spans named in `names`: a listed span nested
  /// inside another listed span is already part of its ancestor's time.
  double seconds(std::initializer_list<std::string_view> names) const {
    double ns = 0.0;
    const auto walk = [&](const auto& self, const obs::json::Value& node) -> void {
      if (std::find(names.begin(), names.end(), name(node)) != names.end()) {
        ns += number(node, "total_ns");
        return;
      }
      for (const auto& child : children(node)) self(self, child);
    };
    for (const auto& root : roots()) walk(walk, root);
    return ns * 1e-9;
  }

  /// Seconds in spans named `span` directly under spans named `parent`.
  double seconds_under(std::string_view parent, std::string_view span) const {
    double ns = 0.0;
    visit([&](const obs::json::Value& node, std::string_view node_parent) {
      if (node_parent == parent && name(node) == span) ns += number(node, "total_ns");
    });
    return ns * 1e-9;
  }

  /// Sum of work counter `key` over every span named `span` (directly under
  /// `parent`, when given).
  double work(std::string_view span, std::string_view key, std::string_view parent = {}) const {
    double total = 0.0;
    visit([&](const obs::json::Value& node, std::string_view node_parent) {
      if (name(node) != span || (!parent.empty() && node_parent != parent)) return;
      if (const auto* w = node.find("work")) total += number(*w, key);
    });
    return total;
  }

  /// Seconds covered by the top-level bench.* spans.
  double bench_seconds() const {
    double ns = 0.0;
    for (const auto& root : roots()) {
      if (name(root).rfind("bench.", 0) == 0) ns += number(root, "total_ns");
    }
    return ns * 1e-9;
  }

 private:
  static std::string_view name(const obs::json::Value& node) {
    const auto* v = node.find("name");
    return v && v->is_string() ? std::string_view(v->string) : std::string_view();
  }
  static double number(const obs::json::Value& node, std::string_view key) {
    const auto* v = node.find(key);
    return v && v->is_number() ? v->number : 0.0;
  }
  static const std::vector<obs::json::Value>& children(const obs::json::Value& node) {
    static const std::vector<obs::json::Value> none;
    const auto* v = node.find("children");
    return v && v->is_array() ? v->array : none;
  }
  const std::vector<obs::json::Value>& roots() const {
    static const std::vector<obs::json::Value> none;
    const auto* v = doc_.find("roots");
    return v && v->is_array() ? v->array : none;
  }
  /// Calls fn(node, name of its parent) for every span of the tree.
  template <typename Fn>
  void visit(Fn&& fn) const {
    const auto walk = [&](const auto& self, const obs::json::Value& node,
                          std::string_view parent) -> void {
      fn(node, parent);
      for (const auto& child : children(node)) self(self, child, name(node));
    };
    for (const auto& root : roots()) walk(walk, root, {});
  }

  obs::json::Value doc_;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The per-layer metrics: time from the traced iteration's spans, work from
/// the profile's counters and the public APIs' results. The few metrics
/// that are end-to-end numbers of one workload (serve words/s and swap
/// latency, NoC flits/s) come from the untraced timed iterations instead.
std::map<std::string, double> layer_metrics(const ProfileView& p, const Iteration& traced,
                                            double traced_wall_s, double untraced_run_s,
                                            const std::vector<Iteration>& timed) {
  std::map<std::string, double> m;
  for (const MetricDef& d : kPerLayer) m[d.name] = 0.0;
  for (const auto& [key, value] : traced.layer) {
    if (m.count(key)) m[key] = value;
  }
  m["field.fit_s"] = p.seconds({"bench.field.fit_from_field"});
  m["circuit.sim_s"] = p.seconds({"bench.circuit.simulate_link"});
  m["circuit.cycles_per_s"] = ratio(m["circuit.cycles"], m["circuit.sim_s"]);
  m["stats.busy_s"] = p.seconds({"bench.stats.compute_stats", "stats.ingest", "stats.compute"});
  m["stats.words"] = p.work("stats.compute", "words");
  m["stats.words_per_s"] = ratio(m["stats.words"], m["stats.busy_s"]);
  m["streams.open_s"] = p.seconds({"bench.streams.open_word_source"});
  m["tsv.fit_s"] = p.seconds({"bench.tsv.fit_from_analytic"});
  m["coding.encode_s"] = p.seconds({"bench.coding.encode"});
  m["core.anneal_s"] =
      p.seconds({"bench.core.optimize_assignment", "opt.optimize", "opt.optimize_batch"});
  m["core.evaluations"] = p.work("opt.optimize", "evaluations");
  m["core.evals_per_s"] = ratio(m["core.evaluations"], m["core.anneal_s"]);
  m["core.baseline_s"] = p.seconds({"bench.core.random_assignment_power"});
  m["core.roundtrip_s"] = p.seconds({"bench.core.roundtrip"});
  m["core.roundtrip_words_per_s"] = ratio(m["core.roundtrip_words"], m["core.roundtrip_s"]);
  m["noc.sim_s"] = p.seconds({"bench.noc.run"});
  m["noc.flit_hops"] = p.work("noc.run", "flit_hops", "bench.noc.run");
  m["noc.coded_sim_s"] = p.seconds({"bench.noc.run_coded"});
  m["noc.plan_s"] = p.seconds({"bench.noc.plan_vertical_coding"});
  m["noc.plan_warmup_s"] = p.seconds_under("noc.plan_vertical_coding", "noc.run");
  m["noc.plan_anneal_s"] = p.seconds_under("noc.plan_vertical_coding", "opt.optimize_batch");
  m["serve.ingest_s"] = p.seconds({"bench.serve.ingest"});
  m["serve.reanneal_s"] = p.seconds({"bench.serve.reanneal"});

  std::vector<double> words_per_s, mflits_per_s, swaps;
  for (const Iteration& it : timed) {
    if (const auto w = it.layer.find("serve.words_per_s"); w != it.layer.end()) {
      words_per_s.push_back(w->second);
    }
    if (const auto f = it.layer.find("noc.mflits_per_s"); f != it.layer.end()) {
      mflits_per_s.push_back(f->second);
    }
    swaps.insert(swaps.end(), it.swap_latency_ms.begin(), it.swap_latency_ms.end());
  }
  m["serve.words_per_s"] = median_of(words_per_s);
  m["serve.swap_p50_ms"] = percentile_of(swaps, 0.5);
  m["serve.swap_p90_ms"] = percentile_of(swaps, 0.9);
  m["serve.swap_samples"] = static_cast<double>(swaps.size());
  m["noc.mflits_per_s"] = median_of(mflits_per_s);

  m["obs.traced_run_s"] = traced.run_s;
  m["obs.unaccounted_pct"] = 100.0 * ratio(traced_wall_s - p.bench_seconds(), traced_wall_s);
  m["obs.trace_overhead_pct"] = 100.0 * (ratio(traced.run_s, untraced_run_s) - 1.0);
  return m;
}

// ---------------------------------------------------------------------------
// One workload in this process
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int threads = 1;
  bool quick = false;
  std::string trace_dir;
  std::string data_dir = "pipeline_data";
  std::string out;
};

std::string host_json(const Options& o) {
  std::ostringstream os;
  os << "{\"nproc\": " << opt::hardware_threads() << ", \"simd_detected\": "
     << json_string(simd::level_name(simd::detected_level()))
     << ", \"simd_active\": " << json_string(simd::level_name(simd::active_level()))
     << ", \"threads\": " << o.threads
     << ", \"build_type\": " << json_string(TSVCOD_BUILD_TYPE) << "}";
  return os.str();
}

struct Summary {
  double value = 0.0;
  std::vector<double> samples;  ///< empty for single-valued metrics
};

std::string summary_json(const MetricDef& d, const Summary& s) {
  const std::vector<double> q = quartiles_of(s.samples.empty() ? std::vector<double>{s.value}
                                                               : s.samples);
  std::string out = "{\"value\": " + obs::json_number(s.value) + ", \"unit\": " +
                    json_string(d.unit) + ", \"q1\": " + obs::json_number(q[0]) +
                    ", \"q3\": " + obs::json_number(q[2]) +
                    ", \"samples\": " + std::to_string(std::max<std::size_t>(1, s.samples.size())) +
                    ", \"exact\": " + (d.exact ? "true" : "false");
  if (!s.samples.empty()) {
    out += ", \"all\": [";
    for (std::size_t i = 0; i < s.samples.size(); ++i) {
      out += (i ? ", " : "") + obs::json_number(s.samples[i]);
    }
    out += "]";
  }
  return out + "}";
}

int run_workload(const Options& o) {
  // Thread counts are passed explicitly everywhere; the environment
  // override must not change what a run measures.
  ::unsetenv("TSVCOD_THREADS");
  std::filesystem::create_directories(o.data_dir);
  const WorkloadConfig config{o.seed, o.threads, o.quick, o.data_dir};
  const std::unique_ptr<Workload> w = make_workload(o.workload, config);

  // Library threads run only with --threads above 1, and then the scheduler
  // places them; a single-threaded run visits every CPU in turn.
  CpuRotation rotation(o.threads == 1);

  // Set up at least five times and for at least 1 s, so a set-up of a
  // millisecond still gets a steady median.
  std::vector<double> setup_s;
  const auto setup_start = Clock::now();
  while (setup_s.empty() ||
         (!o.quick && (setup_s.size() < 5 || seconds_since(setup_start) < 1.0) &&
          setup_s.size() < 1000)) {
    rotation.next();
    const auto t = Clock::now();
    w->setup();
    setup_s.push_back(seconds_since(t));
    for (const std::string& file : w->written_files()) fsync_file(file);
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  const auto record = [&](const Iteration& it) {
    attempted += it.operations;
    if (it.failures.empty()) return;
    failed += it.operations;
    for (const auto& f : it.failures) {
      if (failures.size() < 16) failures.push_back(f);
    }
  };

  const int warmup = o.quick ? 0 : 1;
  for (int i = 0; i < warmup; ++i) {
    rotation.next();
    record(w->iterate());
  }
  // Timed iterations fill --seconds: another one starts only while one as
  // long as the last still ends inside it.
  std::vector<Iteration> timed;
  const std::size_t min_timed = o.quick ? 1 : 3;
  const auto start = Clock::now();
  double last_wall = 0.0;
  while (timed.size() < min_timed ||
         (!o.quick && seconds_since(start) + last_wall <= o.seconds)) {
    rotation.next();
    const auto t = Clock::now();
    timed.push_back(w->iterate());
    last_wall = seconds_since(t);
    record(timed.back());
  }

  std::vector<double> run_s;
  for (const Iteration& it : timed) run_s.push_back(it.run_s);
  const double run_median = median_of(run_s);

  std::map<std::string, double> layers;
  if (!o.trace_dir.empty()) {
    rotation.next();
    obs::reset_profile();
    obs::enable_profiling(true);
    const auto t = Clock::now();
    const Iteration traced = w->iterate();
    const double wall = seconds_since(t);
    obs::enable_profiling(false);
    record(traced);
    std::filesystem::create_directories(o.trace_dir);
    const std::string base = o.trace_dir + "/" + o.workload + ".profile";
    const std::string profile = obs::profile_to_json(obs::ProfileFields::full);
    write_file(base + ".json", profile);
    write_file(base + ".folded", obs::profile_to_collapsed());
    layers = layer_metrics(ProfileView(profile), traced, wall, run_median, timed);
  }

  // Run-level check: thread-count invariance, and an exact reduction that
  // does not move between iterations.
  rotation.release();
  std::vector<std::string> run_failures = w->final_checks();
  for (const Iteration& it : timed) {
    if (it.reduction_pct != timed.front().reduction_pct) {
      run_failures.push_back(o.workload + ": reduction_pct changed between iterations");
      break;
    }
  }
  Iteration run_check;
  run_check.failures = std::move(run_failures);
  record(run_check);

  std::map<std::string, Summary> e2e;
  e2e["run_s"] = {run_median, run_s};
  e2e["setup_s"] = {median_of(setup_s), setup_s};
  e2e["peak_rss_mb"] = {peak_rss_mb(), {}};
  e2e["reduction_pct"] = {timed.front().reduction_pct, {}};

  const bool correct = failed == 0;
  std::printf("pipeline %s  seed %llu  threads %d  nproc %d  simd %s/%s  build %s%s\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed), config.threads,
              opt::hardware_threads(), simd::level_name(simd::detected_level()),
              simd::level_name(simd::active_level()), TSVCOD_BUILD_TYPE,
              o.quick ? "  (quick)" : "");
  std::printf("iterations: setup %zu, warm-up %d, timed %zu, traced %d\n", setup_s.size(), warmup,
              timed.size(), o.trace_dir.empty() ? 0 : 1);
  for (const MetricDef& d : kEndToEnd) {
    const Summary& s = e2e[d.name];
    const std::vector<double> q = quartiles_of(s.samples.empty() ? std::vector<double>{s.value}
                                                                 : s.samples);
    std::printf("  %-32s %14.6g %-8s", d.name, s.value, d.unit);
    if (s.samples.size() > 1) {
      std::printf(" median of %zu, q1 %.6g, q3 %.6g", s.samples.size(), q[0], q[2]);
    }
    std::printf("%s\n", d.exact ? " exact" : "");
  }
  for (const MetricDef& d : kPerLayer) {
    if (layers.count(d.name)) std::printf("  %-32s %14.6g %s\n", d.name, layers[d.name], d.unit);
  }
  std::printf("correct %s  attempted %llu  failed %llu\n", correct ? "true" : "false",
              static_cast<unsigned long long>(attempted), static_cast<unsigned long long>(failed));
  for (const auto& f : failures) std::printf("  FAILED: %s\n", f.c_str());

  if (!o.out.empty()) {
    std::ostringstream doc;
    doc << "{\"workload\": " << json_string(o.workload) << ", \"seed\": " << o.seed
        << ", \"quick\": " << (o.quick ? "true" : "false") << ",\n \"host\": " << host_json(o)
        << ",\n \"iterations\": {\"setup\": " << setup_s.size() << ", \"warmup\": " << warmup
        << ", \"timed\": " << timed.size() << ", \"traced\": " << (o.trace_dir.empty() ? 0 : 1)
        << "},\n \"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
        << ", \"failed\": " << failed
        << ", \"fail_ratio\": " << obs::json_number(ratio(static_cast<double>(failed),
                                                          static_cast<double>(attempted)))
        << ", \"failures\": [";
    for (std::size_t i = 0; i < failures.size(); ++i) {
      doc << (i ? ", " : "") << json_string(failures[i]);
    }
    doc << "],\n \"end_to_end\": {";
    bool first = true;
    for (const MetricDef& d : kEndToEnd) {
      doc << (first ? "\n" : ",\n") << "  " << json_string(d.name) << ": "
          << summary_json(d, e2e[d.name]);
      first = false;
    }
    doc << "\n }";
    if (!layers.empty()) {
      doc << ",\n \"per_layer\": {";
      first = true;
      for (const MetricDef& d : kPerLayer) {
        doc << (first ? "\n" : ",\n") << "  " << json_string(d.name) << ": "
            << summary_json(d, {layers[d.name], {}});
        first = false;
      }
      doc << "\n }";
    }
    doc << "\n}\n";
    write_file(o.out, doc.str());
  }

  // The machine-readable result: the end-to-end metrics, or with --trace
  // the per-layer ones.
  std::string metrics;
  const auto add = [&](const MetricDef& d, double value) {
    metrics += (metrics.empty() ? "" : ", ") + json_string(d.name) +
               ": {\"value\": " + obs::json_number(value) + ", \"unit\": " + json_string(d.unit) +
               "}";
  };
  if (layers.empty()) {
    for (const MetricDef& d : kEndToEnd) add(d, e2e[d.name].value);
  } else {
    for (const MetricDef& d : kPerLayer) add(d, layers[d.name]);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// A full set: each workload in a fresh process
// ---------------------------------------------------------------------------

int run_all(const Options& o) {
  const std::string exe = std::filesystem::read_symlink("/proc/self/exe").string();
  std::filesystem::create_directories(o.data_dir);
  std::string set = "{\"bench\": \"pipeline\", \"seed\": " + std::to_string(o.seed) +
                    ", \"workloads\": {";
  bool ok = true;
  for (std::size_t k = 0; k < std::size(kWorkloads); ++k) {
    const std::string name = kWorkloads[k];
    const std::string result = o.data_dir + "/" + name + ".result.json";
    std::vector<std::string> args = {exe,
                                     "--workload", name,
                                     "--seed", std::to_string(o.seed),
                                     "--seconds", std::to_string(o.seconds),
                                     "--threads", std::to_string(o.threads),
                                     "--data", o.data_dir,
                                     "--out", result};
    if (o.quick) args.push_back("--quick");
    if (!o.trace_dir.empty()) {
      args.push_back("--trace");
      args.push_back(o.trace_dir);
    }
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    std::filesystem::remove(result);
    std::fflush(stdout);
    pid_t pid = 0;
    if (posix_spawn(&pid, exe.c_str(), nullptr, nullptr, argv.data(), environ) != 0) {
      throw std::runtime_error("pipeline: cannot start " + exe);
    }
    int status = 0;
    while (waitpid(pid, &status, 0) < 0) {
      if (errno != EINTR) throw std::runtime_error("pipeline: waitpid failed");
    }
    const bool exited_ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (!exited_ok) {
      std::fprintf(stderr, "pipeline: workload %s failed (status %d)\n", name.c_str(), status);
      ok = false;
    }
    if (!std::filesystem::exists(result)) {
      ok = false;
      continue;
    }
    set += (k ? ",\n" : "\n") + json_string(name) + ": " + read_file(result);
    std::filesystem::remove(result);
  }
  set += "}}\n";
  if (!o.out.empty()) write_file(o.out, set);
  std::printf("pipeline set: %s\n", ok ? "all workloads correct" : "FAILED");
  return ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Comparing two sets
// ---------------------------------------------------------------------------

/// Judge `candidate` against `base` for each workload x end-to-end metric in
/// BENCHMARK.json: `regressed` when the candidate's median is worse than the
/// base's by more than the metric's bound (a share of the base median),
/// `unresolved` when the base's own quartile distance is wider than that
/// bound, else `ok`. Exact metrics (and exact per-layer counts) must match
/// bit-for-bit. Exits 1 on any regression or exact mismatch.
int compare_sets(const std::string& base_path, const std::string& cand_path,
                 const std::string& bounds_path) {
  const obs::json::Value base = obs::json::parse(read_file(base_path));
  const obs::json::Value cand = obs::json::parse(read_file(cand_path));
  const obs::json::Value bounds = obs::json::parse(read_file(bounds_path));
  const auto* metrics = bounds.find("end_to_end");
  const auto* base_w = base.find("workloads");
  const auto* cand_w = cand.find("workloads");
  if (!metrics || !metrics->is_array() || !base_w || !cand_w) {
    throw std::runtime_error("pipeline: --compare needs two sets and BENCHMARK.json");
  }
  const auto num = [](const obs::json::Value* v, std::string_view key) {
    const auto* x = v ? v->find(key) : nullptr;
    return x && x->is_number() ? x->number : 0.0;
  };

  bool failed = false;
  std::printf("%-12s %-34s %14s %14s %12s %7s  %s\n", "workload", "metric", "base", "candidate",
              "base_iqr", "bound", "verdict");
  for (const auto& [workload, bdoc] : base_w->object) {
    const obs::json::Value* cdoc = cand_w->find(workload);
    if (!cdoc) {
      std::printf("%-12s missing from the candidate set\n", workload.c_str());
      failed = true;
      continue;
    }
    for (const obs::json::Value& m : metrics->array) {
      const auto* name_v = m.find("name");
      const auto* better_v = m.find("better");
      const auto* bound_v = m.find("bound");
      if (!name_v || !name_v->is_string() || !better_v || !better_v->is_string() || !bound_v ||
          !bound_v->is_number()) {
        throw std::runtime_error("pipeline: " + bounds_path +
                                 ": every end_to_end entry needs name, better and bound");
      }
      const std::string& name = name_v->string;
      const bool lower = better_v->string == "lower";
      const double bound = bound_v->number;
      const auto* bm = bdoc.find("end_to_end") ? bdoc.find("end_to_end")->find(name) : nullptr;
      const auto* cm = cdoc->find("end_to_end") ? cdoc->find("end_to_end")->find(name) : nullptr;
      if (!bm || !cm) {
        std::printf("%-12s %-34s missing\n", workload.c_str(), name.c_str());
        failed = true;
        continue;
      }
      const double a = num(bm, "value");
      const double b = num(cm, "value");
      const double iqr = num(bm, "q3") - num(bm, "q1");
      const auto* exact = bm->find("exact");
      std::string verdict;
      if (exact && exact->is_boolean() && exact->boolean) {
        verdict = a == b ? "exact" : "DIFFERS";
      } else {
        const double limit = bound * std::fabs(a);
        const double worse = lower ? b - a : a - b;
        verdict = iqr > limit ? "unresolved" : worse > limit ? "regressed" : "ok";
      }
      failed = failed || verdict == "DIFFERS" || verdict == "regressed";
      std::printf("%-12s %-34s %14.6g %14.6g %12.4g %6.0f%%  %s\n", workload.c_str(),
                  name.c_str(), a, b, iqr, bound * 100.0, verdict.c_str());
    }
    const auto* bl = bdoc.find("per_layer");
    const auto* cl = cdoc->find("per_layer");
    if (!bl || !cl) continue;
    for (const auto& [name, bm] : bl->object) {
      const auto* exact = bm.find("exact");
      const auto* cm = cl->find(name);
      if (!exact || !exact->boolean || !cm) continue;
      const double a = num(&bm, "value");
      const double b = num(cm, "value");
      if (a != b) {
        std::printf("%-12s %-34s %14.6g %14.6g %12s %7s  DIFFERS\n", workload.c_str(),
                    name.c_str(), a, b, "-", "exact");
        failed = true;
      }
    }
  }
  return failed ? 1 : 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: pipeline --workload NAME|all [--seed S] [--seconds T] [--threads N]\n"
               "                [--quick] [--trace DIR] [--data DIR] [--out FILE]\n"
               "       pipeline --compare BASE.json CANDIDATE.json [--bounds BENCHMARK.json]\n"
               "workloads: flow-field flow-trace serve-drift noc-plan\n");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Options o;
    std::string compare_a, compare_b, bounds = "BENCHMARK.json";
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto next = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") {
        o.workload = next();
      } else if (arg == "--seed") {
        o.seed = std::stoull(next());
      } else if (arg == "--seconds") {
        o.seconds = std::stod(next());
      } else if (arg == "--threads") {
        o.threads = std::stoi(next());
      } else if (arg == "--quick") {
        o.quick = true;
      } else if (arg == "--trace") {
        o.trace_dir = next();
      } else if (arg == "--data") {
        o.data_dir = next();
      } else if (arg == "--out") {
        o.out = next();
      } else if (arg == "--compare") {
        compare_a = next();
        compare_b = next();
      } else if (arg == "--bounds") {
        bounds = next();
      } else {
        usage();
        return 2;
      }
    }
    if (!compare_a.empty()) return compare_sets(compare_a, compare_b, bounds);
    if (o.workload.empty() || o.threads < 1 || !(o.seconds >= 0.0)) {
      usage();
      return 2;
    }
    return o.workload == "all" ? run_all(o) : run_workload(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipeline: %s\n", e.what());
    return 2;
  }
}

