// tsvcod_cli — command-line front end for the design flow.
//
// Subcommands:
//   extract   fit a capacitance model for an array (analytic or field solver)
//             and write it to a file for later runs.
//   optimize  find the power-optimal signed permutation for a word trace.
//   evaluate  price a stored assignment against a trace.
//   mappings  print the systematic Spiral/Sawtooth layouts for an array.
//   overhead  run the Sec. 3 routing-overhead study for an array.
//   convert   convert a word trace between the text format and the .tsvb
//             zero-copy binary format.
//
// Trace inputs (--trace) are format-sniffed: a .tsvb magic selects the
// memory-mapped zero-copy reader, anything else the hardened text parser.
//
// Examples:
//   tsvcod_cli extract --rows 4 --cols 4 --radius-um 2 --pitch-um 8 --out m.txt
//   tsvcod_cli optimize --model m.txt --trace bus.txt --no-invert 14,15
//       --out assignment.txt
//   tsvcod_cli evaluate --model m.txt --trace bus.txt --assignment assignment.txt
//   tsvcod_cli convert --trace bus.txt --width 16 --out bus.tsvb

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "args.hpp"
#include "coding/factory.hpp"
#include "core/assignment_io.hpp"
#include "core/link.hpp"
#include "field/export.hpp"
#include "field/extractor.hpp"
#include "obs/obs.hpp"
#include "obs/snapshot.hpp"
#include "opt/parallel.hpp"
#include "simd/dispatch.hpp"
#include "stats/ingest.hpp"
#include "streams/binary_trace.hpp"
#include "streams/trace_io.hpp"
#include "streams/word_source.hpp"
#include "tsv/model_io.hpp"
#include "tsv/routing.hpp"

using namespace tsvcod;

namespace {

using tools::Args;

/// RAII guarantee that configured observability sinks are written on *every*
/// exit path. The success path calls `finish()` (clean_exit=true + progress
/// messages); if an exception or early error unwinds past it, the destructor
/// still flushes whatever was recorded, marked `"clean_exit":false`, so a
/// failed run leaves a usable partial trace/profile behind.
class ObsFlusher {
 public:
  ObsFlusher() = default;
  ObsFlusher(const ObsFlusher&) = delete;
  ObsFlusher& operator=(const ObsFlusher&) = delete;

  ~ObsFlusher() {
    if (!armed_) return;
    try {
      obs::stop_snapshots();
      obs::flush_outputs(/*clean_exit=*/false);
    } catch (...) {
      // Last-resort telemetry: an unwritable sink must not mask the error
      // that is already unwinding.
    }
  }

  void finish() {
    armed_ = false;
    obs::stop_snapshots();
    if (obs::flush_outputs(/*clean_exit=*/true)) {
      if (!obs::trace_path().empty()) {
        std::printf("trace written to %s (load in Perfetto / chrome://tracing)\n",
                    obs::trace_path().c_str());
      }
      if (!obs::profile_path().empty()) {
        std::printf("profile written to %s (+ %s.folded for flamegraph tools)\n",
                    obs::profile_path().c_str(), obs::profile_path().c_str());
      }
    }
  }

 private:
  bool armed_ = true;
};

/// Resolve --threads. Explicit N > 0 is used as-is; an explicit 0 means all
/// hardware threads (the same meaning TSVCOD_THREADS=0 has); an absent flag
/// defers to the TSVCOD_THREADS convention (env value, else serial).
/// Negative or non-numeric values were already rejected by Args::size.
int threads_from(const Args& args) {
  if (!args.has("threads")) return 0;
  const std::size_t n = args.size("threads");
  if (n == 0) return opt::hardware_threads();
  if (n > 65536) throw std::runtime_error("--threads value is absurdly large: " + std::to_string(n));
  return static_cast<int>(n);
}

phys::TsvArrayGeometry geometry_from(const Args& args) {
  phys::TsvArrayGeometry g;
  g.rows = args.size("rows");
  g.cols = args.size("cols");
  g.radius = args.number_or("radius-um", 1.0) * 1e-6;
  g.pitch = args.number_or("pitch-um", 4.0) * 1e-6;
  g.length = args.number_or("length-um", 50.0) * 1e-6;
  g.validate();
  return g;
}

tsv::LinearCapacitanceModel model_from(const Args& args) {
  if (args.has("model")) return tsv::load_linear_model(args.str("model"));
  return tsv::fit_from_analytic(geometry_from(args));
}

/// --codec and its sub-flags, when given. Width validation happens inside the
/// factory, so a payload too wide for the named codec fails with a message
/// naming the codec and its actual limit.
std::optional<coding::CodecSpec> codec_from(const Args& args) {
  if (!args.has("codec")) return std::nullopt;
  coding::CodecSpec spec;
  spec.name = args.str("codec");
  spec.period = args.size_or("codec-period", 1);
  spec.stride = args.size_or("codec-stride", 1);
  spec.lambda = args.number_or("codec-lambda", 2.0);
  return spec;
}

/// Statistics of the trace as seen on the TSV lines: raw words when no codec
/// is configured (consumed straight from the source — zero-copy for an
/// mmap'd binary trace), else the trace pushed through the encoder sized so
/// its output occupies the array exactly.
stats::SwitchingStats line_stats_from(const Args& args, const core::Link& link,
                                      streams::WordSource& source, int threads) {
  const auto spec = codec_from(args);
  if (!spec) return stats::compute_stats(source, link.width(), threads);
  const auto codec = coding::make_codec_for_lines(*spec, link.width());
  std::printf("codec                    : %s (%zu payload bits -> %zu lines)\n",
              spec->name.c_str(), codec->width_in(), codec->width_out());
  // Encoding is stateful and stays sequential, so it genuinely needs the
  // materialized trace; the statistics reduction of the encoded trace still
  // goes through the chunked bit-plane kernel.
  const auto words = streams::collect(source);
  std::vector<std::uint64_t> coded(words.size());
  for (std::size_t i = 0; i < words.size(); ++i) coded[i] = codec->encode(words[i]);
  return stats::compute_stats(coded, link.width(), threads);
}

int cmd_extract(const Args& args) {
  const auto geom = geometry_from(args);
  tsv::LinearCapacitanceModel model;
  const std::string backend = args.str_or("backend", "analytic");
  if (backend == "field") {
    field::ExtractionOptions fo;
    fo.cell = args.number_or("cell-um", 0.125) * 1e-6;
    fo.threads = threads_from(args);
    std::printf("running field extraction (%zux%zu, cell %.3f um)...\n", geom.rows, geom.cols,
                fo.cell * 1e6);
    tsv::FieldFitStats fit_stats;
    model = tsv::fit_from_field(geom, fo, &fit_stats);
    std::printf("field solves             : %zu (%lld iterations, %s preconditioner",
                fit_stats.solves, fit_stats.iterations,
                fit_stats.preconditioner == field::Preconditioner::multigrid ? "multigrid"
                                                                            : "jacobi");
    if (fit_stats.trivial > 0) std::printf(", %zu trivial", fit_stats.trivial);
    if (fit_stats.nonconverged > 0) std::printf(", %zu NOT converged", fit_stats.nonconverged);
    std::printf(")\n");
  } else if (backend == "analytic") {
    model = tsv::fit_from_analytic(geom);
  } else {
    throw std::runtime_error("unknown --backend (use analytic|field)");
  }
  const std::string out = args.str("out");
  tsv::save_linear_model(out, model);
  std::printf("model written to %s (n = %zu)\n", out.c_str(), model.size());
  std::printf("C_R(0,0) = %.2f fF, C_R(0,1) = %.2f fF, DC(0,1) = %.2f fF\n",
              model.c_ref()(0, 0) * 1e15, model.c_ref()(0, 1) * 1e15,
              model.delta_c()(0, 1) * 1e15);
  return 0;
}

int cmd_optimize(const Args& args) {
  const auto geom = geometry_from(args);
  const core::Link link(geom, model_from(args));
  const auto source = streams::open_word_source(args.str("trace"), link.width());
  if (source->size() < 2) throw std::runtime_error("trace too short");
  const int threads = threads_from(args);
  const auto st = line_stats_from(args, link, *source, threads);

  core::OptimizeOptions opts;
  opts.seed = static_cast<unsigned>(args.size_or("seed", 1));
  opts.schedule.iterations = static_cast<int>(args.size_or("iterations", 20000));
  opts.threads = threads;
  const auto frozen = args.index_list_or("no-invert");
  if (!frozen.empty()) {
    opts.allow_invert.assign(link.width(), 1);
    for (const auto bit : frozen) {
      if (bit >= link.width()) throw std::runtime_error("--no-invert bit out of range");
      opts.allow_invert[bit] = 0;
    }
  }

  const auto best = core::optimize_assignment(st, link.model(), opts);
  const auto base = core::random_assignment_power(st, link.model(), 200, 99, opts.threads);
  const auto spiral = core::spiral_assignment(geom, st);
  const auto sawtooth = core::sawtooth_assignment(geom, st);

  std::printf("trace words              : %zu\n", static_cast<std::size_t>(source->size()));
  std::printf("random assignment (mean) : %10.1f aF\n", base.mean * 1e18);
  std::printf("Spiral                   : %10.1f aF  (-%.1f %%)\n",
              link.power(st, spiral) * 1e18,
              core::reduction_pct(base.mean, link.power(st, spiral)));
  std::printf("Sawtooth                 : %10.1f aF  (-%.1f %%)\n",
              link.power(st, sawtooth) * 1e18,
              core::reduction_pct(base.mean, link.power(st, sawtooth)));
  std::printf("optimal                  : %10.1f aF  (-%.1f %%)\n", best.power * 1e18,
              core::reduction_pct(base.mean, best.power));
  std::printf("\n%s", core::format_assignment_grid(geom, best.assignment).c_str());

  if (args.has("out")) {
    core::save_assignment(args.str("out"), best.assignment);
    std::printf("assignment written to %s\n", args.str("out").c_str());
  }
  return 0;
}

int cmd_evaluate(const Args& args) {
  const auto geom = geometry_from(args);
  const core::Link link(geom, model_from(args));
  const auto source = streams::open_word_source(args.str("trace"), link.width());
  if (source->size() < 2) throw std::runtime_error("trace too short");
  const auto st = line_stats_from(args, link, *source, threads_from(args));
  const auto a = core::load_assignment(args.str("assignment"));
  const auto base = core::random_assignment_power(st, link.model());
  const double p = link.power(st, a);
  std::printf("assignment power         : %10.1f aF\n", p * 1e18);
  std::printf("random assignment (mean) : %10.1f aF\n", base.mean * 1e18);
  std::printf("reduction                : %.1f %%\n", core::reduction_pct(base.mean, p));

  if (const auto spec = codec_from(args)) {
    // Correctness half of the claim: every payload word must survive the
    // full encode -> assign -> lines -> unassign -> decode chain.
    const auto words = streams::collect(*source);
    auto coded = link.coded(*spec, a);
    const std::uint64_t payload_mask = streams::width_mask(coded.payload_width());
    for (std::size_t k = 0; k < words.size(); ++k) {
      const std::uint64_t w = words[k] & payload_mask;
      const std::uint64_t got = coded.roundtrip(w);
      if (got != w) {
        throw std::runtime_error("coded round-trip FAILED at word " + std::to_string(k));
      }
    }
    std::printf("coded round-trip         : OK (%zu words through %s)\n", words.size(),
                spec->name.c_str());
  }
  return 0;
}

int cmd_mappings(const Args& args) {
  const auto geom = geometry_from(args);
  const auto show = [&](const char* name, const std::vector<std::size_t>& order) {
    // Render visit ranks in array shape.
    std::vector<std::size_t> rank(geom.count());
    for (std::size_t k = 0; k < order.size(); ++k) rank[order[k]] = k;
    std::printf("%s order (visit rank per TSV):\n", name);
    for (std::size_t r = 0; r < geom.rows; ++r) {
      for (std::size_t c = 0; c < geom.cols; ++c) std::printf(" %3zu", rank[geom.index(r, c)]);
      std::printf("\n");
    }
  };
  show("Spiral", core::spiral_order(geom));
  show("Sawtooth", core::sawtooth_order(geom));
  return 0;
}

int cmd_fieldmap(const Args& args) {
  const auto geom = geometry_from(args);
  const std::vector<double> pr(geom.count(), args.number_or("probability", 0.5));
  field::ExtractionOptions fo;
  fo.cell = args.number_or("cell-um", 0.1) * 1e-6;
  const auto grid = field::build_array_grid(geom, pr, fo);
  const std::string prefix = args.str("out");

  field::write_pgm(prefix + "_geometry.pgm", grid.nx(), grid.ny(),
                   field::permittivity_map(grid));
  const field::FieldProblem problem(grid);
  field::SolveStats stats;
  const auto phi = problem.solve(0, fo.solver, &stats);
  field::write_pgm(prefix + "_phi0.pgm", grid.nx(), grid.ny(),
                   field::potential_map(grid, phi));
  std::printf("wrote %s_geometry.pgm and %s_phi0.pgm (%zux%zu, solve %s in %d iters)\n",
              prefix.c_str(), prefix.c_str(), grid.nx(), grid.ny(),
              stats.converged ? "converged" : "NOT converged", stats.iterations);
  return stats.converged ? 0 : 1;
}

int cmd_convert(const Args& args) {
  const std::string in = args.str("trace");
  const std::string out = args.str("out");
  const bool in_binary = streams::file_looks_like_binary_trace(in);
  const std::string to = args.str_or("to", in_binary ? "text" : "binary");
  if (to != "text" && to != "binary") throw std::runtime_error("unknown --to (use text|binary)");

  // Format sniffing + width rules live in open_word_source: a text input goes
  // through the hardened parser, a binary input through the mmap reader.
  const auto source = streams::open_word_source(in, args.size_or("width", 0));
  if (to == "text") {
    const auto words = streams::collect(*source);
    streams::save_trace(out, words);
    std::printf("wrote %zu words (width %zu) to %s (text)\n", words.size(), source->width(),
                out.c_str());
    return 0;
  }

  // Provenance seed: keep a binary input's, unless overridden.
  std::uint64_t seed = 0;
  if (const auto* m = dynamic_cast<const streams::MappedTraceSource*>(source.get())) {
    seed = m->header().seed;
  }
  if (args.has("seed")) seed = args.size("seed");

  streams::BinaryTraceWriter writer(out, source->width(), seed);
  source->reset();
  for (auto chunk = source->next_chunk(); !chunk.empty(); chunk = source->next_chunk()) {
    writer.write(chunk);
  }
  writer.close();
  std::printf("wrote %llu words (width %zu, seed %llu) to %s (.tsvb binary)\n",
              static_cast<unsigned long long>(writer.written()), source->width(),
              static_cast<unsigned long long>(seed), out.c_str());
  return 0;
}

int cmd_overhead(const Args& args) {
  const auto geom = geometry_from(args);
  const std::vector<double> pr(geom.count(), 0.5);
  const auto cap = tsv::analytic_capacitance(geom, pr);
  std::vector<double> totals(geom.count(), 0.0);
  for (std::size_t i = 0; i < geom.count(); ++i) {
    for (std::size_t j = 0; j < geom.count(); ++j) totals[i] += cap(i, j);
  }
  const auto stats = tsv::routing_overhead_stats(geom, totals);
  std::printf("assignments : %zu (%s)\n", stats.assignments,
              stats.exhaustive ? "exhaustive" : "sampled");
  std::printf("worst  : %.3f %%\nmean   : %.3f %%\nstddev : %.3f %%\n", stats.worst_pct,
              stats.mean_pct, stats.stddev_pct);
  return 0;
}

void usage() {
  std::printf(
      "usage: tsvcod_cli <extract|optimize|evaluate|mappings|overhead|fieldmap|convert>"
      " [--flags]\n"
      "common flags : --rows N --cols N --radius-um R --pitch-um D [--length-um L]\n"
      "               [--threads N]  (N=0: all hardware threads, same as\n"
      "                TSVCOD_THREADS=0; unset: TSVCOD_THREADS env, else serial;\n"
      "                results are identical at every thread count)\n"
      "               [--simd scalar|popcnt|avx2|avx512]  clamp the SIMD dispatch\n"
      "                level (wins over the TSVCOD_SIMD env; never raises above\n"
      "                what the CPU supports; results are level-invariant)\n"
      "               [--verbose]  report the resolved SIMD level, thread count and\n"
      "                active observability sinks\n"
      "               [--trace-out FILE]    write a Chrome/Perfetto trace of the run\n"
      "               [--profile-out FILE]  write the span-tree profile as JSON plus\n"
      "                FILE.folded collapsed stacks for flamegraph tools\n"
      "               [--snapshot-out FILE [--snapshot-interval SECONDS]]  export the\n"
      "                profile periodically (rotating FILE.1..FILE.3)\n"
      "                (TSVCOD_TRACE / TSVCOD_PROFILE /\n"
      "                 TSVCOD_SNAPSHOT(+_INTERVAL) env set the same outputs;\n"
      "                 outputs are flushed even when a run fails, marked\n"
      "                 \"clean_exit\":false)\n"
      "               [--codec NAME]  push the trace through a low-power codec first\n"
      "                (gray|correlator|bus-invert|coupling-invert|t0|fibonacci;\n"
      "                 sub-flags --codec-period N --codec-stride N --codec-lambda X;\n"
      "                 the codec is sized so its output fills the array exactly)\n"
      "extract      : [--backend analytic|field] [--cell-um C] --out FILE\n"
      "optimize     : [--model FILE] --trace FILE [--no-invert i,j] [--iterations N]\n"
      "               [--seed S] [--codec NAME] [--out FILE]\n"
      "evaluate     : [--model FILE] --trace FILE --assignment FILE [--codec NAME]\n"
      "               (with --codec also verifies the encode->assign->decode chain)\n"
      "fieldmap     : [--probability P] [--cell-um C] --out PREFIX\n"
      "convert      : --trace FILE --out FILE [--to text|binary] [--width W] [--seed S]\n"
      "               (default --to: the opposite of the sniffed input format;\n"
      "                .tsvb is the zero-copy mmap format — see README 'Trace formats')\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    const Args args(argc, argv, 2,
                    {"rows", "cols", "radius-um", "pitch-um", "length-um", "threads", "simd",
                     "trace-out", "profile-out", "snapshot-out",
                     "snapshot-interval", "codec", "codec-period", "codec-stride", "codec-lambda",
                     "backend", "cell-um", "out", "model", "trace", "no-invert", "iterations",
                     "seed", "assignment", "probability", "to", "width"},
                    {"verbose"});
    // Fail fast on a malformed TSVCOD_THREADS (clear error up front instead
    // of a surprise at the first parallel section).
    (void)opt::default_threads();
    // SIMD level: the --simd flag wins over the TSVCOD_SIMD env clamp; both
    // only ever lower the detected level. Evaluating active_level() here
    // fails fast on a malformed env value too.
    if (args.has("simd")) simd::force_level(simd::parse_level(args.str("simd")));
    (void)simd::active_level();
    // Observability: env first, explicit flags override.
    obs::init_from_env();
    if (args.has("trace-out")) obs::set_trace_path(args.str("trace-out"));
    if (args.has("profile-out")) obs::set_profile_path(args.str("profile-out"));
    if (args.has("snapshot-out")) {
      obs::start_snapshots(args.str("snapshot-out"),
                           args.has("snapshot-interval")
                               ? obs::parse_snapshot_interval(args.str("snapshot-interval"),
                                                              "--snapshot-interval")
                               : obs::kDefaultSnapshotInterval);
    } else if (args.has("snapshot-interval")) {
      throw std::runtime_error("--snapshot-interval needs --snapshot-out (or TSVCOD_SNAPSHOT)");
    }
    // From here on, every exit path — including thrown errors — flushes the
    // configured sinks; the success path calls finish() for a clean flush.
    ObsFlusher flusher;

    if (args.has("verbose")) {
      const simd::Level active = simd::active_level();
      const simd::Level detected = simd::detected_level();
      std::printf("simd level   : %s (detected %s%s)\n", simd::level_name(active),
                  simd::level_name(detected),
                  active == detected ? ""
                  : args.has("simd") ? ", clamped by --simd"
                                     : ", clamped by TSVCOD_SIMD");
      std::printf("threads      : %d\n", std::max(1, opt::resolve_threads(threads_from(args))));
      const auto sink = [](const std::string& path) {
        return path.empty() ? std::string("off") : path;
      };
      std::printf("obs sinks    : trace=%s profile=%s snapshot=%s\n",
                  sink(obs::trace_path()).c_str(), sink(obs::profile_path()).c_str(),
                  sink(obs::snapshot_path()).c_str());
    }

    int rc = 2;
    if (cmd == "extract") rc = cmd_extract(args);
    else if (cmd == "optimize") rc = cmd_optimize(args);
    else if (cmd == "evaluate") rc = cmd_evaluate(args);
    else if (cmd == "mappings") rc = cmd_mappings(args);
    else if (cmd == "overhead") rc = cmd_overhead(args);
    else if (cmd == "fieldmap") rc = cmd_fieldmap(args);
    else if (cmd == "convert") rc = cmd_convert(args);
    else {
      usage();
      return 2;
    }

    flusher.finish();
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
