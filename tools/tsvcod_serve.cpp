// tsvcod_serve: long-running streaming daemon. Length-prefixed binary frames
// arrive on stdin (one frame = open/data/stats/close/shutdown, see
// serve/protocol.hpp), JSON event lines leave on stdout. Many sessions (one
// per bus/tenant) run concurrently, sharded across the shared thread pool;
// each session folds its words into exact long-run and tumbling-window
// switching statistics, round-trips every word through a CodedLink, and —
// when the window drifts from the long-run statistics past the threshold —
// re-anneals the assignment in the background and hot-swaps it atomically
// with zero decode desyncs.
//
//   tsvcod_serve --rows 2 --cols 4 [--radius-um R --pitch-um D --length-um L]
//                | --model FILE
//     [--codec gray|correlator|t0|none]      link codec (default correlator)
//     [--shards N]                           session shards (default 4)
//     [--queue-capacity N]                   batches/shard before backpressure
//     [--window WORDS]                       drift window (default 4096)
//     [--drift-threshold X]                  trip level (default 0.25; 0 = off)
//     [--cooldown WORDS]                     min words between swaps
//     [--reanneal-iterations N] [--chains N] [--seed S] [--threads N]
//     [--trace-out FILE] [--profile-out FILE]
//     [--snapshot-out FILE [--snapshot-interval SECONDS]] [--verbose]
//
// EOF on stdin is an implicit shutdown: outstanding work is drained and the
// summary line is still emitted with "clean_exit":true.

#include <cstdio>
#include <exception>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "args.hpp"
#include "obs/obs.hpp"
#include "obs/snapshot.hpp"
#include "opt/parallel.hpp"
#include "phys/tsv_geometry.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "tsv/linear_model.hpp"
#include "tsv/model_io.hpp"

using namespace tsvcod;

namespace {

using tools::Args;
using tools::parse_number;
using tools::parse_size;

/// Flush observability sinks on every exit path (clean_exit=false when an
/// exception unwinds past finish()).
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
    }
  }
  void finish() {
    armed_ = false;
    obs::stop_snapshots();
    obs::flush_outputs(/*clean_exit=*/true);
  }

 private:
  bool armed_ = true;
};

tsv::LinearCapacitanceModel model_from(const Args& args) {
  if (args.has("model")) return tsv::load_linear_model(args.str("model"));
  phys::TsvArrayGeometry g;
  g.rows = args.size("rows");
  g.cols = args.size("cols");
  g.radius = args.number_or("radius-um", 1.0) * 1e-6;
  g.pitch = args.number_or("pitch-um", 4.0) * 1e-6;
  g.length = args.number_or("length-um", 50.0) * 1e-6;
  g.validate();
  return tsv::fit_from_analytic(g);
}

int threads_from(const Args& args) {
  if (!args.has("threads")) return 0;
  const std::size_t n = args.size("threads");
  if (n == 0) return opt::hardware_threads();
  if (n > 65536) throw std::runtime_error("--threads value is absurdly large: " + std::to_string(n));
  return static_cast<int>(n);
}

void print_help() {
  std::printf(
      "tsvcod_serve: streaming statistics + drift-triggered re-anneal daemon\n"
      "\n"
      "Frames on stdin (12-byte header: u32 payload_len, u8 type, 3x0, u32 session):\n"
      "  'O' open (payload: key=value options: codec window threshold cooldown)\n"
      "  'D' data (payload: N x u64 LE words)   'S' stats   'C' close   'Q' shutdown\n"
      "JSON event lines on stdout: open/stats/close/swap/error/shutdown.\n"
      "\n"
      "model  : --rows N --cols N [--radius-um R --pitch-um D --length-um L]\n"
      "         | --model FILE\n"
      "service: [--codec gray|correlator|t0|none] [--shards N] [--queue-capacity N]\n"
      "         [--window WORDS] [--drift-threshold X] [--cooldown WORDS]\n"
      "         [--reanneal-iterations N] [--chains N] [--seed S] [--threads N]\n"
      "obs    : [--trace-out FILE] [--profile-out FILE]\n"
      "         [--snapshot-out FILE [--snapshot-interval SECONDS]] [--verbose]\n");
}

/// Daemon-wide session defaults, parsed once at startup so a bad flag fails
/// before the first open frame.
serve::SessionConfig session_defaults(const Args& args, const tsv::LinearCapacitanceModel& model) {
  serve::SessionConfig cfg;
  cfg.width = model.size();
  cfg.model = model;
  cfg.codec.name = args.str_or("codec", "correlator");
  cfg.drift.window_words = args.size_or("window", 4096);
  cfg.drift.threshold = args.number_or("drift-threshold", 0.25);
  cfg.drift.cooldown_words = args.size_or("cooldown", 0);
  cfg.optimize.schedule.iterations = args.count_or("reanneal-iterations", 20000);
  cfg.optimize.chains = args.count_or("chains", 4);
  cfg.optimize.seed = static_cast<unsigned>(args.size_or("seed", 1));
  cfg.optimize.threads = threads_from(args);
  cfg.stats_threads = threads_from(args);
  return cfg;
}

/// One open frame's session config: the defaults overridden by its options.
serve::SessionConfig session_config(serve::SessionConfig cfg,
                                    const std::map<std::string, std::string>& overrides) {
  for (const auto& [key, value] : overrides) {
    const std::string what = "open option '" + key + "'";
    if (key == "codec") {
      cfg.codec.name = value == "none" ? "" : value;
    } else if (key == "window") {
      cfg.drift.window_words = parse_size(what, value);
    } else if (key == "threshold") {
      cfg.drift.threshold = parse_number(what, value);
    } else if (key == "cooldown") {
      cfg.drift.cooldown_words = parse_size(what, value);
    } else {
      throw std::runtime_error("serve: unknown open option '" + key +
                               "' (known: codec window threshold cooldown)");
    }
  }
  return cfg;
}

void emit(const std::string& json_line) {
  std::fputs(json_line.c_str(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

void emit_polled(serve::Server& server) {
  for (const auto& swap : server.poll_swaps()) emit(swap.to_json());
  for (const auto& error : server.poll_errors()) {
    std::string line = "{\"event\":\"error\",\"message\":\"";
    for (const char c : error) {
      if (c == '"' || c == '\\') line += '\\';
      line += c;
    }
    line += "\"}";
    emit(line);
  }
}

int run(int argc, char** argv) {
  const Args args(argc, argv, 1,
                  {"rows", "cols", "radius-um", "pitch-um", "length-um", "model", "codec",
                   "shards", "queue-capacity", "window", "drift-threshold", "cooldown",
                   "reanneal-iterations", "chains", "seed", "threads", "trace-out",
                   "profile-out", "snapshot-out", "snapshot-interval"},
                  {"verbose", "help"});
  if (args.has("help")) {
    print_help();
    return 0;
  }

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
  ObsFlusher flusher;
  const bool verbose = args.has("verbose");

  const tsv::LinearCapacitanceModel model = model_from(args);
  const serve::SessionConfig defaults = session_defaults(args, model);
  serve::ServerOptions options;
  options.shards = static_cast<int>(args.size_or("shards", 4));
  options.queue_capacity = args.size_or("queue-capacity", 64);
  serve::Server server(options);

  emit("{\"event\":\"ready\",\"width\":" + std::to_string(model.size()) +
       ",\"shards\":" + std::to_string(options.shards) +
       ",\"queue_capacity\":" + std::to_string(options.queue_capacity) + "}");

  serve::Frame frame;
  bool shutdown_frame = false;
  while (!shutdown_frame && serve::read_frame(std::cin, frame)) {
    switch (frame.type) {
      case serve::FrameType::open: {
        const auto cfg = session_config(defaults, serve::parse_options(frame.text));
        server.open_session(frame.session, cfg);
        emit("{\"event\":\"open\",\"session\":" + std::to_string(frame.session) +
             ",\"width\":" + std::to_string(cfg.width) + ",\"codec\":\"" +
             (cfg.codec.name.empty() ? "none" : cfg.codec.name) +
             "\",\"window\":" + std::to_string(cfg.drift.window_words) + "}");
        break;
      }
      case serve::FrameType::data:
        server.ingest(frame.session, std::move(frame.words));
        if (verbose) {
          emit("{\"event\":\"batch\",\"session\":" + std::to_string(frame.session) + "}");
        }
        break;
      case serve::FrameType::stats:
        server.drain();  // exact totals: everything queued has been folded
        emit("{\"event\":\"stats\",\"stats\":" + server.session_stats(frame.session).to_json() +
             "}");
        break;
      case serve::FrameType::close:
        emit("{\"event\":\"close\",\"stats\":" + server.close_session(frame.session).to_json() +
             "}");
        break;
      case serve::FrameType::shutdown: shutdown_frame = true; break;
    }
    emit_polled(server);
  }

  server.drain();
  emit_polled(server);
  const serve::Server::Totals totals = server.totals();
  emit("{\"event\":\"shutdown\",\"sessions\":" + std::to_string(totals.sessions_opened) +
       ",\"batches\":" + std::to_string(totals.batches) +
       ",\"words\":" + std::to_string(totals.words) +
       ",\"desyncs\":" + std::to_string(totals.desyncs) +
       ",\"trips\":" + std::to_string(totals.trips) +
       ",\"swaps\":" + std::to_string(totals.swaps) +
       ",\"max_queue_depth\":" + std::to_string(totals.max_queue_depth) +
       ",\"clean_exit\":true}");

  flusher.finish();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tsvcod_serve: %s\n", e.what());
    return 1;
  }
}
