#pragma once
// Multi-session streaming server: each batch runs on the thread that hands it
// in; drift-triggered re-anneals run on the shared thread pool.
//
//   client thread ──ingest()──▶ Session::ingest (same thread, same call)
//                                    │ drift trip
//                                    ▼
//                       re-anneal job on opt::ThreadPool ──▶ Session::install
//
// ingest() folds and round-trips the batch before it returns, so the server
// owns no queue and no thread: concurrency is the callers' — one producer
// per session scales with the cores, which `bench/serve_throughput` checks
// up to the hardware thread count (ctest `serve_throughput`). A
// session's batches are folded in the order its ingest() calls take the
// session lock; per-session statistics stay a pure fold over the stream
// whenever one thread at a time feeds a session.
//
// A drift trip reported by Session::ingest becomes a re-anneal job on the
// pool: optimize_assignment against the tripping window's statistics, then
// an atomic hot-swap via Session::install. The pool's help-drain
// (`try_run_one`) makes the nested parallel_for inside the annealer
// deadlock-free even when every worker is busy. drain() blocks until every
// in-flight re-anneal has landed — the quiescent point the daemon uses for
// stats frames, close, and shutdown.
//
// Observability: spans serve.open, serve.batch (work `words`, `desyncs`,
// `trips`) and serve.reanneal (work `swaps`, `failures`) in the profile, so
// the snapshot exporter (obs/snapshot.hpp) publishes service health for
// free. Re-anneal jobs adopt the span current where ingest() was called.

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "serve/session.hpp"

namespace tsvcod::serve {

/// One completed re-anneal (successful or dropped), in completion order.
struct SwapEvent {
  std::uint64_t session = 0;
  bool installed = false;  ///< false: session closed/abandoned before install
  double drift = 0.0;
  double power_before = 0.0;  ///< window stats under the pre-trip assignment
  double power_after = 0.0;   ///< window stats under the annealed assignment
  double latency_ms = 0.0;    ///< drift trip -> hot-swap installed
  std::uint64_t words_at_trip = 0;
  std::size_t evaluations = 0;  ///< annealer move pricings

  std::string to_json() const;
};

class Server {
 public:
  Server();
  /// Waits for in-flight re-anneals; sessions are then dropped.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Register session `id`. Throws if the id is already open or the config
  /// is invalid (see Session).
  void open_session(std::uint64_t id, SessionConfig config);

  /// Fold and round-trip one batch on the calling thread; a drift trip
  /// schedules a background re-anneal. Throws on an unknown session id, and
  /// passes on any exception from Session::ingest.
  void ingest(std::uint64_t id, std::span<const std::uint64_t> words);

  /// Point-in-time snapshot (a re-anneal may still be in flight; call
  /// drain() first for settled swap counts).
  SessionSnapshot session_stats(std::uint64_t id) const;

  /// Drain the server, then remove the session and return its final
  /// snapshot.
  SessionSnapshot close_session(std::uint64_t id);

  /// Block until every in-flight re-anneal has landed. The calling thread
  /// helps drain the pool queue, so this works even when all workers are
  /// busy.
  void drain();

  /// Completed re-anneals since the last poll (completion order).
  std::vector<SwapEvent> poll_swaps();
  /// Re-anneal exceptions since the last poll (message text; the server
  /// never lets a job exception escape onto a pool thread).
  std::vector<std::string> poll_errors();

  /// Counters summed over live and closed sessions (live ones as of now;
  /// call drain() first for settled swap counts).
  struct Totals {
    std::uint64_t sessions_opened = 0;
    std::uint64_t batches = 0;
    std::uint64_t words = 0;
    std::uint64_t desyncs = 0;
    std::uint64_t trips = 0;
    std::uint64_t swaps = 0;
  };
  Totals totals() const;

 private:
  std::shared_ptr<Session> find_session(std::uint64_t id) const;
  void schedule_reanneal(std::shared_ptr<Session> session, Session::IngestResult trip);

  mutable std::mutex sessions_mu_;
  std::map<std::uint64_t, std::shared_ptr<Session>> sessions_;
  std::uint64_t sessions_opened_ = 0;
  Totals closed_;  ///< final snapshots of closed sessions, summed

  mutable std::mutex idle_mu_;
  std::condition_variable idle_cv_;
  std::size_t reanneals_inflight_ = 0;

  mutable std::mutex events_mu_;
  std::vector<SwapEvent> swaps_;
  std::vector<std::string> errors_;
};

}  // namespace tsvcod::serve
