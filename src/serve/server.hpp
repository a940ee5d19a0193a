#pragma once
// Multi-session streaming server: shards sessions across the shared thread
// pool with request batching and bounded-queue backpressure.
//
// Architecture (one process, no dedicated threads of its own):
//
//   client threads ──ingest()──▶ per-shard bounded deque ──▶ drain job on
//                                                            opt::ThreadPool
//
// A session is pinned to shard `id % shards`, so its batches are processed
// in arrival order by at most one drain job at a time — per-session
// statistics stay a pure fold over the stream. Each shard schedules at most
// one drain job; the job pops batches until the queue is empty and exits, so
// idle shards cost nothing. When a shard's queue is full, ingest() blocks
// the producer (backpressure) until the drain job frees a slot; the
// high-water mark is observable for tests.
//
// A drift trip reported by Session::ingest becomes a re-anneal job on the
// same pool: optimize_assignment against the tripping window's statistics,
// then an atomic hot-swap via Session::install. The pool's help-drain
// (`try_run_one`) makes the nested parallel_for inside the annealer
// deadlock-free even when every worker is busy. drain() blocks until all
// queued batches AND all in-flight re-anneals have landed — the quiescent
// point the daemon uses for stats frames, close, and shutdown.
//
// Observability: spans serve.open, serve.batch (work `words`, `desyncs`,
// `trips`) and serve.reanneal (work `swaps`, `failures`) in the profile, so
// the snapshot exporter (obs/snapshot.hpp) publishes service health for
// free. Pool jobs adopt the span current where they were submitted.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/session.hpp"

namespace tsvcod::serve {

struct ServerOptions {
  /// Session-to-queue sharding; also the useful bound on batch concurrency.
  int shards = 4;
  /// Queued batches per shard before ingest() blocks the producer.
  std::size_t queue_capacity = 64;
};

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
  explicit Server(ServerOptions options = {});
  /// Drains outstanding work; sessions are then dropped.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Register session `id`. Throws if the id is already open or the config
  /// is invalid (see Session).
  void open_session(std::uint64_t id, SessionConfig config);

  /// Queue one batch for the session's shard. Blocks while the shard queue
  /// is at capacity. Throws on an unknown session id.
  void ingest(std::uint64_t id, std::vector<std::uint64_t> words);

  /// Point-in-time snapshot (queued batches may still be outstanding; call
  /// drain() first for exact totals).
  SessionSnapshot session_stats(std::uint64_t id) const;

  /// Drain the server, then remove the session and return its final
  /// snapshot.
  SessionSnapshot close_session(std::uint64_t id);

  /// Block until every queued batch is processed and every in-flight
  /// re-anneal has landed. The calling thread helps drain the pool queue, so
  /// this works even when all workers are busy.
  void drain();

  /// Completed re-anneals since the last poll (completion order).
  std::vector<SwapEvent> poll_swaps();
  /// Ingest/re-anneal exceptions since the last poll (message text; the
  /// server itself never lets a job exception escape onto a pool thread).
  std::vector<std::string> poll_errors();

  struct Totals {
    std::uint64_t sessions_opened = 0;
    std::uint64_t batches = 0;
    std::uint64_t words = 0;
    std::uint64_t desyncs = 0;  ///< live sessions + closed sessions
    std::uint64_t trips = 0;
    std::uint64_t swaps = 0;
    std::size_t max_queue_depth = 0;  ///< high-water mark across shards
  };
  Totals totals() const;

 private:
  struct Batch {
    std::shared_ptr<Session> session;
    std::vector<std::uint64_t> words;
  };

  struct Shard {
    std::mutex mu;
    std::condition_variable not_full;
    std::deque<Batch> queue;
    bool job_scheduled = false;  ///< a drain job is queued or running
  };

  std::shared_ptr<Session> find_session(std::uint64_t id) const;
  void drain_shard(Shard& shard);
  void process_batch(Batch batch);
  void schedule_reanneal(std::shared_ptr<Session> session, Session::IngestResult trip);
  void finish_unit();  ///< decrement pending work, wake drain()

  ServerOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::mutex sessions_mu_;
  std::map<std::uint64_t, std::shared_ptr<Session>> sessions_;
  std::uint64_t sessions_opened_ = 0;
  std::uint64_t closed_desyncs_ = 0;
  std::uint64_t closed_trips_ = 0;
  std::uint64_t closed_swaps_ = 0;

  mutable std::mutex idle_mu_;
  std::condition_variable idle_cv_;
  std::size_t pending_units_ = 0;  ///< queued batches + in-flight re-anneals

  mutable std::mutex events_mu_;
  std::vector<SwapEvent> swaps_;
  std::vector<std::string> errors_;

  mutable std::mutex stats_mu_;
  std::uint64_t batches_total_ = 0;
  std::uint64_t words_total_ = 0;
  std::size_t max_queue_depth_ = 0;
};

}  // namespace tsvcod::serve
