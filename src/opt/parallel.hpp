#pragma once
// Shared parallel execution layer: a fixed-thread pool (no work stealing,
// one FIFO queue) plus a deterministic `parallel_for` used by the annealer,
// the random-assignment baselines and the field extractor.
//
// Determinism contract: parallelized algorithms derive every random stream
// from the *logical* index of a work item (`deterministic_seed`), never from
// the executing thread, and reduce per-item results in logical-index order.
// Anything built on this layer therefore produces bit-identical output for
// every thread count, including 1 — existing figures and golden tests stay
// valid when the hardware changes.
//
// Thread-count resolution: every `threads` knob treats 0 as "use the
// TSVCOD_THREADS environment override, else run serially". TSVCOD_THREADS=0
// means "all hardware threads".

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hpp"

namespace tsvcod::opt {

/// splitmix64 over (base, index): statistically independent seed streams per
/// logical work item, independent of which thread executes the item.
inline std::uint64_t deterministic_seed(std::uint64_t base, std::uint64_t index) {
  std::uint64_t z = base + (index + 1) * 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

inline int hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

/// Thread count used when a `threads` knob is 0: the TSVCOD_THREADS
/// environment variable if set (its value 0 = all hardware threads), else 1.
/// A malformed or negative TSVCOD_THREADS throws std::runtime_error naming
/// the variable and its value instead of silently running serially.
inline int default_threads() {
  static const int cached = [] {
    const char* env = std::getenv("TSVCOD_THREADS");
    if (!env || !*env) return 1;
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end == env || *end != '\0' || v < 0 || v > 65536) return -1;  // sentinel: malformed
    if (v == 0) return hardware_threads();
    return static_cast<int>(v);
  }();
  if (cached < 0) {
    throw std::runtime_error(std::string("TSVCOD_THREADS='") + std::getenv("TSVCOD_THREADS") +
                             "' is not a thread count (expected a non-negative integer; "
                             "0 means all hardware threads)");
  }
  return cached;
}

inline int resolve_threads(int threads) { return threads > 0 ? threads : default_threads(); }

/// Process-wide pool of worker threads. Workers are created on demand (up to
/// the largest concurrency any caller asked for) and live until exit, so
/// repeated parallel sections reuse threads instead of respawning them.
class ThreadPool {
 public:
  static ThreadPool& shared() {
    static ThreadPool pool;
    return pool;
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) t.join();
  }

  /// Grow to at least `n` worker threads (never shrinks).
  void ensure_workers(int n) {
    std::lock_guard<std::mutex> lk(mu_);
    while (static_cast<int>(threads_.size()) < n) {
      threads_.emplace_back([this] { worker_loop(); });
    }
  }

  void submit(std::function<void()> job) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      jobs_.push_back(std::move(job));
    }
    cv_.notify_one();
  }

  /// Run one queued job on the calling thread, if any is pending. Lets a
  /// waiting caller help drain the queue (and makes nested parallel sections
  /// deadlock-free: the blocked outer task executes the inner jobs itself).
  bool try_run_one() {
    std::function<void()> job;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (jobs_.empty()) return false;
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    job();
    return true;
  }

 private:
  ThreadPool() = default;

  void worker_loop() {
    for (;;) {
      std::function<void()> job;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [&] { return stop_ || !jobs_.empty(); });
        if (jobs_.empty()) return;  // stop_ set and queue drained
        job = std::move(jobs_.front());
        jobs_.pop_front();
      }
      job();
    }
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> jobs_;
  std::vector<std::thread> threads_;
  bool stop_ = false;
};

/// Call `fn(i)` for every i in [0, n) using up to `threads` threads (the
/// caller participates). Work items are handed out dynamically, so `fn` must
/// only write to per-index state; results are then independent of scheduling.
/// The first exception thrown by any item is rethrown on the caller after all
/// workers stop. `threads <= 0` resolves via `default_threads()`.
template <typename Fn>
void parallel_for(std::size_t n, int threads, Fn&& fn) {
  if (n == 0) return;
  const std::size_t k =
      std::min(n, static_cast<std::size_t>(std::max(1, resolve_threads(threads))));
  if (k <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  struct State {
    std::atomic<std::size_t> next{0};
    int pending = 0;  // helper jobs not yet finished (guarded by mu)
    std::mutex mu;
    std::condition_variable done;
    std::exception_ptr error;  // first failure (guarded by mu)
  };
  auto state = std::make_shared<State>();
  const auto run_share = [state, n, &fn] {
    try {
      for (std::size_t i = state->next.fetch_add(1); i < n; i = state->next.fetch_add(1)) {
        fn(i);
      }
    } catch (...) {
      std::lock_guard<std::mutex> lk(state->mu);
      if (!state->error) state->error = std::current_exception();
      state->next.store(n);  // stop handing out further work
    }
  };

  auto& pool = ThreadPool::shared();
  pool.ensure_workers(static_cast<int>(k) - 1);
  state->pending = static_cast<int>(k) - 1;
  // Propagate the submitting span as the logical profiler parent: spans
  // opened inside `fn` on a worker then aggregate under the span that was
  // open here, so the profile tree depends only on call structure, never on
  // which thread ran an item (or on `threads`). `try_run_one` below also
  // drains *other* sections' jobs on this thread — each job carrying its own
  // scope override is what keeps that re-entrancy correct.
  const obs::ProfileToken profile_parent = obs::profile_current();
  for (std::size_t w = 0; w + 1 < k; ++w) {
    // `run_share` holds a reference to `fn`; that is safe because this frame
    // blocks until every helper job has finished.
    pool.submit([state, run_share, profile_parent] {
      obs::ProfileTaskScope profile_scope(profile_parent);
      run_share();
      {
        std::lock_guard<std::mutex> lk(state->mu);
        --state->pending;
      }
      state->done.notify_all();
    });
  }
  run_share();  // the caller works too

  for (;;) {
    {
      std::unique_lock<std::mutex> lk(state->mu);
      if (state->pending == 0) break;
    }
    // Helpers may still sit in the queue behind other jobs; drain instead of
    // sleeping so nested parallel sections cannot deadlock.
    if (!pool.try_run_one()) {
      std::unique_lock<std::mutex> lk(state->mu);
      state->done.wait_for(lk, std::chrono::milliseconds(1),
                           [&] { return state->pending == 0; });
    }
  }
  if (state->error) std::rethrow_exception(state->error);
}

/// Lightweight sense-reversing barrier for phase-synchronous kernels (the
/// NoC mesh engine's arbitrate/transfer cycle). Spins briefly, then yields:
/// on an oversubscribed host (ranks > hardware threads) long spinning would
/// burn the scheduler quantum the *other* ranks need, so the spin budget
/// collapses to zero there. Synchronization: every arrival is an acq_rel RMW
/// on `arrived_` and the release of `phase_` by the last arriver forms a
/// release sequence through those RMWs, so writes made by any rank before
/// wait() are visible to every rank after it returns.
class SpinBarrier {
 public:
  explicit SpinBarrier(int participants)
      : n_(participants), spin_(participants <= hardware_threads()) {}

  void wait() {
    const std::uint64_t phase = phase_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        static_cast<std::uint64_t>(n_)) {
      arrived_.store(0, std::memory_order_relaxed);
      phase_.fetch_add(1, std::memory_order_release);
      return;
    }
    int spins = 0;
    while (phase_.load(std::memory_order_acquire) == phase) {
      if (!spin_ || ++spins > 4096) std::this_thread::yield();
    }
  }

 private:
  const int n_;
  const bool spin_;
  std::atomic<std::uint64_t> arrived_{0};
  std::atomic<std::uint64_t> phase_{0};
};

/// Run `fn(rank)` for ranks 0..k-1 concurrently: ranks 1..k-1 on the shared
/// pool, rank 0 on the caller. Unlike `parallel_for`'s dynamic work handout,
/// every rank is *resident* for the whole call — the shape long-running
/// phase-synchronous kernels need (the ranks synchronize among themselves,
/// e.g. with SpinBarrier). Resident jobs must not wait on jobs that are
/// still queued behind them, so only one team can be in flight at a time: a
/// process-wide mutex serializes teams (concurrent callers block, they do
/// not deadlock), and short-lived parallel_for jobs interleave freely before
/// or after. `fn` must synchronize its own ranks; if a rank throws, the rank
/// stops participating — kernels that barrier internally must catch their
/// own exceptions and keep arriving (see the NoC engine's abort flag).
/// The first exception is rethrown on the caller after every rank returned.
template <typename Fn>
void parallel_team(int k, Fn&& fn) {
  if (k <= 1) {
    fn(0);
    return;
  }
  static std::mutex team_mu;
  std::lock_guard<std::mutex> team_lk(team_mu);

  struct State {
    int pending = 0;  // guarded by mu
    std::mutex mu;
    std::condition_variable done;
    std::exception_ptr error;  // first failure (guarded by mu)
  };
  auto state = std::make_shared<State>();
  state->pending = k - 1;

  auto& pool = ThreadPool::shared();
  pool.ensure_workers(k - 1);
  const obs::ProfileToken profile_parent = obs::profile_current();
  for (int rank = 1; rank < k; ++rank) {
    // `fn` is captured by reference: this frame blocks until every rank has
    // finished, so the reference outlives all jobs.
    pool.submit([state, rank, profile_parent, &fn] {
      obs::ProfileTaskScope profile_scope(profile_parent);
      try {
        fn(rank);
      } catch (...) {
        std::lock_guard<std::mutex> lk(state->mu);
        if (!state->error) state->error = std::current_exception();
      }
      {
        std::lock_guard<std::mutex> lk(state->mu);
        --state->pending;
      }
      state->done.notify_all();
    });
  }
  try {
    fn(0);
  } catch (...) {
    std::lock_guard<std::mutex> lk(state->mu);
    if (!state->error) state->error = std::current_exception();
  }
  {
    std::unique_lock<std::mutex> lk(state->mu);
    state->done.wait(lk, [&] { return state->pending == 0; });
  }
  if (state->error) std::rethrow_exception(state->error);
}

}  // namespace tsvcod::opt
