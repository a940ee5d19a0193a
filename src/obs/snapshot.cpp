#include "obs/snapshot.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "obs/profile.hpp"

namespace tsvcod::obs {

namespace {

constexpr int kKeep = 3;  // rotated copies beyond the live file

struct SnapshotState {
  // Serializes whole start/stop transitions (thread join happens under this
  // lock but never under `mu`, so the worker can still make progress).
  // Concurrent stop_snapshots() calls — e.g. a signal-path flusher racing the
  // normal exit path — must not both join the worker or drop the final
  // snapshot.
  std::mutex lifecycle_mu;
  std::mutex mu;  // guards everything below + file writes
  std::condition_variable cv;
  std::thread worker;
  std::string path;
  std::chrono::milliseconds interval{0};
  std::uint64_t seq = 0;
  bool running = false;
  bool stop_requested = false;
};

SnapshotState& snapshot_state() {
  static SnapshotState* state = new SnapshotState();  // leaked: usable at any exit stage
  return *state;
}

/// Rotate path -> path.1 -> … -> path.3, then write via temp + rename so
/// the live file is always a complete document. Rename failures (e.g. a
/// missing predecessor) are expected and ignored.
void write_snapshot_locked(SnapshotState& st, bool final_snapshot) {
  for (int i = kKeep - 1; i >= 1; --i) {
    std::rename((st.path + "." + std::to_string(i)).c_str(),
                (st.path + "." + std::to_string(i + 1)).c_str());
  }
  std::rename(st.path.c_str(), (st.path + ".1").c_str());

  std::string body = "{\"seq\":" + std::to_string(st.seq++);
  body += ",\"final\":";
  body += final_snapshot ? "true" : "false";
  body += ",\"profile\":" + profile_to_json(ProfileFields::full) + "}";

  const std::string tmp = st.path + ".tmp";
  {
    std::ofstream os(tmp);
    if (!os) return;  // telemetry must never take the process down
    os << body;
    if (!os) return;
  }
  std::rename(tmp.c_str(), st.path.c_str());
}

void snapshot_loop() {
  auto& st = snapshot_state();
  std::unique_lock<std::mutex> lk(st.mu);
  while (!st.stop_requested) {
    st.cv.wait_for(lk, st.interval, [&st] { return st.stop_requested; });
    if (st.stop_requested) break;
    write_snapshot_locked(st, /*final_snapshot=*/false);
  }
}

/// Stop the worker and write the final snapshot. Caller holds lifecycle_mu.
/// The join happens after the worker can no longer start a write, and the
/// `"final":true` snapshot is written strictly after the worker exits, so it
/// is always the last document on disk — a stop racing an in-progress
/// periodic write can delay it, never drop or clobber it.
void stop_snapshots_lifecycle_locked(SnapshotState& st) {
  std::thread worker;
  {
    std::lock_guard<std::mutex> lk(st.mu);
    if (!st.running) return;
    st.stop_requested = true;
    worker = std::move(st.worker);
  }
  st.cv.notify_all();
  worker.join();
  std::lock_guard<std::mutex> lk(st.mu);
  write_snapshot_locked(st, /*final_snapshot=*/true);
  st.running = false;
  st.stop_requested = false;
}

}  // namespace

std::chrono::milliseconds parse_snapshot_interval(const std::string& text,
                                                  const std::string& source) {
  char* end = nullptr;
  const double seconds = std::strtod(text.c_str(), &end);
  // Written so that nan fails too. The upper bound keeps the millisecond
  // count, and the deadline the worker computes from it, far inside
  // std::int64_t.
  if (*end != '\0' || !(seconds > 0.0 && seconds <= 1e9)) {
    throw std::runtime_error(source + " must be a finite number of seconds in (0, 1e9], got '" +
                             text + "'");
  }
  return std::chrono::milliseconds(std::max<long long>(1, std::llround(seconds * 1000.0)));
}

void start_snapshots(std::string path, std::chrono::milliseconds interval) {
  if (interval.count() <= 0) {
    throw std::invalid_argument(
        "snapshots: interval must be > 0, got " + std::to_string(interval.count()) +
        " ms (set --snapshot-interval / TSVCOD_SNAPSHOT_INTERVAL to a positive number of "
        "seconds)");
  }
  auto& st = snapshot_state();
  std::lock_guard<std::mutex> lifecycle(st.lifecycle_mu);
  stop_snapshots_lifecycle_locked(st);
  enable_profiling(true);
  std::lock_guard<std::mutex> lk(st.mu);
  st.path = std::move(path);
  st.interval = interval;
  st.stop_requested = false;
  st.running = true;
  st.worker = std::thread(snapshot_loop);
}

void stop_snapshots() {
  auto& st = snapshot_state();
  std::lock_guard<std::mutex> lifecycle(st.lifecycle_mu);
  stop_snapshots_lifecycle_locked(st);
}

std::string snapshot_path() {
  auto& st = snapshot_state();
  std::lock_guard<std::mutex> lk(st.mu);
  return st.running ? st.path : std::string();
}

}  // namespace tsvcod::obs
