#include "obs/obs.hpp"

#include <algorithm>

#include "obs/profile.hpp"
#include "obs/snapshot.hpp"
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace tsvcod::obs {

namespace detail {
std::atomic<bool> g_trace_enabled{false};
}  // namespace detail

namespace {

using Clock = std::chrono::steady_clock;

struct Event {
  std::string name;
  std::string args;  // pre-rendered JSON object body, "" = none
  std::int64_t ts_us = 0;
  std::int64_t dur_us = 0;  // "X" events only
  double value = 0.0;       // "C" events only
  char ph = 'X';
};

/// Owned jointly by its thread (thread_local shared_ptr) and the registry, so
/// flushing after a pool thread exited never dangles. The per-buffer mutex is
/// only ever contended between the owning thread and a flusher — workers never
/// share a lock with each other.
struct ThreadBuffer {
  std::mutex mu;
  std::vector<Event> events;
  int tid = 0;
};

struct TraceState {
  std::mutex mu;  // guards buffers registration + epoch
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  Clock::time_point epoch = Clock::now();
  int next_tid = 1;
};

TraceState& trace_state() {
  static TraceState* state = new TraceState();  // leaked: usable at any exit stage
  return *state;
}

ThreadBuffer& local_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buf = [] {
    auto b = std::make_shared<ThreadBuffer>();
    auto& st = trace_state();
    std::lock_guard<std::mutex> lk(st.mu);
    b->tid = st.next_tid++;
    st.buffers.push_back(b);
    return b;
  }();
  return *buf;
}

std::int64_t now_us() {
  auto& st = trace_state();
  Clock::time_point epoch;
  {
    std::lock_guard<std::mutex> lk(st.mu);
    epoch = st.epoch;
  }
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - epoch).count();
}

void push_event(Event ev) {
  ThreadBuffer& buf = local_buffer();
  std::lock_guard<std::mutex> lk(buf.mu);
  buf.events.push_back(std::move(ev));
}

struct Paths {
  std::mutex mu;
  std::string trace;
  std::string profile;
};

Paths& paths() {
  static Paths* p = new Paths();
  return *p;
}

}  // namespace

void enable_tracing(bool on) {
  if (on && !trace_enabled()) {
    // Fresh session: restart the clock so timestamps start near zero.
    auto& st = trace_state();
    std::lock_guard<std::mutex> lk(st.mu);
    st.epoch = Clock::now();
  }
  detail::g_trace_enabled.store(on, std::memory_order_relaxed);
}

void init_from_env() {
  const char* t = std::getenv("TSVCOD_TRACE");
  if (t && *t) set_trace_path(t);
  const char* p = std::getenv("TSVCOD_PROFILE");
  if (p && *p) set_profile_path(p);
  const char* s = std::getenv("TSVCOD_SNAPSHOT");
  if (s && *s) {
    std::chrono::milliseconds interval = kDefaultSnapshotInterval;
    // A malformed interval fails fast naming the variable and its value
    // instead of falling back to the default, which would hide a typo.
    if (const char* iv = std::getenv("TSVCOD_SNAPSHOT_INTERVAL"); iv && *iv) {
      interval = parse_snapshot_interval(iv, "TSVCOD_SNAPSHOT_INTERVAL");
    }
    start_snapshots(s, interval);
  }
}

void set_trace_path(std::string path) {
  {
    std::lock_guard<std::mutex> lk(paths().mu);
    paths().trace = std::move(path);
  }
  if (!trace_path().empty()) enable_tracing(true);
}

std::string trace_path() {
  std::lock_guard<std::mutex> lk(paths().mu);
  return paths().trace;
}

void set_profile_path(std::string path) {
  {
    std::lock_guard<std::mutex> lk(paths().mu);
    paths().profile = std::move(path);
  }
  if (!profile_path().empty()) enable_profiling(true);
}

std::string profile_path() {
  std::lock_guard<std::mutex> lk(paths().mu);
  return paths().profile;
}

namespace {

/// Inject the top-level `"clean_exit"` marker as the first key of a rendered
/// JSON object. Only *written* documents carry it — the in-memory
/// `*_to_json()` strings stay untouched so their exact shapes remain stable.
std::string with_clean_exit(const std::string& body, bool clean) {
  if (body.empty() || body.front() != '{') return body;
  std::string marker = "\"clean_exit\":";
  marker += clean ? "true" : "false";
  if (body.size() >= 2 && body[1] != '}') marker += ',';
  return "{" + marker + body.substr(1);
}

}  // namespace

bool flush_outputs(bool clean_exit) {
  bool wrote = false;
  const auto write_file = [](const std::string& path, const std::string& body) {
    std::ofstream os(path);
    if (!os) throw std::runtime_error("obs: cannot open for writing: " + path);
    os << body;
    if (!os) throw std::runtime_error("obs: write failed: " + path);
  };
  if (trace_enabled() && !trace_path().empty()) {
    write_file(trace_path(), with_clean_exit(trace_to_json(), clean_exit));
    wrote = true;
  }
  if (profiling_enabled() && !profile_path().empty()) {
    write_file(profile_path(), with_clean_exit(profile_to_json(ProfileFields::full), clean_exit));
    write_file(profile_path() + ".folded", profile_to_collapsed());
    wrote = true;
  }
  return wrote;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof hex, "\\u%04x", c);
          out += hex;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void Span::begin(const char* name) {
  traced_ = trace_enabled();
  if (traced_) {
    name_ = name;
    start_us_ = now_us();
  }
  if (profiling_enabled()) detail::profile_span_begin(name, prof_);
  active_ = true;
}

void Span::end() {
  if (prof_.node != nullptr) detail::profile_span_end(prof_);
  if (traced_) {
    Event ev;
    ev.name = std::move(name_);
    ev.args = std::move(args_);
    ev.ts_us = start_us_;
    ev.dur_us = now_us() - start_us_;
    ev.ph = 'X';
    push_event(std::move(ev));
  }
  active_ = false;
  traced_ = false;
}

void instant(const char* name, std::string args_body) {
  if (!trace_enabled()) return;
  Event ev;
  ev.name = name;
  ev.args = std::move(args_body);
  ev.ts_us = now_us();
  ev.ph = 'i';
  push_event(std::move(ev));
}

void counter(const char* name, double value) {
  if (!trace_enabled()) return;
  counter(std::string(name), value);
}

void counter(const std::string& name, double value) {
  if (!trace_enabled()) return;
  counter_at(name, value, now_us());
}

void counter_at(const std::string& name, double value, std::int64_t ts_us) {
  if (!trace_enabled()) return;
  Event ev;
  ev.name = name;
  ev.ts_us = ts_us;
  ev.value = value;
  ev.ph = 'C';
  push_event(std::move(ev));
}

std::string trace_to_json() {
  // Steal every buffer's events under its own lock, then render. Callers
  // flush from quiescent points, so the steal sees complete events only.
  std::vector<std::pair<int, Event>> all;
  {
    auto& st = trace_state();
    std::vector<std::shared_ptr<ThreadBuffer>> buffers;
    {
      std::lock_guard<std::mutex> lk(st.mu);
      buffers = st.buffers;
    }
    for (const auto& buf : buffers) {
      std::lock_guard<std::mutex> lk(buf->mu);
      for (const auto& ev : buf->events) all.emplace_back(buf->tid, ev);
    }
  }
  std::stable_sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    return a.second.ts_us != b.second.ts_us ? a.second.ts_us < b.second.ts_us : a.first < b.first;
  });

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const auto& [tid, ev] : all) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"" + json_escape(ev.name) + "\",\"cat\":\"tsvcod\",\"ph\":\"";
    out += ev.ph;
    out += "\",\"pid\":1,\"tid\":" + std::to_string(tid);
    out += ",\"ts\":" + std::to_string(ev.ts_us);
    switch (ev.ph) {
      case 'X':
        out += ",\"dur\":" + std::to_string(ev.dur_us);
        if (!ev.args.empty()) out += ",\"args\":{" + ev.args + "}";
        break;
      case 'i':
        out += ",\"s\":\"t\"";
        if (!ev.args.empty()) out += ",\"args\":{" + ev.args + "}";
        break;
      case 'C':
        out += ",\"args\":{\"value\":" + json_number(ev.value) + "}";
        break;
      default: break;
    }
    out += '}';
  }
  out += "]}";
  return out;
}

void reset_trace() {
  auto& st = trace_state();
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lk(st.mu);
    buffers = st.buffers;
    st.epoch = Clock::now();
  }
  for (const auto& buf : buffers) {
    std::lock_guard<std::mutex> lk(buf->mu);
    buf->events.clear();
  }
}

}  // namespace tsvcod::obs
