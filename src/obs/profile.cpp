#include "obs/profile.hpp"

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/perf_counters.hpp"

namespace tsvcod::obs {

namespace detail {

std::atomic<bool> g_profile_enabled{false};

/// One node per distinct span *path*. `count`, `total_ns` and the perf
/// totals are atomics so concurrent spans on the same path (e.g. parallel
/// chains adopted under one parent) accumulate without the tree lock; the
/// `children` / `work` maps mutate only under the global tree mutex.
struct ProfileNode {
  std::string name;
  ProfileNode* parent = nullptr;
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> total_ns{0};
  std::atomic<std::uint64_t> perf[kPerfCounterCount] = {};
  std::map<std::string, ProfileNode*, std::less<>> children;
  std::map<std::string, std::atomic<std::uint64_t>, std::less<>> work;
};

}  // namespace detail

namespace {

using detail::ProfileNode;

struct ProfileState {
  std::mutex mu;  // guards children/work map mutation and whole-tree walks
  ProfileNode root;
};

ProfileState& profile_state() {
  static ProfileState* state = new ProfileState();  // leaked: usable at any exit stage
  return *state;
}

// Innermost open profiled span on this thread; nullptr = root. Returns to
// nullptr whenever the thread is quiescent (Span and ProfileTaskScope are
// strictly nested RAII), which is what makes reset_profile safe.
thread_local ProfileNode* t_current = nullptr;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t self_ns_of(const ProfileNode& node) {
  std::uint64_t children_total = 0;
  for (const auto& [name, child] : node.children) {
    children_total += child->total_ns.load(std::memory_order_relaxed);
  }
  const std::uint64_t total = node.total_ns.load(std::memory_order_relaxed);
  // Parallel children adopted under one logical parent overlap in wall time,
  // so their sum can exceed the parent: clamp instead of going negative.
  return total > children_total ? total - children_total : 0;
}

void node_to_json(const ProfileNode& node, ProfileFields fields, std::string& out) {
  out += "{\"name\":\"" + json_escape(node.name) + "\",\"count\":";
  out += std::to_string(node.count.load(std::memory_order_relaxed));
  if (fields == ProfileFields::full) {
    out += ",\"total_ns\":" + std::to_string(node.total_ns.load(std::memory_order_relaxed));
    out += ",\"self_ns\":" + std::to_string(self_ns_of(node));
    for (int i = 0; i < kPerfCounterCount; ++i) {
      out += ",\"";
      out += perf_counter_name(i);
      out += "\":" + std::to_string(node.perf[i].load(std::memory_order_relaxed));
    }
  }
  out += ",\"work\":{";
  bool first = true;
  for (const auto& [name, amount] : node.work) {
    if (!first) out += ',';
    first = false;
    out += '"' + json_escape(name) + "\":";
    out += std::to_string(amount.load(std::memory_order_relaxed));
  }
  out += "},\"children\":[";
  first = true;
  for (const auto& [name, child] : node.children) {
    if (!first) out += ',';
    first = false;
    node_to_json(*child, fields, out);
  }
  out += "]}";
}

void node_to_collapsed(const ProfileNode& node, const std::string& prefix, std::string& out) {
  std::string path = prefix.empty() ? node.name : prefix + ";" + node.name;
  out += path;
  out += ' ';
  out += std::to_string(self_ns_of(node));
  out += '\n';
  for (const auto& [name, child] : node.children) node_to_collapsed(*child, path, out);
}

void delete_subtree(ProfileNode* node) {
  for (auto& [name, child] : node->children) {
    delete_subtree(child);
    delete child;
  }
  node->children.clear();
}

}  // namespace

void enable_profiling(bool on) {
  detail::g_profile_enabled.store(on, std::memory_order_relaxed);
}

ProfileToken profile_current() { return t_current; }

namespace detail {

void profile_span_begin(const char* name, ProfileHandle& h) {
  auto& st = profile_state();
  ProfileNode* parent = t_current != nullptr ? t_current : &st.root;
  ProfileNode* node = nullptr;
  {
    std::lock_guard<std::mutex> lk(st.mu);
    auto it = parent->children.find(name);
    if (it != parent->children.end()) {
      node = it->second;
    } else {
      node = new ProfileNode();
      node->name = name;
      node->parent = parent;
      parent->children.emplace(name, node);
    }
  }
  node->count.fetch_add(1, std::memory_order_relaxed);
  h.node = node;
  h.t0_ns = now_ns();
  h.perf_ok = perf_read_counters(h.perf0);
  t_current = node;
}

void profile_span_end(ProfileHandle& h) {
  ProfileNode* node = h.node;
  const std::int64_t dt = now_ns() - h.t0_ns;
  if (dt > 0) node->total_ns.fetch_add(static_cast<std::uint64_t>(dt), std::memory_order_relaxed);
  if (h.perf_ok) {
    std::uint64_t now[kPerfCounterCount];
    if (perf_read_counters(now)) {
      for (int i = 0; i < kPerfCounterCount; ++i) {
        // Multiplex scaling is not strictly monotonic: skip negative deltas.
        if (now[i] > h.perf0[i]) {
          node->perf[i].fetch_add(now[i] - h.perf0[i], std::memory_order_relaxed);
        }
      }
    }
  }
  t_current = node->parent != &profile_state().root ? node->parent : nullptr;
  h.node = nullptr;
}

ProfileNode* profile_adopt(ProfileNode* parent) {
  ProfileNode* previous = t_current;
  t_current = parent;
  return previous;
}

void profile_restore(ProfileNode* previous) { t_current = previous; }

}  // namespace detail

void profile_work(const char* name, std::uint64_t amount) {
  if (!profiling_enabled()) return;
  ProfileNode* node = t_current;
  if (node == nullptr) return;
  auto& st = profile_state();
  std::atomic<std::uint64_t>* slot = nullptr;
  {
    std::lock_guard<std::mutex> lk(st.mu);
    slot = &node->work[name];  // map nodes are pointer-stable
  }
  slot->fetch_add(amount, std::memory_order_relaxed);
}

std::string profile_to_json(ProfileFields fields) {
  auto& st = profile_state();
  std::lock_guard<std::mutex> lk(st.mu);
  std::string out = "{\"schema\":\"tsvcod.profile.v1\",\"fields\":\"";
  out += fields == ProfileFields::full ? "full" : "deterministic";
  out += '"';
  if (fields == ProfileFields::full) {
    const PerfAvailability& perf = perf_availability();
    out += ",\"perf_counters\":{\"available\":";
    out += perf.available ? "true" : "false";
    out += ",\"reason\":\"" + json_escape(perf.reason) + "\"}";
  }
  out += ",\"roots\":[";
  bool first = true;
  for (const auto& [name, child] : st.root.children) {
    if (!first) out += ',';
    first = false;
    node_to_json(*child, fields, out);
  }
  out += "]}";
  return out;
}

std::string profile_to_collapsed() {
  auto& st = profile_state();
  std::lock_guard<std::mutex> lk(st.mu);
  std::string out;
  for (const auto& [name, child] : st.root.children) node_to_collapsed(*child, "", out);
  return out;
}

void reset_profile() {
  auto& st = profile_state();
  std::lock_guard<std::mutex> lk(st.mu);
  delete_subtree(&st.root);
  st.root.count.store(0, std::memory_order_relaxed);
  st.root.total_ns.store(0, std::memory_order_relaxed);
  for (auto& p : st.root.perf) p.store(0, std::memory_order_relaxed);
  st.root.work.clear();
}

}  // namespace tsvcod::obs
