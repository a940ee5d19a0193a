#include "serve/server.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "core/power.hpp"
#include "obs/obs.hpp"
#include "obs/profile.hpp"
#include "opt/parallel.hpp"

namespace tsvcod::serve {

namespace {
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(b - a).count();
}

void add_snapshot(Server::Totals& t, const SessionSnapshot& snap) {
  t.batches += snap.batches;
  t.words += snap.words;
  t.desyncs += snap.desyncs;
  t.trips += snap.trips;
  t.swaps += snap.swaps;
}
}  // namespace

std::string SwapEvent::to_json() const {
  std::string out = "{\"event\":\"swap\",\"session\":" + std::to_string(session);
  out += ",\"installed\":";
  out += installed ? "true" : "false";
  out += ",\"drift\":" + obs::json_number(drift);
  out += ",\"power_before\":" + obs::json_number(power_before);
  out += ",\"power_after\":" + obs::json_number(power_after);
  out += ",\"improvement_pct\":" +
         obs::json_number(power_before > 0.0 ? (1.0 - power_after / power_before) * 100.0 : 0.0);
  out += ",\"swap_latency_ms\":" + obs::json_number(latency_ms);
  out += ",\"words_at_trip\":" + std::to_string(words_at_trip);
  out += ",\"evaluations\":" + std::to_string(evaluations);
  out += '}';
  return out;
}

Server::Server() {
  // A re-anneal can start while the producer keeps ingesting.
  opt::ThreadPool::shared().ensure_workers(1);
}

Server::~Server() { drain(); }

void Server::open_session(std::uint64_t id, SessionConfig config) {
  obs::Span span("serve.open");
  auto session = std::make_shared<Session>(id, std::move(config));
  std::lock_guard<std::mutex> lk(sessions_mu_);
  if (!sessions_.emplace(id, std::move(session)).second) {
    throw std::invalid_argument("serve: session " + std::to_string(id) + " is already open");
  }
  ++sessions_opened_;
}

std::shared_ptr<Session> Server::find_session(std::uint64_t id) const {
  std::lock_guard<std::mutex> lk(sessions_mu_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    throw std::invalid_argument("serve: unknown session " + std::to_string(id));
  }
  return it->second;
}

void Server::ingest(std::uint64_t id, std::span<const std::uint64_t> words) {
  std::shared_ptr<Session> session = find_session(id);
  // The span closes before the re-anneal is scheduled, so the re-anneal job
  // is the batch's sibling in the profile, not its child.
  Session::IngestResult result = [&] {
    obs::Span span("serve.batch");
    Session::IngestResult r = session->ingest(words);
    obs::profile_work("words", words.size());
    if (r.new_desyncs > 0) obs::profile_work("desyncs", r.new_desyncs);
    if (r.tripped) obs::profile_work("trips", 1);
    return r;
  }();
  if (result.tripped) schedule_reanneal(std::move(session), std::move(result));
}

void Server::schedule_reanneal(std::shared_ptr<Session> session, Session::IngestResult trip) {
  {
    std::lock_guard<std::mutex> lk(idle_mu_);
    ++reanneals_inflight_;
  }
  const Clock::time_point tripped_at = Clock::now();
  opt::ThreadPool::shared().submit(
      [this, session = std::move(session), trip = std::move(trip), tripped_at,
       parent = obs::profile_current()] {
        obs::ProfileTaskScope scope(parent);
        {
          // Closed before the in-flight count drops, so drain() never
          // returns with the span still open.
          obs::Span span("serve.reanneal");
          try {
            const core::OptimizeResult annealed = core::optimize_assignment(
                trip.window_stats, session->model(), session->optimize_options());
            SwapEvent event;
            event.session = session->id();
            event.drift = trip.drift;
            event.words_at_trip = trip.words_at_trip;
            event.evaluations = annealed.evaluations;
            event.power_before =
                core::assignment_power(trip.window_stats, trip.current, session->model());
            event.power_after = annealed.power;
            event.installed = session->install(annealed.assignment);
            event.latency_ms = ms_between(tripped_at, Clock::now());
            if (event.installed) obs::profile_work("swaps", 1);
            std::lock_guard<std::mutex> lk(events_mu_);
            swaps_.push_back(std::move(event));
          } catch (const std::exception& e) {
            session->abandon_reanneal();
            obs::profile_work("failures", 1);
            std::lock_guard<std::mutex> lk(events_mu_);
            errors_.push_back("session " + std::to_string(session->id()) +
                              " re-anneal failed: " + e.what());
          }
        }
        std::lock_guard<std::mutex> lk(idle_mu_);
        if (--reanneals_inflight_ == 0) idle_cv_.notify_all();
      });
}

void Server::drain() {
  auto& pool = opt::ThreadPool::shared();
  for (;;) {
    {
      std::lock_guard<std::mutex> lk(idle_mu_);
      if (reanneals_inflight_ == 0) return;
    }
    // Help run queued jobs instead of sleeping: drain() then completes even
    // when every pool worker is parked inside a long re-anneal.
    if (!pool.try_run_one()) {
      std::unique_lock<std::mutex> lk(idle_mu_);
      idle_cv_.wait_for(lk, std::chrono::milliseconds(1),
                        [&] { return reanneals_inflight_ == 0; });
      if (reanneals_inflight_ == 0) return;
    }
  }
}

SessionSnapshot Server::session_stats(std::uint64_t id) const {
  return find_session(id)->snapshot();
}

SessionSnapshot Server::close_session(std::uint64_t id) {
  std::shared_ptr<Session> session = find_session(id);  // throws early on bad id
  drain();  // every in-flight re-anneal for it has landed
  SessionSnapshot snap = session->snapshot();
  std::lock_guard<std::mutex> lk(sessions_mu_);
  sessions_.erase(id);
  add_snapshot(closed_, snap);
  return snap;
}

std::vector<SwapEvent> Server::poll_swaps() {
  std::lock_guard<std::mutex> lk(events_mu_);
  return std::exchange(swaps_, {});
}

std::vector<std::string> Server::poll_errors() {
  std::lock_guard<std::mutex> lk(events_mu_);
  return std::exchange(errors_, {});
}

Server::Totals Server::totals() const {
  std::lock_guard<std::mutex> lk(sessions_mu_);
  Totals t = closed_;
  t.sessions_opened = sessions_opened_;
  for (const auto& [id, session] : sessions_) add_snapshot(t, session->snapshot());
  return t;
}

}  // namespace tsvcod::serve
