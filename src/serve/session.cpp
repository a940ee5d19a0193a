#include "serve/session.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "obs/obs.hpp"

namespace tsvcod::serve {

namespace {

/// Uncoded link: the assignment still permutes/inverts, the codec is a
/// passthrough. Lets every session run the same CodedLink machinery (and the
/// same hot-swap path) whether or not a real codec is configured.
class IdentityCodec final : public coding::Codec {
 public:
  explicit IdentityCodec(std::size_t width) : width_(width) {}
  std::size_t width_in() const override { return width_; }
  std::size_t width_out() const override { return width_; }
  void encode(std::span<const std::uint64_t> in, std::span<std::uint64_t> out) override {
    pass(in, out);
  }
  void decode(std::span<const std::uint64_t> in, std::span<std::uint64_t> out) override {
    pass(in, out);
  }
  void reset() override {}
  std::unique_ptr<Codec> clone() const override { return std::make_unique<IdentityCodec>(width_); }

 private:
  static void pass(std::span<const std::uint64_t> in, std::span<std::uint64_t> out) {
    for (std::size_t k = 0; k < in.size(); ++k) out[k] = in[k];
  }

  std::size_t width_;
};

std::unique_ptr<coding::Codec> build_codec(const SessionConfig& config) {
  if (config.codec.name.empty() || config.codec.name == "none") {
    return std::make_unique<IdentityCodec>(config.width);
  }
  auto codec = coding::make_codec(config.codec, config.width);
  if (codec->width_out() != config.width) {
    throw std::invalid_argument(
        "serve: codec '" + config.codec.name + "' expands " + std::to_string(config.width) +
        " payload bits to " + std::to_string(codec->width_out()) +
        " lines; the service only accepts width-preserving codecs (gray, correlator, t0, none) "
        "so a hot-swapped assignment never changes the line count");
  }
  return codec;
}

core::CodedLink build_link(const SessionConfig& config) {
  return core::CodedLink(core::SignedPermutation::identity(config.width), build_codec(config));
}

SessionConfig validated(SessionConfig config) {
  if (config.width < 1 || config.width > 64) {
    throw std::invalid_argument("serve: session width must be in [1, 64], got " +
                                std::to_string(config.width));
  }
  if (config.model.size() != config.width) {
    throw std::invalid_argument("serve: capacitance model size " +
                                std::to_string(config.model.size()) +
                                " does not match session width " + std::to_string(config.width));
  }
  if (config.drift.window_words < 2) {
    throw std::invalid_argument("serve: drift window must be >= 2 words, got " +
                                std::to_string(config.drift.window_words));
  }
  if (!std::isfinite(config.drift.threshold) || config.drift.threshold < 0.0) {
    throw std::invalid_argument(
        "serve: drift threshold must be a finite number >= 0 (0 = off), got " +
        std::to_string(config.drift.threshold));
  }
  config.optimize.validate(config.width);
  return config;
}

}  // namespace

double drift_metric(const stats::SwitchingStats& window, const stats::SwitchingStats& longrun) {
  if (window.width != longrun.width) {
    throw std::invalid_argument("drift_metric: width mismatch (" + std::to_string(window.width) +
                                " vs " + std::to_string(longrun.width) + ")");
  }
  const std::size_t w = window.width;
  double self_sum = 0.0;
  double prob_sum = 0.0;
  for (std::size_t i = 0; i < w; ++i) {
    self_sum += std::abs(window.self[i] - longrun.self[i]);
    prob_sum += std::abs(window.prob_one[i] - longrun.prob_one[i]);
  }
  double coupling_sum = 0.0;
  for (std::size_t i = 0; i < w; ++i) {
    for (std::size_t j = i + 1; j < w; ++j) {
      coupling_sum += std::abs(window.coupling(i, j) - longrun.coupling(i, j));
    }
  }
  const double pairs = static_cast<double>(w) * static_cast<double>(w - 1) / 2.0;
  double metric = (self_sum + prob_sum) / static_cast<double>(w);
  if (pairs > 0.0) metric += coupling_sum / pairs;
  return metric;
}

std::string SessionSnapshot::to_json() const {
  std::string out = "{\"session\":" + std::to_string(id);
  out += ",\"width\":" + std::to_string(width);
  out += ",\"words\":" + std::to_string(words);
  out += ",\"batches\":" + std::to_string(batches);
  out += ",\"windows\":" + std::to_string(windows);
  out += ",\"desyncs\":" + std::to_string(desyncs);
  out += ",\"trips\":" + std::to_string(trips);
  out += ",\"swaps\":" + std::to_string(swaps);
  out += ",\"drift\":" + obs::json_number(last_drift);
  out += ",\"transitions\":" + std::to_string(longrun.transitions);
  out += '}';
  return out;
}

Session::Session(std::uint64_t id, SessionConfig config)
    : id_(id),
      config_(validated(std::move(config))),
      link_(build_link(config_)),
      longrun_(config_.width),
      window_(config_.width, config_.stats_threads) {}

bool Session::window_boundary_locked(IngestResult& out) {
  ++windows_;
  const stats::SwitchingStats window_stats = window_.counts().finalize();
  longrun_.merge(window_.counts());
  const stats::SwitchingStats longrun_stats = longrun_.finalize();
  const double drift = drift_metric(window_stats, longrun_stats);
  last_drift_ = drift;

  bool tripped = false;
  const std::uint64_t cooldown = config_.drift.cooldown_words != 0
                                     ? config_.drift.cooldown_words
                                     : config_.drift.window_words;
  if (!out.tripped && config_.drift.threshold > 0.0 && drift > config_.drift.threshold &&
      !reanneal_inflight_ && words_ - words_at_last_swap_ >= cooldown) {
    out.tripped = true;
    out.drift = drift;
    out.window_stats = window_stats;
    out.current = link_.assignment_snapshot();
    out.words_at_trip = words_;
    reanneal_inflight_ = true;
    ++trips_;
    tripped = true;
  }
  window_.reset_window();
  return tripped;
}

Session::IngestResult Session::ingest(std::span<const std::uint64_t> words) {
  IngestResult out;

  std::lock_guard<std::mutex> lk(mu_);
  ++batches_;
  const std::uint64_t desyncs_before = desyncs_;

  std::size_t offset = 0;
  while (offset < words.size()) {
    const std::uint64_t in_window = window_.words();
    const std::uint64_t room = config_.drift.window_words - in_window;
    const std::size_t take =
        static_cast<std::size_t>(std::min<std::uint64_t>(room, words.size() - offset));
    const std::span<const std::uint64_t> chunk = words.subspan(offset, take);

    // Traffic first (every word decode-verified, one link lock per chunk),
    // then the vectorized fold.
    desyncs_ += link_.roundtrip(chunk);
    window_.fold(chunk);
    words_ += take;
    offset += take;

    if (window_.words() >= config_.drift.window_words) window_boundary_locked(out);
  }
  out.new_desyncs = desyncs_ - desyncs_before;
  return out;
}

bool Session::install(const core::SignedPermutation& next) {
  std::lock_guard<std::mutex> lk(mu_);
  if (!reanneal_inflight_) return false;  // abandoned or never tripped
  link_.reset(next);
  ++swaps_;
  words_at_last_swap_ = words_;
  reanneal_inflight_ = false;
  return true;
}

void Session::abandon_reanneal() {
  std::lock_guard<std::mutex> lk(mu_);
  reanneal_inflight_ = false;
}

SessionSnapshot Session::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  SessionSnapshot snap;
  snap.id = id_;
  snap.width = config_.width;
  snap.words = words_;
  snap.batches = batches_;
  snap.windows = windows_;
  snap.desyncs = desyncs_;
  snap.trips = trips_;
  snap.swaps = swaps_;
  snap.last_drift = last_drift_;
  snap.longrun = longrun_;
  snap.longrun.merge(window_.counts());  // fold the partial window in
  return snap;
}

}  // namespace tsvcod::serve
