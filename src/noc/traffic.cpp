#include "noc/traffic.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "opt/parallel.hpp"
#include "streams/image_sensor.hpp"
#include "streams/mems.hpp"
#include "streams/random_streams.hpp"

namespace tsvcod::noc {

namespace {

/// Packs two consecutive 16 b samples of a stream into one 32 b word.
class PackedPairStream final : public streams::WordStream {
 public:
  explicit PackedPairStream(std::unique_ptr<streams::WordStream> inner)
      : inner_(std::move(inner)) {}
  std::size_t width() const override { return 32; }
  std::uint64_t next() override { return inner_->next() | (inner_->next() << 16); }

 private:
  std::unique_ptr<streams::WordStream> inner_;
};

/// Four consecutive luminance bytes of an image per 32 b flit (DMA bursts).
class ImageDmaStream final : public streams::WordStream {
 public:
  explicit ImageDmaStream(std::uint64_t seed) : pixels_(streams::ImageParams{}, seed) {}
  std::size_t width() const override { return 32; }
  std::uint64_t next() override {
    std::uint64_t w = 0;
    for (int k = 0; k < 4; ++k) w |= pixels_.next() << (8 * k);
    return w;
  }

 private:
  streams::GrayscaleStream pixels_;
};

std::unique_ptr<streams::WordStream> make_payload_stream(const TrafficConfig& config,
                                                         std::uint64_t seed) {
  switch (config.payload) {
    case PayloadModel::Random:
      return std::make_unique<streams::UniformRandomStream>(config.flit_width, seed);
    case PayloadModel::Dsp:
      return std::make_unique<PackedPairStream>(
          std::make_unique<streams::GaussianAr1Stream>(16, 1200.0, 0.7, seed));
    case PayloadModel::ImageDma:
      return std::make_unique<ImageDmaStream>(seed);
    case PayloadModel::Mems:
      return std::make_unique<PackedPairStream>(
          std::make_unique<streams::MemsXyzStream>(streams::MemsKind::Accelerometer, seed));
  }
  throw std::logic_error("TrafficGenerator: unknown payload model");
}

}  // namespace

void TrafficConfig::validate() const {
  if (!(injection_rate >= 0.0 && injection_rate <= 1.0)) {
    throw std::invalid_argument("TrafficConfig.injection_rate must be in [0, 1] (got " +
                                std::to_string(injection_rate) + ")");
  }
  if (flit_width == 0 || flit_width > 64) {
    throw std::invalid_argument("TrafficConfig.flit_width must be in [1, 64] (got " +
                                std::to_string(flit_width) + ")");
  }
  const auto finite_nonneg = [](const char* field, double v) {
    if (!(v >= 0.0) || !std::isfinite(v)) {
      throw std::invalid_argument("TrafficConfig." + std::string(field) +
                                  " must be a finite value >= 0 (got " + std::to_string(v) + ")");
    }
  };
  finite_nonneg("burst_on", burst_on);
  finite_nonneg("burst_off", burst_off);
  if ((burst_on > 0.0) != (burst_off > 0.0)) {
    throw std::invalid_argument(
        "TrafficConfig.burst_on and TrafficConfig.burst_off must be set together (got on=" +
        std::to_string(burst_on) + ", off=" + std::to_string(burst_off) + ")");
  }
}

/// Per-node generator state. The RNG is a bare splitmix64 chain — portable,
/// 8 bytes, and statistically independent across nodes by construction.
struct TrafficGenerator::NodeState {
  std::uint64_t rng = 0;
  std::unique_ptr<streams::WordStream> payload;
  bool bursting = true;
  std::uint64_t burst_left = 0;  ///< cycles left in the current on/off phase

  std::uint64_t u64() {
    std::uint64_t z = (rng += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double real01() { return static_cast<double>(u64() >> 11) * 0x1.0p-53; }
  /// Geometric phase length with the given mean (>= 1 cycle).
  std::uint64_t phase_len(double mean) {
    const double u = real01();
    const double p = 1.0 / std::max(1.0, mean);
    return 1 + static_cast<std::uint64_t>(std::log1p(-u) / std::log1p(-p));
  }
};

TrafficGenerator::TrafficGenerator(const Mesh3D& mesh, const TrafficConfig& config)
    : mesh_(mesh), config_(config) {
  config.validate();
  inject_threshold_ =
      static_cast<std::uint64_t>(std::ceil(config.injection_rate * 9007199254740992.0));  // 2^53
  nodes_.resize(mesh.node_count());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    NodeState& st = nodes_[i];
    st.rng = opt::deterministic_seed(config.seed, i);
    st.payload = make_payload_stream(config, opt::deterministic_seed(config.seed ^ 0xF11Dull, i));
    if (config.burst_on > 0.0) {
      // Desynchronize nodes: start in a random phase of the on/off cycle.
      st.bursting = st.real01() < config.burst_on / (config.burst_on + config.burst_off);
      st.burst_left = st.phase_len(st.bursting ? config.burst_on : config.burst_off);
    }
  }
}

TrafficGenerator::~TrafficGenerator() = default;
TrafficGenerator::TrafficGenerator(TrafficGenerator&&) noexcept = default;

NodeId TrafficGenerator::pick_destination(NodeId src, NodeState& st) {
  switch (config_.spatial) {
    case SpatialPattern::Uniform: {
      NodeId dst = mesh_.node(st.u64() % mesh_.node_count());
      while (dst == src) dst = mesh_.node(st.u64() % mesh_.node_count());
      return dst;
    }
    case SpatialPattern::Hotspot: {
      // Fetch from the memory die: same (x, y), top layer.
      NodeId dst{src.x, src.y, mesh_.nz() - 1};
      if (dst == src) dst.z = 0;  // nodes already on top talk to the bottom
      return dst;
    }
    case SpatialPattern::Transpose:
      return NodeId{src.y % mesh_.nx(), src.x % mesh_.ny(), mesh_.nz() - 1 - src.z};
  }
  throw std::logic_error("TrafficGenerator: unknown spatial pattern");
}

std::optional<Flit> TrafficGenerator::generate(std::size_t node_index, std::size_t cycle) {
  NodeState& st = nodes_[node_index];
  if (config_.burst_on > 0.0) {
    if (st.burst_left == 0) {
      st.bursting = !st.bursting;
      st.burst_left = st.phase_len(st.bursting ? config_.burst_on : config_.burst_off);
    }
    --st.burst_left;
    if (!st.bursting) {
      // Keep the injection draw consumed so a node's stream position depends
      // only on the cycle count, never on the burst phase sequence.
      st.u64();
      return std::nullopt;
    }
  }
  if ((st.u64() >> 11) >= inject_threshold_) return std::nullopt;
  const NodeId node = mesh_.node(node_index);
  const NodeId dst = pick_destination(node, st);
  if (dst == node) return std::nullopt;  // degenerate transpose fixed points
  Flit f;
  f.payload = st.payload->next() & streams::width_mask(config_.flit_width);
  f.src = node;
  f.dst = dst;
  f.injected_at = cycle;
  return f;
}

}  // namespace tsvcod::noc
