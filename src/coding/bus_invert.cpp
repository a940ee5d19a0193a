#include "coding/bus_invert.hpp"

#include <stdexcept>

#include "coding/popcount.hpp"

namespace tsvcod::coding {

BusInvertCodec::BusInvertCodec(std::size_t width) : width_(width) {
  if (width == 0 || width > kMaxWidth) {
    throw std::invalid_argument("BusInvertCodec: width " + std::to_string(width) +
                                " out of range [1, " + std::to_string(kMaxWidth) +
                                "] (the invert flag occupies one extra line)");
  }
}

namespace {

/// Both invert codecs' decoder: the flag on line `width` says whether the
/// data lines were sent complemented. The flag is random on random data, so
/// it selects by mask arithmetic, not by a branch.
void decode_flagged(std::size_t width, std::span<const std::uint64_t> in,
                    std::span<std::uint64_t> out) {
  const std::uint64_t wm = streams::width_mask(width);
  for (std::size_t k = 0; k < in.size(); ++k) {
    const std::uint64_t invert = (in[k] >> width) & 1u;
    out[k] = (in[k] & wm) ^ (wm & (0 - invert));
  }
}

}  // namespace

void BusInvertCodec::encode(std::span<const std::uint64_t> in, std::span<std::uint64_t> out) {
  const std::size_t width = width_;
  const std::uint64_t wm = streams::width_mask(width);
  const int half = static_cast<int>(width) / 2;
  std::uint64_t prev = prev_out_;
  for (std::size_t k = 0; k < in.size(); ++k) {
    const std::uint64_t word = in[k] & wm;
    const std::uint64_t invert = popcount64(word ^ prev) > half;
    prev = word ^ (wm & (0 - invert));
    out[k] = prev | (invert << width);
  }
  prev_out_ = prev;
}

void BusInvertCodec::decode(std::span<const std::uint64_t> in, std::span<std::uint64_t> out) {
  decode_flagged(width_, in, out);
}

void BusInvertCodec::reset() { prev_out_ = 0; }

CouplingInvertCodec::CouplingInvertCodec(std::size_t width, double lambda)
    : width_(width), lambda_(lambda) {
  if (width == 0 || width > kMaxWidth) {
    throw std::invalid_argument("CouplingInvertCodec: width " + std::to_string(width) +
                                " out of range [1, " + std::to_string(kMaxWidth) +
                                "] (the invert flag occupies one extra line)");
  }
  if (lambda < 0.0) throw std::invalid_argument("CouplingInvertCodec: lambda must be >= 0");
}

double CouplingInvertCodec::transition_cost(std::uint64_t from, std::uint64_t to) const {
  const std::size_t lines = width_ + 1;  // data + flag, laid out side by side
  double cost = 0.0;
  int prev_db = 0;
  for (std::size_t i = 0; i < lines; ++i) {
    const int db = static_cast<int>((to >> i) & 1u) - static_cast<int>((from >> i) & 1u);
    cost += static_cast<double>(db * db);
    if (i > 0) {
      const int d = db - prev_db;
      cost += lambda_ * static_cast<double>(d * d);
    }
    prev_db = db;
  }
  return cost;
}

void CouplingInvertCodec::encode(std::span<const std::uint64_t> in,
                                 std::span<std::uint64_t> out) {
  const std::uint64_t wm = streams::width_mask(width_);
  std::uint64_t prev = prev_code_;
  for (std::size_t k = 0; k < in.size(); ++k) {
    const std::uint64_t plain = in[k] & wm;
    const std::uint64_t flipped = (~plain & wm) | (std::uint64_t{1} << width_);
    prev = transition_cost(prev, flipped) < transition_cost(prev, plain) ? flipped : plain;
    out[k] = prev;
  }
  prev_code_ = prev;
}

void CouplingInvertCodec::decode(std::span<const std::uint64_t> in,
                                 std::span<std::uint64_t> out) {
  decode_flagged(width_, in, out);
}

void CouplingInvertCodec::reset() { prev_code_ = 0; }

}  // namespace tsvcod::coding
