#include "coding/correlator.hpp"

#include <stdexcept>

namespace tsvcod::coding {

CorrelatorCodec::CorrelatorCodec(std::size_t width, std::size_t period,
                                 std::uint64_t inversion_mask)
    : width_(width),
      period_(period),
      mask_(inversion_mask & streams::width_mask(width)),
      enc_history_(period, 0),
      dec_history_(period, 0) {
  if (width == 0 || width > kMaxWidth) {
    throw std::invalid_argument("CorrelatorCodec: width " + std::to_string(width) +
                                " out of range [1, " + std::to_string(kMaxWidth) + "]");
  }
  if (period == 0) throw std::invalid_argument("CorrelatorCodec: period must be > 0");
}

void CorrelatorCodec::encode(std::span<const std::uint64_t> in, std::span<std::uint64_t> out) {
  const std::uint64_t wm = streams::width_mask(width_);
  const std::uint64_t mask = mask_;
  const std::size_t period = period_;
  std::uint64_t* history = enc_history_.data();
  std::size_t pos = enc_pos_;
  for (std::size_t k = 0; k < in.size(); ++k) {
    const std::uint64_t word = in[k] & wm;
    const std::uint64_t prev = history[pos];
    history[pos] = word;
    if (++pos == period) pos = 0;
    out[k] = (word ^ prev ^ mask) & wm;
  }
  enc_pos_ = pos;
}

void CorrelatorCodec::decode(std::span<const std::uint64_t> in, std::span<std::uint64_t> out) {
  const std::uint64_t wm = streams::width_mask(width_);
  const std::uint64_t mask = mask_;
  const std::size_t period = period_;
  std::uint64_t* history = dec_history_.data();
  std::size_t pos = dec_pos_;
  for (std::size_t k = 0; k < in.size(); ++k) {
    const std::uint64_t word = (in[k] ^ mask ^ history[pos]) & wm;
    history[pos] = word;
    if (++pos == period) pos = 0;
    out[k] = word;
  }
  dec_pos_ = pos;
}

void CorrelatorCodec::reset() {
  enc_history_.assign(period_, 0);
  dec_history_.assign(period_, 0);
  enc_pos_ = dec_pos_ = 0;
}

}  // namespace tsvcod::coding
