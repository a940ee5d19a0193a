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

std::uint64_t CorrelatorCodec::encode(std::uint64_t word) {
  word &= streams::width_mask(width_);
  const std::uint64_t prev = enc_history_[enc_pos_];
  enc_history_[enc_pos_] = word;
  if (++enc_pos_ == period_) enc_pos_ = 0;
  return (word ^ prev ^ mask_) & streams::width_mask(width_);
}

std::uint64_t CorrelatorCodec::decode(std::uint64_t code) {
  code &= streams::width_mask(width_);
  const std::uint64_t prev = dec_history_[dec_pos_];
  const std::uint64_t word = (code ^ mask_ ^ prev) & streams::width_mask(width_);
  dec_history_[dec_pos_] = word;
  if (++dec_pos_ == period_) dec_pos_ = 0;
  return word;
}

void CorrelatorCodec::reset() {
  enc_history_.assign(period_, 0);
  dec_history_.assign(period_, 0);
  enc_pos_ = dec_pos_ = 0;
}

}  // namespace tsvcod::coding
