#include "coding/t0.hpp"

#include <stdexcept>

namespace tsvcod::coding {

T0Codec::T0Codec(std::size_t width, std::uint64_t stride) : width_(width), stride_(stride) {
  if (width == 0 || width > kMaxWidth) {
    throw std::invalid_argument("T0Codec: width " + std::to_string(width) +
                                " out of range [1, " + std::to_string(kMaxWidth) +
                                "] (the INC flag occupies one extra line)");
  }
  if (stride == 0) throw std::invalid_argument("T0Codec: stride must be nonzero");
}

void T0Codec::encode(std::span<const std::uint64_t> in, std::span<std::uint64_t> out) {
  const std::uint64_t wm = streams::width_mask(width_);
  const std::uint64_t inc_bit = std::uint64_t{1} << width_;
  bool primed = enc_primed_;
  std::uint64_t last = enc_last_value_;
  std::uint64_t frozen = enc_frozen_lines_;
  for (std::size_t k = 0; k < in.size(); ++k) {
    const std::uint64_t word = in[k] & wm;
    if (primed && word == ((last + stride_) & wm)) {
      out[k] = frozen | inc_bit;  // data lines frozen, INC set
    } else {
      frozen = word;
      out[k] = word;
    }
    last = word;
    primed = true;
  }
  enc_primed_ = primed;
  enc_last_value_ = last;
  enc_frozen_lines_ = frozen;
}

void T0Codec::decode(std::span<const std::uint64_t> in, std::span<std::uint64_t> out) {
  const std::uint64_t wm = streams::width_mask(width_);
  // An unprimed decoder primes on the first word it decodes, so a throw
  // below can only come before any word of this span changed the state.
  bool primed = dec_primed_;
  std::uint64_t last = dec_last_value_;
  for (std::size_t k = 0; k < in.size(); ++k) {
    if ((in[k] >> width_) & 1u) {
      if (!primed) throw std::logic_error("T0Codec: INC before any absolute value");
      last = (last + stride_) & wm;
    } else {
      last = in[k] & wm;
    }
    primed = true;
    out[k] = last;
  }
  dec_primed_ = primed;
  dec_last_value_ = last;
}

void T0Codec::reset() {
  enc_primed_ = dec_primed_ = false;
  enc_last_value_ = dec_last_value_ = 0;
  enc_frozen_lines_ = 0;
}

}  // namespace tsvcod::coding
