#include "coding/gray.hpp"

#include <stdexcept>

namespace tsvcod::coding {

GrayCodec::GrayCodec(std::size_t width, std::uint64_t inversion_mask)
    : width_(width), mask_(inversion_mask & streams::width_mask(width)) {
  if (width == 0 || width > kMaxWidth) {
    throw std::invalid_argument("GrayCodec: width " + std::to_string(width) +
                                " out of range [1, " + std::to_string(kMaxWidth) + "]");
  }
}

std::uint64_t GrayCodec::binary_to_gray(std::uint64_t b) { return b ^ (b >> 1); }

std::uint64_t GrayCodec::gray_to_binary(std::uint64_t g, std::size_t width) {
  std::uint64_t b = 0;
  for (std::size_t shift = 0; shift < width; ++shift) b ^= g >> shift;
  return b & streams::width_mask(width);
}

void GrayCodec::encode(std::span<const std::uint64_t> in, std::span<std::uint64_t> out) {
  const std::uint64_t wm = streams::width_mask(width_);
  for (std::size_t k = 0; k < in.size(); ++k) {
    out[k] = (binary_to_gray(in[k] & wm) ^ mask_) & wm;
  }
}

void GrayCodec::decode(std::span<const std::uint64_t> in, std::span<std::uint64_t> out) {
  const std::uint64_t wm = streams::width_mask(width_);
  for (std::size_t k = 0; k < in.size(); ++k) {
    out[k] = gray_to_binary((in[k] ^ mask_) & wm, width_);
  }
}

}  // namespace tsvcod::coding
