#include "coding/gray.hpp"

#include <stdexcept>

namespace tsvcod::coding {

namespace {
/// Gray to binary: each bit XORs every bit at or above it, a prefix XOR in six
/// doubling steps. Exact for words masked to the width, as decode's are.
std::uint64_t gray_to_binary(std::uint64_t g) {
  for (unsigned shift = 1; shift < 64; shift <<= 1) g ^= g >> shift;
  return g;
}
}  // namespace

GrayCodec::GrayCodec(std::size_t width, std::uint64_t inversion_mask)
    : width_(width), mask_(inversion_mask & streams::width_mask(width)) {
  if (width == 0 || width > kMaxWidth) {
    throw std::invalid_argument("GrayCodec: width " + std::to_string(width) +
                                " out of range [1, " + std::to_string(kMaxWidth) + "]");
  }
}

std::uint64_t GrayCodec::binary_to_gray(std::uint64_t b) { return b ^ (b >> 1); }

void GrayCodec::encode(std::span<const std::uint64_t> in, std::span<std::uint64_t> out) {
  const std::uint64_t wm = streams::width_mask(width_);
  for (std::size_t k = 0; k < in.size(); ++k) {
    out[k] = (binary_to_gray(in[k] & wm) ^ mask_) & wm;
  }
}

void GrayCodec::decode(std::span<const std::uint64_t> in, std::span<std::uint64_t> out) {
  const std::uint64_t wm = streams::width_mask(width_);
  for (std::size_t k = 0; k < in.size(); ++k) {
    out[k] = gray_to_binary((in[k] ^ mask_) & wm);
  }
}

}  // namespace tsvcod::coding
