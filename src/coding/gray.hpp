#pragma once
// Gray coding with optional per-line inversion (paper Sec. 6).
//
// The binary-to-Gray encoder computes Y[n] = X[n] xor X[n+1]; for normally
// distributed data the spatially correlated MSBs become nearly stable at
// logical 0, which lowers switching but *also* lowers the 1-bit
// probabilities — bad for TSVs, where low probability means high MOS
// capacitance. The optimal assignment therefore transmits some Gray lines
// negated; swapping the corresponding XOR for an XNOR in coder and decoder
// realizes this at zero hardware cost. Here that is the `inversion_mask`.

#include "coding/codec.hpp"

namespace tsvcod::coding {

class GrayCodec final : public Codec {
 public:
  explicit GrayCodec(std::size_t width, std::uint64_t inversion_mask = 0);

  std::size_t width_in() const override { return width_; }
  std::size_t width_out() const override { return width_; }
  using Codec::decode;
  using Codec::encode;
  void encode(std::span<const std::uint64_t> in, std::span<std::uint64_t> out) override;
  void decode(std::span<const std::uint64_t> in, std::span<std::uint64_t> out) override;
  void reset() override {}
  std::unique_ptr<Codec> clone() const override { return std::make_unique<GrayCodec>(*this); }

  /// Widest supported word; the code is width-preserving.
  static constexpr std::size_t kMaxWidth = 64;

  /// Plain binary-reflected Gray conversion helpers.
  static std::uint64_t binary_to_gray(std::uint64_t b);
  static std::uint64_t gray_to_binary(std::uint64_t g, std::size_t width);

 private:
  std::size_t width_;
  std::uint64_t mask_;
};

}  // namespace tsvcod::coding
