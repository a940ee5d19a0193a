#pragma once
// T0 low-power address-bus code.
//
// Classic T0 (Benini et al.): when the value to transmit equals the previous
// value plus a fixed stride (the common case on instruction-address buses),
// the data lines are frozen and a dedicated INC line signals "increment":
// in-sequence runs cause zero switching on the data lines. Combined with the
// bit-to-TSV assignment this gives the sequential-stream workloads of Fig. 2
// a second, orthogonal power lever.

#include "coding/codec.hpp"

namespace tsvcod::coding {

class T0Codec final : public Codec {
 public:
  explicit T0Codec(std::size_t width, std::uint64_t stride = 1);

  std::size_t width_in() const override { return width_; }
  std::size_t width_out() const override { return width_ + 1; }  // + INC line
  using Codec::decode;
  using Codec::encode;
  void encode(std::span<const std::uint64_t> in, std::span<std::uint64_t> out) override;
  void decode(std::span<const std::uint64_t> in, std::span<std::uint64_t> out) override;
  void reset() override;
  std::unique_ptr<Codec> clone() const override { return std::make_unique<T0Codec>(*this); }

  /// The INC flag occupies line `width`: 63 payload bits max.
  static constexpr std::size_t kMaxWidth = 63;

 private:
  std::size_t width_;
  std::uint64_t stride_;
  bool enc_primed_ = false;
  std::uint64_t enc_last_value_ = 0;
  std::uint64_t enc_frozen_lines_ = 0;
  bool dec_primed_ = false;
  std::uint64_t dec_last_value_ = 0;
};

}  // namespace tsvcod::coding
