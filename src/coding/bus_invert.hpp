#pragma once
// Bus-invert family codecs.
//
//  * BusInvertCodec — classic Stan/Burleson bus-invert: transmit the word or
//    its complement, whichever toggles fewer lines; one flag line is added.
//  * CouplingInvertCodec — coupling-driven invert for 2-D metal buses
//    (Palesi et al., paper reference [24]): the invert decision minimizes a
//    coupling-aware cost on *adjacent wire pairs* — the (db_i - db_j)^2
//    energy of a homogeneous planar bus plus the self term. The paper's last
//    experiment transmits such 2-D-encoded data over a TSV array, where the
//    code is intrinsically mismatched and our assignment recovers power.
//
// Both append the decision flag as the MSB of the output word.

#include "coding/codec.hpp"

namespace tsvcod::coding {

class BusInvertCodec final : public Codec {
 public:
  explicit BusInvertCodec(std::size_t width);

  std::size_t width_in() const override { return width_; }
  std::size_t width_out() const override { return width_ + 1; }
  using Codec::decode;
  using Codec::encode;
  void encode(std::span<const std::uint64_t> in, std::span<std::uint64_t> out) override;
  void decode(std::span<const std::uint64_t> in, std::span<std::uint64_t> out) override;
  void reset() override;
  std::unique_ptr<Codec> clone() const override {
    return std::make_unique<BusInvertCodec>(*this);
  }

  /// Widest supported payload: the invert flag occupies line `width`, and the
  /// full code word must still fit a 64-bit word, so 63 payload bits max
  /// (one less than the width-preserving codecs).
  static constexpr std::size_t kMaxWidth = 63;

 private:
  std::size_t width_;
  std::uint64_t prev_out_ = 0;  ///< previously transmitted data lines
};

class CouplingInvertCodec final : public Codec {
 public:
  /// Cost weights of the planar-bus model: lambda weighs coupling energy
  /// (db_i - db_j)^2 on adjacent pairs against self energy db_i^2.
  explicit CouplingInvertCodec(std::size_t width, double lambda = 2.0);

  std::size_t width_in() const override { return width_; }
  std::size_t width_out() const override { return width_ + 1; }
  using Codec::decode;
  using Codec::encode;
  void encode(std::span<const std::uint64_t> in, std::span<std::uint64_t> out) override;
  void decode(std::span<const std::uint64_t> in, std::span<std::uint64_t> out) override;
  void reset() override;
  std::unique_ptr<Codec> clone() const override {
    return std::make_unique<CouplingInvertCodec>(*this);
  }

  /// Same flag-line budget as BusInvertCodec: 63 payload bits max.
  static constexpr std::size_t kMaxWidth = 63;

  /// Planar-bus transition cost between consecutive code words (flag
  /// included as the top line). Exposed for tests.
  double transition_cost(std::uint64_t from, std::uint64_t to) const;

 private:
  std::size_t width_;
  double lambda_;
  std::uint64_t prev_code_ = 0;  ///< previous full code word (flag included)
};

}  // namespace tsvcod::coding
