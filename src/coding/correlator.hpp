#pragma once
// Correlator / decorrelator codec (paper Sec. 7, third data stream).
//
// For time-multiplexed channels (e.g. R, G1, G2, B colors sharing one link)
// the temporal correlation *within* a channel is invisible on the wire. The
// correlator restores it: each new value is XORed bitwise with the previous
// value of the *same channel* (`period` cycles back) before transmission.
// Highly correlated consecutive channel values then produce MSBs nearly
// stable at 0 — switching drops, and with the inversion mask (XOR -> XNOR,
// zero cost) the 1-bit probabilities can be raised back up for the TSV MOS
// effect, exactly as the paper's combined scheme does.

#include <vector>

#include "coding/codec.hpp"

namespace tsvcod::coding {

class CorrelatorCodec final : public Codec {
 public:
  /// `period`: number of multiplexed channels (1 = plain differential-XOR).
  CorrelatorCodec(std::size_t width, std::size_t period, std::uint64_t inversion_mask = 0);

  std::size_t width_in() const override { return width_; }
  std::size_t width_out() const override { return width_; }
  using Codec::decode;
  using Codec::encode;
  void encode(std::span<const std::uint64_t> in, std::span<std::uint64_t> out) override;
  void decode(std::span<const std::uint64_t> in, std::span<std::uint64_t> out) override;
  void reset() override;
  std::unique_ptr<Codec> clone() const override {
    return std::make_unique<CorrelatorCodec>(*this);
  }

  /// Widest supported word; the code is width-preserving.
  static constexpr std::size_t kMaxWidth = 64;

 private:
  std::size_t width_;
  std::size_t period_;
  std::uint64_t mask_;
  std::vector<std::uint64_t> enc_history_;
  std::vector<std::uint64_t> dec_history_;
  std::size_t enc_pos_ = 0;
  std::size_t dec_pos_ = 0;
};

}  // namespace tsvcod::coding
