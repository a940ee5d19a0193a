#pragma once
// Fibonacci-numeral-system (FNS) crosstalk-avoidance code (the class of
// TSV codes in the paper's references [13-15]).
//
// Every value has a unique Zeckendorf representation: a sum of
// non-consecutive Fibonacci numbers, i.e. a codeword with **no two adjacent
// 1s**. On a linear bus this forbids the worst opposite-transition overlap
// patterns, improving signal integrity — at the cost of ~1.44x more lines.
// The paper's Sec. 1 argument against this family ("improve the signal
// integrity but also increase the TSV count, leading to an even increased
// overall TSV power consumption") is reproduced in bench/cac_comparison.

#include <vector>

#include "coding/codec.hpp"

namespace tsvcod::coding {

class FibonacciCodec final : public Codec {
 public:
  /// Codes `width_in`-bit binary values; the output width is the smallest N
  /// with F(N+2) - 1 >= 2^width_in - 1 (about 1.44x width_in).
  explicit FibonacciCodec(std::size_t width_in);

  std::size_t width_in() const override { return width_in_; }
  std::size_t width_out() const override { return fibs_.size(); }
  using Codec::decode;
  using Codec::encode;
  void encode(std::span<const std::uint64_t> in, std::span<std::uint64_t> out) override;
  void decode(std::span<const std::uint64_t> in, std::span<std::uint64_t> out) override;
  void reset() override {}
  std::unique_ptr<Codec> clone() const override {
    return std::make_unique<FibonacciCodec>(*this);
  }

  /// Widest supported payload: ~1.44x expansion must stay within 63 output
  /// lines (a 64-bit code word with headroom for the Zeckendorf ladder).
  static constexpr std::size_t kMaxWidth = 40;

 private:
  std::size_t width_in_;
  std::vector<std::uint64_t> fibs_;  ///< F(2), F(3), ... (1, 2, 3, 5, ...)
};

}  // namespace tsvcod::coding
