#include "coding/fibonacci.hpp"

#include <stdexcept>

namespace tsvcod::coding {

FibonacciCodec::FibonacciCodec(std::size_t width_in) : width_in_(width_in) {
  if (width_in == 0 || width_in > kMaxWidth) {
    throw std::invalid_argument("FibonacciCodec: width " + std::to_string(width_in) +
                                " out of range [1, " + std::to_string(kMaxWidth) + "]");
  }
  const std::uint64_t max_value = streams::width_mask(width_in);
  // Fibonacci weights F2, F3, ... = 1, 2, 3, 5, ...; with weights up to F_k
  // the *non-adjacent* (Zeckendorf) representable range is [0, F_{k+1} - 1],
  // so extend the ladder until that covers max_value.
  std::uint64_t a = 1, b = 2;
  while (true) {
    fibs_.push_back(a);
    if (b - 1 >= max_value) break;
    const std::uint64_t next = a + b;
    a = b;
    b = next;
  }
  if (fibs_.size() > 63) throw std::invalid_argument("FibonacciCodec: output too wide");
}

void FibonacciCodec::encode(std::span<const std::uint64_t> in, std::span<std::uint64_t> out) {
  for (std::size_t w = 0; w < in.size(); ++w) {
    std::uint64_t v = in[w] & streams::width_mask(width_in_);
    std::uint64_t code = 0;
    // Greedy Zeckendorf, largest weight first; greedy choice guarantees the
    // next-lower weight is never also taken (no adjacent 1s).
    for (std::size_t k = fibs_.size(); k-- > 0;) {
      if (fibs_[k] <= v) {
        code |= std::uint64_t{1} << k;
        v -= fibs_[k];
      }
    }
    out[w] = code;
  }
}

void FibonacciCodec::decode(std::span<const std::uint64_t> in, std::span<std::uint64_t> out) {
  for (std::size_t w = 0; w < in.size(); ++w) {
    std::uint64_t v = 0;
    for (std::size_t k = 0; k < fibs_.size(); ++k) {
      if ((in[w] >> k) & 1u) v += fibs_[k];
    }
    out[w] = v & streams::width_mask(width_in_);
  }
}

}  // namespace tsvcod::coding
