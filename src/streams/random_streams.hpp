#pragma once
// Synthetic stochastic word streams (paper Sec. 4 workloads).
//
//  * UniformRandomStream — i.i.d. uniform words (activity 1/2, uncorrelated).
//  * GaussianAr1Stream   — two's-complement AR(1) Gaussian process; sweeping
//    sigma and rho generates the Fig. 3 pattern sets.
//  * SequentialStream    — an address/program-counter model: increment with
//    probability (1 - branch), jump uniformly otherwise; equally distributed
//    but temporally correlated, the Fig. 2 workload.

#include <cstdint>
#include <random>

#include "simd/mt19937_64.hpp"
#include "streams/word_stream.hpp"

namespace tsvcod::streams {

class UniformRandomStream final : public WordStream {
 public:
  UniformRandomStream(std::size_t width, std::uint64_t seed);
  std::size_t width() const override { return width_; }
  std::uint64_t next() override;

 private:
  std::size_t width_;
  simd::Mt19937_64 rng_;
};

class GaussianAr1Stream final : public WordStream {
 public:
  /// `sigma` and `mean` are in LSB counts of the two's-complement output.
  /// `rho` in (-1, 1) is the lag-1 autocorrelation. Samples are clamped to
  /// the representable range.
  GaussianAr1Stream(std::size_t width, double sigma, double rho, std::uint64_t seed,
                    double mean = 0.0);
  std::size_t width() const override { return width_; }
  std::uint64_t next() override;

  /// Two's-complement encoding helper for `width` bits (exposed for tests).
  static std::uint64_t encode_twos_complement(long long value, std::size_t width);

 private:
  std::size_t width_;
  double sigma_;
  double rho_;
  double mean_;
  double state_ = 0.0;  ///< unit-variance AR(1) state
  simd::Mt19937_64 rng_;
  std::normal_distribution<double> normal_{0.0, 1.0};
};

class SequentialStream final : public WordStream {
 public:
  /// `branch_probability` in [0, 1]: 0 = pure counter, 1 = uniform random.
  SequentialStream(std::size_t width, double branch_probability, std::uint64_t seed);
  std::size_t width() const override { return width_; }
  std::uint64_t next() override;

 private:
  std::size_t width_;
  double branch_probability_;
  std::uint64_t state_ = 0;
  simd::Mt19937_64 rng_;
  std::uniform_real_distribution<double> uni_{0.0, 1.0};
};

}  // namespace tsvcod::streams
