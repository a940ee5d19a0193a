#pragma once
// Synthetic MEMS sensor streams (paper Sec. 5.2: smartphone magnetometer,
// accelerometer and gyroscope in daily-use scenarios).
//
// Each sensor produces three 16-bit axes at a fixed sample rate. The models
// combine the statistics that matter for bit-level coding:
//  * accelerometer — gravity offset on z plus quasi-periodic motion (walking
//    cadence) with a slowly varying activity envelope and wideband noise;
//  * gyroscope     — zero-mean rotation bursts (Ornstein-Uhlenbeck process
//    gated by an activity envelope);
//  * magnetometer  — near-constant earth-field magnitude whose direction
//    performs a slow random walk (strongly correlated, non-zero mean).
//
// Transmission modes follow the paper: RMS of the three axes (unsigned,
// spatially correlated, no zero mean) or XYZ interleaving (signed,
// Gaussian-like, temporal correlation destroyed by the interleave).

#include <cstdint>
#include <random>

#include "simd/mt19937_64.hpp"
#include "streams/word_stream.hpp"

namespace tsvcod::streams {

enum class MemsKind { Accelerometer, Gyroscope, Magnetometer };

class MemsSensorModel {
 public:
  struct Sample {
    double x = 0.0;
    double y = 0.0;
    double z = 0.0;
  };

  MemsSensorModel(MemsKind kind, std::uint64_t seed);
  Sample next();

 private:
  double ou_step(double state, double tau, double sigma, double dt, double noise);

  MemsKind kind_;
  simd::Mt19937_64 rng_;
  std::normal_distribution<double> normal_{0.0, 1.0};
  double t_ = 0.0;
  double envelope_ = 0.5;
  Sample ou_{};        ///< per-axis OU state
  double heading_ = 0.0;
  double incline_ = 1.0;
};

/// Root-mean-square of the three axes, one unsigned 16-bit word per sample.
class MemsRmsStream final : public WordStream {
 public:
  MemsRmsStream(MemsKind kind, std::uint64_t seed);
  std::size_t width() const override { return 16; }
  std::uint64_t next() override;

 private:
  MemsSensorModel model_;
};

/// X, Y, Z axis values interleaved, one signed 16-bit word per cycle.
class MemsXyzStream final : public WordStream {
 public:
  MemsXyzStream(MemsKind kind, std::uint64_t seed);
  std::size_t width() const override { return 16; }
  std::uint64_t next() override;

 private:
  MemsSensorModel model_;
  MemsSensorModel::Sample current_{};
  int axis_ = 3;  ///< forces a fresh sample on first call
};

/// All three sensors (magnetometer, accelerometer, gyroscope), each XYZ
/// interleaved, multiplexed pattern-by-pattern (paper Fig. 5 "All Mux").
std::unique_ptr<WordStream> make_all_sensor_mux(std::uint64_t seed);

}  // namespace tsvcod::streams
