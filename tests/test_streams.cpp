// Unit tests for the synthetic workload generators and stream combinators.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>

#include "stats/switching_stats.hpp"
#include "streams/image_sensor.hpp"
#include "streams/mems.hpp"
#include "streams/random_streams.hpp"
#include "streams/word_stream.hpp"

#include "reference.hpp"

namespace {

using namespace tsvcod;
using namespace tsvcod::streams;

stats::SwitchingStats measure(WordStream& s, std::size_t n) {
  stats::StatsAccumulator acc(s.width());
  for (std::size_t i = 0; i < n; ++i) acc.add(s.next());
  return acc.finish();
}

TEST(Trace, WrapsAndMasks) {
  TraceStream t({0x1FF, 0x002, 0x003}, 8);
  EXPECT_EQ(t.next(), 0xFFu);  // masked to 8 bits
  EXPECT_EQ(t.next(), 0x02u);
  EXPECT_EQ(t.next(), 0x03u);
  EXPECT_EQ(t.next(), 0xFFu);  // wrapped
  EXPECT_THROW(TraceStream({}, 8), std::invalid_argument);
  EXPECT_THROW(TraceStream({1}, 0), std::invalid_argument);
}

TEST(StableLines, AppendsConstants) {
  auto inner = std::make_unique<TraceStream>(std::vector<std::uint64_t>{0b01, 0b10}, 2);
  StableLinesStream s(std::move(inner),
                      {{.value = true, .invertible = false}, {.value = false, .invertible = true}});
  EXPECT_EQ(s.width(), 4u);
  EXPECT_EQ(s.next(), 0b0101u);  // line2 = 1, line3 = 0
  EXPECT_EQ(s.next(), 0b0110u);
}

TEST(Framed, EnableGatesPayload) {
  auto inner = std::make_unique<TraceStream>(std::vector<std::uint64_t>{0xA, 0xB, 0xC}, 4);
  FramedStream s(std::move(inner), 2, 1);
  EXPECT_EQ(s.width(), 5u);
  EXPECT_EQ(s.next(), 0xAu | 0x10u);  // active, enable set
  EXPECT_EQ(s.next(), 0xBu | 0x10u);
  EXPECT_EQ(s.next(), 0u);  // idle: payload gated, enable low
  EXPECT_EQ(s.next(), 0xCu | 0x10u);
}

TEST(Mux, RoundRobin) {
  std::vector<std::unique_ptr<WordStream>> ins;
  ins.push_back(std::make_unique<TraceStream>(std::vector<std::uint64_t>{1, 2}, 4));
  ins.push_back(std::make_unique<TraceStream>(std::vector<std::uint64_t>{9}, 4));
  MuxStream m(std::move(ins));
  EXPECT_EQ(m.next(), 1u);
  EXPECT_EQ(m.next(), 9u);
  EXPECT_EQ(m.next(), 2u);
  EXPECT_EQ(m.next(), 9u);
}

TEST(Mux, RejectsMixedWidths) {
  std::vector<std::unique_ptr<WordStream>> ins;
  ins.push_back(std::make_unique<TraceStream>(std::vector<std::uint64_t>{1}, 4));
  ins.push_back(std::make_unique<TraceStream>(std::vector<std::uint64_t>{1}, 5));
  EXPECT_THROW(MuxStream{std::move(ins)}, std::invalid_argument);
}

TEST(Uniform, HalfActivityUncorrelated) {
  UniformRandomStream s(12, 3);
  const auto st = measure(s, 100000);
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_NEAR(st.self[i], 0.5, 0.02);
    EXPECT_NEAR(st.prob_one[i], 0.5, 0.02);
  }
}

TEST(Gaussian, TwosComplementEncoding) {
  EXPECT_EQ(GaussianAr1Stream::encode_twos_complement(0, 8), 0u);
  EXPECT_EQ(GaussianAr1Stream::encode_twos_complement(-1, 8), 0xFFu);
  EXPECT_EQ(GaussianAr1Stream::encode_twos_complement(127, 8), 0x7Fu);
  EXPECT_EQ(GaussianAr1Stream::encode_twos_complement(-128, 8), 0x80u);
  // Clamping at the rails.
  EXPECT_EQ(GaussianAr1Stream::encode_twos_complement(300, 8), 0x7Fu);
  EXPECT_EQ(GaussianAr1Stream::encode_twos_complement(-300, 8), 0x80u);
}

TEST(Gaussian, SignActivityMatchesDbtTheory) {
  // The measured sign-bit switching of an AR(1) stream must match the
  // analytic acos(rho)/pi of the dual-bit-type model.
  for (const double rho : {0.0, 0.6, -0.6}) {
    GaussianAr1Stream s(16, 2000.0, rho, 11);
    const auto st = measure(s, 200000);
    EXPECT_NEAR(st.self[15], reference::sign_toggle_probability(rho), 0.02) << "rho=" << rho;
    EXPECT_NEAR(st.prob_one[15], 0.5, 0.02);
  }
}

TEST(Gaussian, MsbsSpatiallyCorrelated) {
  GaussianAr1Stream s(16, 1000.0, 0.0, 5);
  const auto st = measure(s, 100000);
  // Sign-extension region: bits 14/15 switch together.
  EXPECT_GT(st.coupling(15, 14), 0.3);
  // LSBs uncorrelated.
  EXPECT_NEAR(st.coupling(0, 1), 0.0, 0.02);
  EXPECT_NEAR(st.self[0], 0.5, 0.02);
}

TEST(Gaussian, RejectsBadParameters) {
  EXPECT_THROW(GaussianAr1Stream(16, -1.0, 0.0, 1), std::invalid_argument);
  EXPECT_THROW(GaussianAr1Stream(16, 10.0, 1.0, 1), std::invalid_argument);
  EXPECT_THROW(GaussianAr1Stream(0, 10.0, 0.0, 1), std::invalid_argument);
}

TEST(Sequential, PureCounterActivities) {
  SequentialStream s(8, 0.0, 7);
  const auto st = measure(s, 4096);
  // Counter: bit k toggles with probability 2^-k.
  EXPECT_NEAR(st.self[0], 1.0, 1e-12);
  EXPECT_NEAR(st.self[1], 0.5, 0.02);
  EXPECT_NEAR(st.self[2], 0.25, 0.02);
  EXPECT_NEAR(st.prob_one[3], 0.5, 0.05);
}

TEST(Sequential, FullBranchIsUniform) {
  SequentialStream s(8, 1.0, 7);
  const auto st = measure(s, 100000);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_NEAR(st.self[i], 0.5, 0.02);
}

TEST(Image, DeterministicAndInRange) {
  ImageParams p;
  SyntheticImage a(p, 42);
  SyntheticImage b(p, 42);
  SyntheticImage c(p, 43);
  bool any_diff = false;
  for (std::size_t y = 0; y < p.height; ++y) {
    for (std::size_t x = 0; x < p.width; ++x) {
      EXPECT_EQ(a.luma(x, y), b.luma(x, y));
      any_diff |= a.luma(x, y) != c.luma(x, y);
    }
  }
  EXPECT_TRUE(any_diff) << "different seeds must give different images";
}

TEST(Image, BayerMosaicSelectsPlanes) {
  SyntheticImage img({}, 7);
  EXPECT_EQ(img.bayer(0, 0), img.red(0, 0));
  EXPECT_EQ(img.bayer(1, 0), img.green(1, 0));
  EXPECT_EQ(img.bayer(0, 1), img.green(0, 1));
  EXPECT_EQ(img.bayer(1, 1), img.blue(1, 1));
}

TEST(Image, NeighbouringPixelsCorrelate) {
  // Natural-image statistics: adjacent pixels are strongly correlated. The
  // grayscale stream must therefore show a calm MSB and a busy LSB.
  GrayscaleStream s({}, 1);
  const auto st = measure(s, 40000);
  EXPECT_LT(st.self[7], 0.35);
  EXPECT_GT(st.self[0], 0.4);
}

TEST(Image, QuadStreamPacksFourComponents) {
  ImageParams p;
  BayerQuadStream quad(p, 5);
  SyntheticImage img(p, 5);
  const std::uint64_t w = quad.next();
  EXPECT_EQ(w & 0xFFu, img.bayer(0, 0));
  EXPECT_EQ((w >> 8) & 0xFFu, img.bayer(1, 0));
  EXPECT_EQ((w >> 16) & 0xFFu, img.bayer(0, 1));
  EXPECT_EQ((w >> 24) & 0xFFu, img.bayer(1, 1));
}

TEST(Image, MuxStreamMatchesQuadComponents) {
  ImageParams p;
  BayerQuadStream quad(p, 9);
  BayerMuxStream mux(p, 9);
  for (int cell = 0; cell < 50; ++cell) {
    const std::uint64_t w = quad.next();
    EXPECT_EQ(mux.next(), (w >> 0) & 0xFFu);
    EXPECT_EQ(mux.next(), (w >> 8) & 0xFFu);
    EXPECT_EQ(mux.next(), (w >> 16) & 0xFFu);
    EXPECT_EQ(mux.next(), (w >> 24) & 0xFFu);
  }
}

TEST(Mems, AccelerometerSeesGravity) {
  MemsSensorModel m(MemsKind::Accelerometer, 3);
  double sum_z = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum_z += m.next().z;
  EXPECT_NEAR(sum_z / n, 16384.0, 3000.0);
}

TEST(Mems, MagnetometerStaysNearEarthField) {
  // The field magnitude wobbles (indoor disturbances) but stays in the
  // earth-field regime, and the long-run mean is close to nominal.
  MemsSensorModel m(MemsKind::Magnetometer, 4);
  double mean = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const auto s = m.next();
    const double mag = std::sqrt(s.x * s.x + s.y * s.y + s.z * s.z);
    EXPECT_GT(mag, 900.0);
    EXPECT_LT(mag, 6000.0);
    mean += mag / n;
  }
  EXPECT_NEAR(mean, 3300.0, 1200.0);
}

TEST(Mems, RmsStreamIsUnsignedAndBiased) {
  MemsRmsStream s(MemsKind::Accelerometer, 8);
  const auto st = measure(s, 30000);
  // RMS values are positive and dominated by gravity: MSB region biased, not
  // zero mean -> the Spiral-friendly regime of Sec. 5.2.
  EXPECT_GT(st.prob_one[13], 0.8);
  EXPECT_LT(st.self[13], 0.3);
}

TEST(Mems, XyzStreamIsSignedish) {
  MemsXyzStream s(MemsKind::Gyroscope, 8);
  const auto st = measure(s, 30000);
  // Gyro axes are zero-mean: the sign bit is balanced and busy.
  EXPECT_NEAR(st.prob_one[15], 0.5, 0.1);
  EXPECT_GT(st.self[15], 0.2);
}

TEST(Mems, AllSensorMuxWidth) {
  auto s = make_all_sensor_mux(1);
  EXPECT_EQ(s->width(), 16u);
  const auto st = measure(*s, 9000);
  EXPECT_EQ(st.width, 16u);
}

// Order-sensitive FNV-1a digest of a stream's first `n` words.
std::uint64_t digest_words(WordStream& s, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t w = s.next();
    for (int k = 0; k < 64; k += 8) h = (h ^ ((w >> k) & 0xFF)) * 0x100000001b3ull;
  }
  return h;
}

// The first 4,096 words of every seeded generator, pinned exactly: the NoC's
// MEMS, Random and ImageDma payload streams, and the Gaussian and sequential
// streams behind the paper's figures. Each one draws from the library's
// MT19937-64 engine, so these digests also pin that engine's sequence: a
// generator change that moved a single word would move every figure.
TEST(Golden, SeededStreamsFirst4096Words) {
  constexpr std::uint64_t kSeed = 0x9E3779B97F4A7C15ull;
  struct Case {
    const char* name;
    std::unique_ptr<WordStream> stream;
    std::uint64_t digest;
  };
  Case cases[] = {
      {"mems-xyz-accelerometer", std::make_unique<MemsXyzStream>(MemsKind::Accelerometer, kSeed),
       0xe44dee9939dd00f0ull},
      {"mems-rms-gyroscope", std::make_unique<MemsRmsStream>(MemsKind::Gyroscope, 3),
       0xd8f4b9e559a8f555ull},
      {"mems-xyz-magnetometer", std::make_unique<MemsXyzStream>(MemsKind::Magnetometer, 11),
       0x0925f35818eac86cull},
      {"uniform-32", std::make_unique<UniformRandomStream>(32, kSeed), 0x4656d214b584255cull},
      {"uniform-64", std::make_unique<UniformRandomStream>(64, 1), 0xd5957e48d6bf267dull},
      {"image-luma", std::make_unique<GrayscaleStream>(ImageParams{}, kSeed),
       0x8fbc5166f24e507bull},
      {"gaussian-ar1", std::make_unique<GaussianAr1Stream>(16, 1200.0, 0.7, kSeed),
       0x972f2ce17142b50full},
      {"sequential", std::make_unique<SequentialStream>(16, 0.1, 5489), 0x1359f4bdf5d91c98ull},
  };
  for (auto& c : cases) {
    const std::uint64_t got = digest_words(*c.stream, 4096);
    EXPECT_EQ(got, c.digest) << c.name << ": 0x" << std::hex << got;
  }
}

}  // namespace
