#include "streams/image_sensor.hpp"

#include <algorithm>
#include <cmath>
#include <random>

#include "phys/constants.hpp"
#include "simd/mt19937_64.hpp"

namespace tsvcod::streams {

namespace {

/// A smooth random field: sum of cosines with 1/f amplitudes.
class CosineField {
 public:
  CosineField(int components, simd::Mt19937_64& rng) {
    std::uniform_real_distribution<double> uni(0.0, 1.0);
    terms_.reserve(static_cast<std::size_t>(components));
    for (int k = 0; k < components; ++k) {
      // Log-uniform spatial frequency between very low and moderately high.
      const double f = 0.004 * std::pow(40.0, uni(rng));  // cycles/pixel
      const double dir = 2.0 * phys::pi * uni(rng);
      Term t;
      t.fx = f * std::cos(dir);
      t.fy = f * std::sin(dir);
      t.phase = 2.0 * phys::pi * uni(rng);
      t.amp = 1.0 / (1.0 + 20.0 * f);  // 1/f-like decay
      terms_.push_back(t);
    }
  }

  double at(double x, double y) const {
    double v = 0.0;
    for (const auto& t : terms_) {
      v += t.amp * std::cos(2.0 * phys::pi * (t.fx * x + t.fy * y) + t.phase);
    }
    return v;
  }

 private:
  struct Term {
    double fx, fy, phase, amp;
  };
  std::vector<Term> terms_;
};

}  // namespace

SyntheticImage::SyntheticImage(const ImageParams& params, std::uint64_t seed)
    : params_(params), data_(3 * params.width * params.height) {
  simd::Mt19937_64 rng(seed);
  const CosineField luma_field(params.components, rng);
  const CosineField chroma_r(params.components / 2 + 1, rng);
  const CosineField chroma_b(params.components / 2 + 1, rng);
  std::normal_distribution<double> noise(0.0, params.noise);
  // Per-channel DC offsets: scenes have distinct overall R/G/B levels.
  std::uniform_real_distribution<double> dc(-2.0, 2.0);
  const double off_r = dc(rng);
  const double off_b = dc(rng);

  // Sample the continuous fields and normalize each plane to 0..255.
  std::vector<double> raw(data_.size());
  double lo = 1e300;
  double hi = -1e300;
  for (std::size_t y = 0; y < params.height; ++y) {
    for (std::size_t x = 0; x < params.width; ++x) {
      const double l = luma_field.at(static_cast<double>(x), static_cast<double>(y));
      const double cr = chroma_r.at(static_cast<double>(x), static_cast<double>(y));
      const double cb = chroma_b.at(static_cast<double>(x), static_cast<double>(y));
      const std::size_t i = y * params.width + x;
      raw[0 * params.width * params.height + i] = l + params.chroma * (cr + off_r);
      raw[1 * params.width * params.height + i] = l;
      raw[2 * params.width * params.height + i] = l + params.chroma * (cb + off_b);
      for (int p = 0; p < 3; ++p) {
        const double v = raw[static_cast<std::size_t>(p) * params.width * params.height + i];
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
    }
  }
  const double scale = hi > lo ? 255.0 / (hi - lo) : 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    const double v = (raw[i] - lo) * scale + noise(rng);
    data_[i] = static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0));
  }
}

std::uint8_t SyntheticImage::plane(int p, std::size_t x, std::size_t y) const {
  return data_[static_cast<std::size_t>(p) * params_.width * params_.height + y * params_.width +
               x];
}

std::uint8_t SyntheticImage::luma(std::size_t x, std::size_t y) const {
  const double l = 0.299 * red(x, y) + 0.587 * green(x, y) + 0.114 * blue(x, y);
  return static_cast<std::uint8_t>(std::clamp(l, 0.0, 255.0));
}

std::uint8_t SyntheticImage::bayer(std::size_t x, std::size_t y) const {
  const bool even_row = (y % 2) == 0;
  const bool even_col = (x % 2) == 0;
  if (even_row && even_col) return red(x, y);
  if (!even_row && !even_col) return blue(x, y);
  return green(x, y);
}

ImageSequence::ImageSequence(const ImageParams& params, std::uint64_t first_seed)
    : params_(params), seed_(first_seed), image_(params, first_seed) {}

void ImageSequence::advance() {
  ++seed_;
  image_ = SyntheticImage(params_, seed_);
}

BayerQuadStream::BayerQuadStream(const ImageParams& params, std::uint64_t first_seed)
    : seq_(params, first_seed) {}

std::uint64_t BayerQuadStream::next() {
  const auto& img = seq_.current();
  const std::size_t cells_x = img.width() / 2;
  const std::size_t cells_y = img.height() / 2;
  const std::size_t cx = 2 * (cell_ % cells_x);
  const std::size_t cy = 2 * (cell_ / cells_x);
  const std::uint64_t r = img.bayer(cx, cy);
  const std::uint64_t g1 = img.bayer(cx + 1, cy);
  const std::uint64_t g2 = img.bayer(cx, cy + 1);
  const std::uint64_t b = img.bayer(cx + 1, cy + 1);
  if (++cell_ >= cells_x * cells_y) {
    cell_ = 0;
    seq_.advance();
  }
  return r | (g1 << 8) | (g2 << 16) | (b << 24);
}

BayerMuxStream::BayerMuxStream(const ImageParams& params, std::uint64_t first_seed)
    : seq_(params, first_seed) {}

std::uint64_t BayerMuxStream::next() {
  const auto& img = seq_.current();
  const std::size_t cells_x = img.width() / 2;
  const std::size_t cells_y = img.height() / 2;
  const std::size_t cx = 2 * (cell_ % cells_x);
  const std::size_t cy = 2 * (cell_ / cells_x);
  std::uint64_t v = 0;
  switch (component_) {
    case 0: v = img.bayer(cx, cy); break;          // R
    case 1: v = img.bayer(cx + 1, cy); break;      // G1
    case 2: v = img.bayer(cx, cy + 1); break;      // G2
    default: v = img.bayer(cx + 1, cy + 1); break; // B
  }
  if (++component_ == 4) {
    component_ = 0;
    if (++cell_ >= cells_x * cells_y) {
      cell_ = 0;
      seq_.advance();
    }
  }
  return v;
}

GrayscaleStream::GrayscaleStream(const ImageParams& params, std::uint64_t first_seed)
    : seq_(params, first_seed) {}

std::uint64_t GrayscaleStream::next() {
  const auto& img = seq_.current();
  const std::size_t x = pixel_ % img.width();
  const std::size_t y = pixel_ / img.width();
  const std::uint64_t v = img.luma(x, y);
  if (++pixel_ >= img.width() * img.height()) {
    pixel_ = 0;
    seq_.advance();
  }
  return v;
}

}  // namespace tsvcod::streams
