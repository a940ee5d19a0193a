#include "coding/factory.hpp"

#include <stdexcept>

#include "coding/bus_invert.hpp"
#include "coding/correlator.hpp"
#include "coding/fibonacci.hpp"
#include "coding/gray.hpp"
#include "coding/t0.hpp"

namespace tsvcod::coding {

namespace {

enum class Kind { gray, correlator, bus_invert, coupling_invert, t0, fibonacci };

Kind kind_of(const std::string& name) {
  if (name == "gray") return Kind::gray;
  if (name == "correlator") return Kind::correlator;
  if (name == "bus-invert") return Kind::bus_invert;
  if (name == "coupling-invert") return Kind::coupling_invert;
  if (name == "t0") return Kind::t0;
  if (name == "fibonacci") return Kind::fibonacci;
  std::string known;
  for (const auto& n : codec_names()) {
    if (!known.empty()) known += '|';
    known += n;
  }
  throw std::invalid_argument("unknown codec '" + name + "' (use " + known + ")");
}

void check_width(const std::string& name, std::size_t width_in, std::size_t max_width) {
  if (width_in == 0 || width_in > max_width) {
    throw std::invalid_argument("codec '" + name + "': width " + std::to_string(width_in) +
                                " out of range [1, " + std::to_string(max_width) + "]");
  }
}

/// Lines the code word occupies beyond the payload (1 for flag-extending
/// codecs, 0 for width-preserving ones; Fibonacci reports 0 — its expansion
/// is width-dependent and resolved by make_codec_for_lines).
std::size_t codec_extra_lines(Kind kind) {
  switch (kind) {
    case Kind::gray:
    case Kind::correlator:
    case Kind::fibonacci: return 0;
    case Kind::bus_invert:
    case Kind::coupling_invert:
    case Kind::t0: return 1;
  }
  throw std::logic_error("codec_extra_lines: unreachable");
}

}  // namespace

const std::vector<std::string>& codec_names() {
  static const std::vector<std::string> names{"gray",            "correlator", "bus-invert",
                                              "coupling-invert", "t0",         "fibonacci"};
  return names;
}

std::size_t codec_max_width(const std::string& name) {
  switch (kind_of(name)) {
    case Kind::gray: return GrayCodec::kMaxWidth;
    case Kind::correlator: return CorrelatorCodec::kMaxWidth;
    case Kind::bus_invert: return BusInvertCodec::kMaxWidth;
    case Kind::coupling_invert: return CouplingInvertCodec::kMaxWidth;
    case Kind::t0: return T0Codec::kMaxWidth;
    case Kind::fibonacci: return FibonacciCodec::kMaxWidth;
  }
  throw std::logic_error("codec_max_width: unreachable");
}

std::unique_ptr<Codec> make_codec(const CodecSpec& spec, std::size_t width_in) {
  const Kind kind = kind_of(spec.name);
  // Validate here so the caller gets the codec's *own* limit in the message
  // even before the constructor runs (the constructors double-check).
  check_width(spec.name, width_in, codec_max_width(spec.name));
  switch (kind) {
    case Kind::gray: return std::make_unique<GrayCodec>(width_in, spec.inversion_mask);
    case Kind::correlator:
      return std::make_unique<CorrelatorCodec>(width_in, spec.period, spec.inversion_mask);
    case Kind::bus_invert: return std::make_unique<BusInvertCodec>(width_in);
    case Kind::coupling_invert:
      return std::make_unique<CouplingInvertCodec>(width_in, spec.lambda);
    case Kind::t0: return std::make_unique<T0Codec>(width_in, spec.stride);
    case Kind::fibonacci: return std::make_unique<FibonacciCodec>(width_in);
  }
  throw std::logic_error("make_codec: unreachable");
}

std::unique_ptr<Codec> make_codec_for_lines(const CodecSpec& spec, std::size_t lines) {
  const Kind kind = kind_of(spec.name);
  if (kind == Kind::fibonacci) {
    // The Zeckendorf ladder grows irregularly; search the payload width whose
    // output hits `lines` exactly.
    for (std::size_t w = 1; w <= FibonacciCodec::kMaxWidth; ++w) {
      auto c = std::make_unique<FibonacciCodec>(w);
      if (c->width_out() == lines) return c;
      if (c->width_out() > lines) break;
    }
    throw std::invalid_argument("codec 'fibonacci': no payload width codes onto exactly " +
                                std::to_string(lines) + " lines");
  }
  const std::size_t extra = codec_extra_lines(kind);
  if (lines <= extra) {
    throw std::invalid_argument("codec '" + spec.name + "': " + std::to_string(lines) +
                                " lines leave no payload (needs " + std::to_string(extra + 1) +
                                "+)");
  }
  return make_codec(spec, lines - extra);
}

}  // namespace tsvcod::coding
