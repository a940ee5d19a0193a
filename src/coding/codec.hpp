#pragma once
// Low-power codec interface (paper Sec. 6: combination with data encoding).
//
// A Codec maps an input word to a (possibly wider) code word each cycle and
// may keep history (correlator, bus-invert). Every codec supports an
// *inversion mask*: the fixed per-line negations demanded by the optimal
// bit-to-TSV assignment are folded into the encoder/decoder (e.g. swapping
// XORs for XNORs in a Gray coder), which is exactly how the paper realizes
// inversions at zero cost.
//
// The virtual interface works on spans: each codec implements encode(in,
// out) and decode(in, out) once, as a loop whose history and position live
// in locals and are written back when the span ends. Streaming callers
// (CodedLink::roundtrip over a chunk) thereby pay one virtual call per
// stage of words, not one per word. encode(word) / decode(code) are
// non-virtual wrappers over a one-word span, so a codec has no second
// per-word body that could drift from the span one.

#include <cstdint>
#include <memory>
#include <span>

#include "streams/word_stream.hpp"

namespace tsvcod::coding {

class Codec {
 public:
  virtual ~Codec() = default;
  virtual std::size_t width_in() const = 0;
  virtual std::size_t width_out() const = 0;
  /// Encode in[k] into out[k] for every k, in stream order; the spans
  /// have equal length, and `out` may be `in` itself (not a shifted
  /// overlap of it). History carries across calls exactly as if the words
  /// had come one at a time.
  virtual void encode(std::span<const std::uint64_t> in, std::span<std::uint64_t> out) = 0;
  /// Decode in[k] into out[k]; same contract as encode().
  virtual void decode(std::span<const std::uint64_t> in, std::span<std::uint64_t> out) = 0;
  std::uint64_t encode(std::uint64_t word) {
    encode(std::span<const std::uint64_t>(&word, 1), std::span<std::uint64_t>(&word, 1));
    return word;
  }
  std::uint64_t decode(std::uint64_t code) {
    decode(std::span<const std::uint64_t>(&code, 1), std::span<std::uint64_t>(&code, 1));
    return code;
  }
  /// Clear any history (returns the codec to its power-on state).
  virtual void reset() = 0;
  /// Deep copy, history included. A transmitter/receiver pair is built by
  /// cloning one configured codec so the two endpoints can never disagree on
  /// parameters (width, period, stride, inversion mask).
  virtual std::unique_ptr<Codec> clone() const = 0;
};

/// Word stream that pushes an inner stream through a codec.
class EncodedStream final : public streams::WordStream {
 public:
  EncodedStream(std::unique_ptr<streams::WordStream> inner, std::unique_ptr<Codec> codec)
      : inner_(std::move(inner)), codec_(std::move(codec)) {
    if (!inner_ || !codec_) throw std::invalid_argument("EncodedStream: null argument");
    if (inner_->width() != codec_->width_in()) {
      throw std::invalid_argument("EncodedStream: stream/codec width mismatch");
    }
  }
  std::size_t width() const override { return codec_->width_out(); }
  std::uint64_t next() override { return codec_->encode(inner_->next()); }

 private:
  std::unique_ptr<streams::WordStream> inner_;
  std::unique_ptr<Codec> codec_;
};

}  // namespace tsvcod::coding
