#pragma once
// Word-stream abstraction and composition utilities.
//
// A WordStream produces one word per clock cycle; bit 0 is the LSB and is
// transmitted on "line 0" before any bit-to-TSV assignment. All the paper's
// workloads (image sensors, MEMS sensors, sequential addresses, encoded
// streams) implement this interface, so statistics gathering, assignment
// optimization and circuit simulation are workload-agnostic.

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

namespace tsvcod::streams {

class WordStream {
 public:
  virtual ~WordStream() = default;
  virtual std::size_t width() const = 0;
  /// Produce the next word (bits above width() must be zero).
  virtual std::uint64_t next() = 0;
};

/// Replays a recorded word sequence (wraps around at the end).
class TraceStream final : public WordStream {
 public:
  TraceStream(std::vector<std::uint64_t> words, std::size_t width);
  std::size_t width() const override { return width_; }
  std::uint64_t next() override;

 private:
  std::vector<std::uint64_t> words_;
  std::size_t width_;
  std::size_t pos_ = 0;
};

/// Description of a stable line appended above a payload stream.
struct StableLine {
  bool value = false;       ///< constant logical level
  bool invertible = true;   ///< power/ground lines must not be inverted
};

/// Appends constant (stable) lines above an inner stream: redundant TSVs,
/// enable lines parked at a level, and power/ground TSVs (paper Sec. 5.1).
class StableLinesStream final : public WordStream {
 public:
  StableLinesStream(std::unique_ptr<WordStream> inner, std::vector<StableLine> lines);
  std::size_t width() const override;
  std::uint64_t next() override;

 private:
  std::unique_ptr<WordStream> inner_;
  std::vector<StableLine> lines_;
};

/// Adds an enable line as the MSB and inserts idle gaps: `active_length`
/// payload words (enable = 1) alternate with `idle_length` cycles where the
/// payload is gated to zero and enable = 0. Models the "almost stable" enable
/// signals of the paper's sensor links.
class FramedStream final : public WordStream {
 public:
  FramedStream(std::unique_ptr<WordStream> inner, std::size_t active_length,
               std::size_t idle_length);
  std::size_t width() const override;
  std::uint64_t next() override;

 private:
  std::unique_ptr<WordStream> inner_;
  std::size_t active_length_;
  std::size_t idle_length_;
  std::size_t phase_ = 0;
};

/// Round-robin time multiplexing of equal-width streams (paper Sec. 5.2:
/// "regular pattern-by-pattern multiplexing").
class MuxStream final : public WordStream {
 public:
  explicit MuxStream(std::vector<std::unique_ptr<WordStream>> inputs);
  std::size_t width() const override;
  std::uint64_t next() override;

 private:
  std::vector<std::unique_ptr<WordStream>> inputs_;
  std::size_t turn_ = 0;
};

/// Drain `count` words from a stream into a vector.
std::vector<std::uint64_t> collect(WordStream& stream, std::size_t count);

/// Mask for the low `width` bits.
constexpr std::uint64_t width_mask(std::size_t width) {
  return width >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
}

}  // namespace tsvcod::streams
