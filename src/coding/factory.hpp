#pragma once
// Name-based codec construction with per-codec width validation.
//
// The CLI and the correctness harness build codecs from user-supplied
// strings; each codec family has its own width ceiling (flag-extending codecs
// lose one line to the flag, Fibonacci expands ~1.44x). Constructing through
// this factory guarantees the error message names the codec and its actual
// limit instead of a generic "bad width".

#include <memory>
#include <string>
#include <vector>

#include "coding/codec.hpp"

namespace tsvcod::coding {

/// Parameters beyond the payload width; unused fields are ignored by codecs
/// that do not take them.
struct CodecSpec {
  std::string name;                 ///< gray | correlator | bus-invert | coupling-invert | t0 | fibonacci
  std::size_t period = 1;           ///< correlator channel count
  std::uint64_t stride = 1;         ///< t0 address stride
  double lambda = 2.0;              ///< coupling-invert coupling weight
  std::uint64_t inversion_mask = 0; ///< gray / correlator per-line inversions
};

/// All names the factory accepts, for help texts and the harness.
const std::vector<std::string>& codec_names();

/// Widest payload the named codec accepts. Throws std::invalid_argument on an
/// unknown name.
std::size_t codec_max_width(const std::string& name);

/// Build a codec for `width_in` payload bits. Throws std::invalid_argument
/// naming the codec and its maximum width when the width is out of range.
std::unique_ptr<Codec> make_codec(const CodecSpec& spec, std::size_t width_in);

/// Build a codec whose *output* occupies exactly `lines` TSVs (the usual CLI
/// situation: the array size is fixed and the payload width follows from it).
std::unique_ptr<Codec> make_codec_for_lines(const CodecSpec& spec, std::size_t lines);

}  // namespace tsvcod::coding
