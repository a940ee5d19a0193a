#pragma once
// Length-prefixed framing for the streaming service (`tsvcod_serve`).
//
// The daemon multiplexes many sessions over one byte stream (stdin pipe or a
// socket the caller owns); each frame is:
//
//   offset  size  field
//   0       4     payload length in bytes (LE; excludes this 12-byte header)
//   4       1     type: 'O' open  'D' data  'S' stats  'C' close  'Q' shutdown
//   5       1     reserved (must be 0)
//   6       2     reserved (must be 0)
//   8       4     session id (LE; 0 for shutdown)
//   12      len   payload
//
// Payloads: open = UTF-8 `key=value` tokens separated by whitespace
// (per-session overrides: codec, window, threshold, cooldown); data = packed
// little-endian u64 words (length must be a multiple of 8); stats / close /
// shutdown = empty. Responses and events leave the daemon as JSON lines on
// stdout, so a shell client can drive the binary side with `python3 -c
// 'struct.pack(...)'` and read the answers with grep — which is exactly what
// the `cli_serve` smoke test does.
//
// The reader is strict: truncated headers or payloads, unknown frame types,
// nonzero reserved bytes, oversized or misaligned payloads all throw
// std::runtime_error naming the offending field and byte offset, so a
// desynced client fails loudly instead of feeding garbage words into
// sessions.

#include <cstdint>
#include <istream>
#include <map>
#include <string>
#include <vector>

namespace tsvcod::serve {

enum class FrameType : std::uint8_t {
  open = 'O',
  data = 'D',
  stats = 'S',
  close = 'C',
  shutdown = 'Q',
};

/// Hard cap on a single frame payload (64 MiB): bounds daemon memory per
/// frame and turns a desynced length prefix into an immediate error.
inline constexpr std::uint32_t kMaxFramePayload = 64u << 20;

struct Frame {
  FrameType type = FrameType::shutdown;
  std::uint32_t session = 0;
  std::vector<std::uint64_t> words;  ///< data frames
  std::string text;                  ///< open frames: key=value options
};

/// Read one frame. Returns false on clean EOF at a frame boundary; throws
/// std::runtime_error (naming the field and stream offset) on malformed
/// input.
bool read_frame(std::istream& in, Frame& out);

/// Parse an open-frame option payload: whitespace-separated `key=value`
/// tokens. Duplicate keys and tokens without '=' throw std::runtime_error
/// naming the token.
std::map<std::string, std::string> parse_options(const std::string& text);

}  // namespace tsvcod::serve
