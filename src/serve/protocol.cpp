#include "serve/protocol.hpp"

#include <array>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>

namespace tsvcod::serve {

namespace {

std::uint32_t load_u32le(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t load_u64le(const unsigned char* p) {
  return static_cast<std::uint64_t>(load_u32le(p)) |
         (static_cast<std::uint64_t>(load_u32le(p + 4)) << 32);
}

bool valid_type(std::uint8_t t) {
  switch (static_cast<FrameType>(t)) {
    case FrameType::open:
    case FrameType::data:
    case FrameType::stats:
    case FrameType::close:
    case FrameType::shutdown: return true;
  }
  return false;
}

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("serve: malformed frame: " + what);
}

}  // namespace

bool read_frame(std::istream& in, Frame& out) {
  std::array<unsigned char, 12> header;
  in.read(reinterpret_cast<char*>(header.data()), static_cast<std::streamsize>(header.size()));
  if (in.gcount() == 0 && (in.eof() || !in.good())) {
    return false;  // clean EOF at a frame boundary
  }
  if (in.gcount() != static_cast<std::streamsize>(header.size())) {
    fail("truncated header (EOF mid-frame after " + std::to_string(in.gcount()) +
         " of 12 header bytes)");
  }

  const std::uint32_t payload_len = load_u32le(header.data());
  const std::uint8_t type = header[4];
  if (!valid_type(type)) {
    fail("unknown frame type 0x" + [&] {
      char buf[8];
      std::snprintf(buf, sizeof buf, "%02x", type);
      return std::string(buf);
    }());
  }
  if (header[5] != 0 || header[6] != 0 || header[7] != 0) fail("nonzero reserved header bytes");
  if (payload_len > kMaxFramePayload) {
    fail("payload length " + std::to_string(payload_len) + " exceeds 64 MiB cap");
  }

  out.type = static_cast<FrameType>(type);
  out.session = load_u32le(header.data() + 8);
  out.text.clear();

  if (out.type == FrameType::data && payload_len % 8 != 0) {
    fail("data payload length " + std::to_string(payload_len) + " is not a multiple of 8");
  }

  // A data payload lands in `words` itself (a frame as long as the last one
  // reuses the buffer as is) and is converted from little-endian in place;
  // any other payload lands in `text`.
  char* dest = nullptr;
  if (out.type == FrameType::data) {
    out.words.resize(payload_len / 8);
    dest = reinterpret_cast<char*>(out.words.data());
  } else {
    out.words.clear();
    out.text.resize(payload_len);
    dest = out.text.data();
  }
  if (payload_len > 0) {
    in.read(dest, static_cast<std::streamsize>(payload_len));
    if (in.gcount() != static_cast<std::streamsize>(payload_len)) {
      fail("truncated payload (EOF after " + std::to_string(in.gcount()) + " of " +
           std::to_string(payload_len) + " payload bytes)");
    }
  }

  switch (out.type) {
    case FrameType::data:
      for (std::uint64_t& w : out.words) w = load_u64le(reinterpret_cast<const unsigned char*>(&w));
      break;
    case FrameType::open: break;
    case FrameType::stats:
    case FrameType::close:
    case FrameType::shutdown:
      if (payload_len != 0) {
        fail("unexpected " + std::to_string(payload_len) + "-byte payload on control frame '" +
             static_cast<char>(type) + "'");
      }
      break;
  }
  return true;
}

std::map<std::string, std::string> parse_options(const std::string& text) {
  std::map<std::string, std::string> opts;
  std::istringstream in(text);
  std::string token;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::runtime_error("serve: open option '" + token + "' is not key=value");
    }
    std::string key = token.substr(0, eq);
    if (opts.count(key) != 0) {
      throw std::runtime_error("serve: duplicate open option '" + key + "'");
    }
    opts.emplace(std::move(key), token.substr(eq + 1));
  }
  return opts;
}

}  // namespace tsvcod::serve
