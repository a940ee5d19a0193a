#include "streams/word_source.hpp"

#include <algorithm>
#include <bit>
#include <sstream>
#include <stdexcept>

#include "streams/trace_io.hpp"
#include "streams/word_stream.hpp"

namespace tsvcod::streams {

VectorWordSource::VectorWordSource(std::vector<std::uint64_t> words, std::size_t width,
                                   const std::string& source)
    : words_(std::move(words)), width_(width) {
  if (width_ == 0 || width_ > 64) {
    throw std::runtime_error("word_source: " + source + ": width " + std::to_string(width_) +
                             " out of range [1, 64]");
  }
}

std::span<const std::uint64_t> VectorWordSource::next_chunk() {
  if (done_) return {};
  done_ = true;
  return words_;
}

MappedTraceSource::MappedTraceSource(const std::string& path) : map_(path) {}

std::span<const std::uint64_t> MappedTraceSource::next_chunk() {
  if (done_) return {};
  done_ = true;
  return map_.words();
}

std::unique_ptr<WordSource> open_word_source(const std::string& path, std::size_t width) {
  if (file_looks_like_binary_trace(path)) {
    auto source = std::make_unique<MappedTraceSource>(path);
    if (width != 0 && source->width() != width) {
      std::ostringstream os;
      os << "word_source: " << path << ": binary trace width " << source->width()
         << " does not match the requested width " << width;
      throw std::runtime_error(os.str());
    }
    return source;
  }
  auto words = load_trace(path);
  std::uint64_t seen = 0;
  for (const auto w : words) seen |= w;
  const std::size_t widest = std::max<std::size_t>(1, std::bit_width(seen));
  if (width == 0) {
    width = widest;
  } else if (widest > width) {
    std::ostringstream os;
    os << "word_source: " << path << ": trace words use " << widest
       << " bits, wider than the requested width " << width;
    throw std::runtime_error(os.str());
  }
  return std::make_unique<VectorWordSource>(std::move(words), width, path);
}

std::vector<std::uint64_t> collect(WordSource& source) {
  source.reset();
  std::vector<std::uint64_t> out;
  out.reserve(static_cast<std::size_t>(source.size()));
  for (auto chunk = source.next_chunk(); !chunk.empty(); chunk = source.next_chunk()) {
    out.insert(out.end(), chunk.begin(), chunk.end());
  }
  return out;
}

}  // namespace tsvcod::streams
