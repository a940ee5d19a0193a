#include "streams/binary_trace.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "streams/word_stream.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define TSVCOD_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#endif

namespace tsvcod::streams {

namespace {

[[noreturn]] void fail(const std::string& source, const std::string& what) {
  throw std::runtime_error("binary_trace: " + source + ": " + what);
}

void require_little_endian(const std::string& source) {
  if constexpr (std::endian::native != std::endian::little) {
    fail(source,
         "the zero-copy .tsvb path requires a little-endian host; convert via the text format");
  }
}

std::uint32_t read_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t read_le64(const unsigned char* p) {
  return static_cast<std::uint64_t>(read_le32(p)) |
         static_cast<std::uint64_t>(read_le32(p + 4)) << 32;
}

void write_le32(unsigned char* p, std::uint32_t v) {
  p[0] = static_cast<unsigned char>(v);
  p[1] = static_cast<unsigned char>(v >> 8);
  p[2] = static_cast<unsigned char>(v >> 16);
  p[3] = static_cast<unsigned char>(v >> 24);
}

void write_le64(unsigned char* p, std::uint64_t v) {
  write_le32(p, static_cast<std::uint32_t>(v));
  write_le32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

std::array<unsigned char, kBinaryTraceHeaderBytes> make_header(std::size_t width,
                                                               std::uint64_t count,
                                                               std::uint64_t seed) {
  std::array<unsigned char, kBinaryTraceHeaderBytes> h{};
  std::copy(kBinaryTraceMagic.begin(), kBinaryTraceMagic.end(), h.begin());
  write_le32(h.data() + 8, kBinaryTraceVersion);
  write_le32(h.data() + 12, static_cast<std::uint32_t>(width));
  write_le64(h.data() + 16, count);
  write_le64(h.data() + 24, seed);
  return h;
}

void check_width(std::size_t width, const std::string& source) {
  if (width == 0 || width > 64) {
    fail(source, "width " + std::to_string(width) + " out of range [1, 64]");
  }
}

/// First index whose word has bits at or above `width`, or npos.
std::size_t first_overwide_word(std::span<const std::uint64_t> words, std::size_t width) {
  const std::uint64_t bad = ~width_mask(width);
  if (bad == 0) return std::string::npos;
  std::uint64_t seen = 0;
  for (const auto w : words) seen |= w;
  if ((seen & bad) == 0) return std::string::npos;
  for (std::size_t i = 0; i < words.size(); ++i) {
    if ((words[i] & bad) != 0) return i;
  }
  return std::string::npos;
}

}  // namespace

bool looks_like_binary_trace(const unsigned char* data, std::size_t size) {
  return size >= kBinaryTraceMagic.size() &&
         std::equal(kBinaryTraceMagic.begin(), kBinaryTraceMagic.end(), data);
}

bool file_looks_like_binary_trace(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("binary_trace: cannot open: " + path);
  unsigned char head[kBinaryTraceMagic.size()] = {};
  is.read(reinterpret_cast<char*>(head), sizeof(head));
  return is.gcount() == static_cast<std::streamsize>(sizeof(head)) &&
         looks_like_binary_trace(head, sizeof(head));
}

BinaryTraceView parse_binary_trace(std::span<const std::byte> bytes, const std::string& source) {
  require_little_endian(source);
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  if (bytes.size() < kBinaryTraceHeaderBytes) {
    fail(source, "truncated header: " + std::to_string(bytes.size()) + " bytes, need " +
                     std::to_string(kBinaryTraceHeaderBytes));
  }
  if (!looks_like_binary_trace(p, bytes.size())) {
    fail(source, "bad magic (not a .tsvb binary trace)");
  }
  BinaryTraceView view;
  view.header.version = read_le32(p + 8);
  if (view.header.version != kBinaryTraceVersion) {
    fail(source, "unsupported format version " + std::to_string(view.header.version) +
                     " (this reader knows version " + std::to_string(kBinaryTraceVersion) + ")");
  }
  view.header.width = read_le32(p + 12);
  check_width(view.header.width, source);
  view.header.word_count = read_le64(p + 16);
  view.header.seed = read_le64(p + 24);

  const std::size_t payload = bytes.size() - kBinaryTraceHeaderBytes;
  const std::uint64_t whole_words = payload / 8;
  if (payload % 8 != 0 || whole_words != view.header.word_count) {
    std::ostringstream os;
    os << "declared word count " << view.header.word_count
       << " disagrees with the actual payload: expected " << view.header.word_count * 8
       << " payload bytes, have " << payload << " (" << whole_words << " whole words";
    if (payload % 8 != 0) os << " + " << payload % 8 << " trailing bytes";
    os << ")";
    fail(source, os.str());
  }
  const auto* words_begin = p + kBinaryTraceHeaderBytes;
  if (reinterpret_cast<std::uintptr_t>(words_begin) % alignof(std::uint64_t) != 0) {
    fail(source, "payload is not 8-byte aligned in this buffer (zero-copy reads need an aligned "
                 "image; the header is 32 bytes exactly so any aligned buffer works)");
  }
  view.words = std::span<const std::uint64_t>(reinterpret_cast<const std::uint64_t*>(words_begin),
                                              static_cast<std::size_t>(whole_words));
  if (const std::size_t i = first_overwide_word(view.words, view.header.width);
      i != std::string::npos) {
    std::ostringstream os;
    os << "word " << i << " (0x" << std::hex << view.words[i] << std::dec
       << ") has bits at or above the declared width " << view.header.width;
    fail(source, os.str());
  }
  return view;
}

void save_binary_trace(std::ostream& os, std::span<const std::uint64_t> words, std::size_t width,
                       std::uint64_t seed) {
  require_little_endian("<save>");
  check_width(width, "<save>");
  if (const std::size_t i = first_overwide_word(words, width); i != std::string::npos) {
    std::ostringstream msg;
    msg << "word " << i << " (0x" << std::hex << words[i] << std::dec
        << ") has bits at or above width " << width;
    fail("<save>", msg.str());
  }
  const auto header = make_header(width, words.size(), seed);
  os.write(reinterpret_cast<const char*>(header.data()), static_cast<std::streamsize>(header.size()));
  // Little-endian host (checked above): the in-memory representation is the
  // on-disk representation.
  os.write(reinterpret_cast<const char*>(words.data()),
           static_cast<std::streamsize>(words.size() * sizeof(std::uint64_t)));
}

void save_binary_trace(const std::string& path, std::span<const std::uint64_t> words,
                       std::size_t width, std::uint64_t seed) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) fail(path, "cannot open for writing");
  save_binary_trace(os, words, width, seed);
  os.flush();
  if (!os) fail(path, "write failed");
}

// ---------------------------------------------------------------------------
// Streaming writer
// ---------------------------------------------------------------------------

BinaryTraceWriter::BinaryTraceWriter(const std::string& path, std::size_t width,
                                     std::uint64_t seed)
    : path_(path), width_(width), mask_(width_mask(width)) {
  require_little_endian(path);
  check_width(width, path);
  os_.open(path, std::ios::binary | std::ios::trunc);
  if (!os_) fail(path, "cannot open for writing");
  const auto header = make_header(width, 0, seed);  // count patched by close()
  os_.write(reinterpret_cast<const char*>(header.data()),
            static_cast<std::streamsize>(header.size()));
  buffer_.reserve(4096);
}

BinaryTraceWriter::~BinaryTraceWriter() {
  try {
    if (!closed_) close();
  } catch (...) {
    // Destructor close is best-effort; call close() to observe failures.
  }
}

void BinaryTraceWriter::write(std::uint64_t word) { write(std::span(&word, 1)); }

void BinaryTraceWriter::write(std::span<const std::uint64_t> words) {
  if (closed_) fail(path_, "write after close");
  for (std::size_t i = 0; i < words.size(); ++i) {
    if ((words[i] & ~mask_) != 0) {
      std::ostringstream os;
      os << "word " << count_ + i << " (0x" << std::hex << words[i] << std::dec
         << ") has bits at or above width " << width_;
      fail(path_, os.str());
    }
  }
  for (const auto w : words) {
    buffer_.push_back(w);
    if (buffer_.size() == buffer_.capacity()) flush_buffer();
  }
  count_ += words.size();
}

void BinaryTraceWriter::flush_buffer() {
  if (buffer_.empty()) return;
  os_.write(reinterpret_cast<const char*>(buffer_.data()),
            static_cast<std::streamsize>(buffer_.size() * sizeof(std::uint64_t)));
  buffer_.clear();
}

void BinaryTraceWriter::close() {
  if (closed_) return;
  closed_ = true;
  flush_buffer();
  // Patch the real word count into the header.
  os_.seekp(16);
  unsigned char le[8];
  write_le64(le, count_);
  os_.write(reinterpret_cast<const char*>(le), sizeof(le));
  os_.flush();
  if (!os_) fail(path_, "write failed");
  os_.close();
}

// ---------------------------------------------------------------------------
// Memory-mapped reader
// ---------------------------------------------------------------------------

MappedTrace::MappedTrace(const std::string& path) {
#if defined(TSVCOD_HAVE_MMAP)
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) fail(path, std::string("cannot open: ") + std::strerror(errno));
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    fail(path, std::string("fstat failed: ") + std::strerror(err));
  }
  size_ = static_cast<std::size_t>(st.st_size);
  if (size_ > 0) {
    void* map = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map == MAP_FAILED) {
      const int err = errno;
      ::close(fd);
      fail(path, std::string("mmap failed: ") + std::strerror(err));
    }
    map_ = map;
#if defined(POSIX_MADV_SEQUENTIAL)
    ::posix_madvise(map_, size_, POSIX_MADV_SEQUENTIAL);
#endif
  }
  ::close(fd);  // the mapping outlives the descriptor
  try {
    view_ = parse_binary_trace(
        std::span<const std::byte>(static_cast<const std::byte*>(map_), size_), path);
  } catch (...) {
    unmap();
    throw;
  }
#else
  // No mmap on this platform: read into an 8-byte-aligned buffer instead
  // (same validation, one copy).
  std::ifstream is(path, std::ios::binary);
  if (!is) fail(path, "cannot open");
  is.seekg(0, std::ios::end);
  size_ = static_cast<std::size_t>(is.tellg());
  is.seekg(0);
  fallback_.resize((size_ + sizeof(std::uint64_t) - 1) / sizeof(std::uint64_t));
  is.read(reinterpret_cast<char*>(fallback_.data()), static_cast<std::streamsize>(size_));
  if (is.gcount() != static_cast<std::streamsize>(size_)) fail(path, "short read");
  view_ = parse_binary_trace(
      std::span<const std::byte>(reinterpret_cast<const std::byte*>(fallback_.data()), size_),
      path);
#endif
}

MappedTrace::~MappedTrace() { unmap(); }

void MappedTrace::unmap() noexcept {
#if defined(TSVCOD_HAVE_MMAP)
  if (map_ != nullptr) {
    ::munmap(map_, size_);
    map_ = nullptr;
  }
#endif
}

}  // namespace tsvcod::streams
