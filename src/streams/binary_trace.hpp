#pragma once
// Versioned binary word-trace format (.tsvb) with a zero-copy mmap reader.
//
// The text format (trace_io) stays the human-facing interchange; this is the
// bulk format for traces long enough that parsing dominates statistics. The
// layout is a fixed 32-byte header followed by the words packed as
// little-endian uint64:
//
//   offset  size  field
//        0     8  magic  74 73 76 62 0D 0A 1A 0A  ("tsvb", CRLF/ctrl-Z guard
//                 bytes in the PNG style: newline translation or an accidental
//                 text-mode read corrupts the magic and is caught immediately)
//        8     4  format version (LE u32, currently 1)
//       12     4  line width in bits (LE u32, 1..64)
//       16     8  word count N (LE u64)
//       24     8  seed / provenance tag (LE u64, opaque to the reader)
//       32   8*N  words, LE u64 each; bits at or above `width` must be zero
//
// The 32-byte header keeps the payload 8-byte aligned in any aligned buffer
// (mmap returns page-aligned maps), so `parse_binary_trace` can hand back a
// `std::span<const std::uint64_t>` aliasing the file bytes — no copy, no
// intermediate vector — which feeds the chunked bit-plane reduction directly.
//
// Versioning policy: the version field is bumped on any layout change; a
// reader rejects versions it does not know (no silent best-effort parse).
// Byte order is little-endian on disk, full stop. The zero-copy read path
// requires a little-endian host (checked at runtime with a clear error);
// supporting big-endian hosts would mean a byteswapping copy, which defeats
// the format's purpose — such hosts should convert via the text format.
//
// Every malformed input — short header, bad magic, unknown version, width
// out of [1, 64], payload disagreeing with the declared count, misaligned
// buffer, nonzero bits above the width — raises std::runtime_error naming
// the source; nothing is ever silently truncated or misparsed.

#include <array>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

namespace tsvcod::streams {

inline constexpr std::array<unsigned char, 8> kBinaryTraceMagic = {'t',  's',  'v',  'b',
                                                                   0x0D, 0x0A, 0x1A, 0x0A};
inline constexpr std::uint32_t kBinaryTraceVersion = 1;
inline constexpr std::size_t kBinaryTraceHeaderBytes = 32;

struct BinaryTraceHeader {
  std::uint32_t version = kBinaryTraceVersion;
  std::size_t width = 0;
  std::uint64_t word_count = 0;
  std::uint64_t seed = 0;  ///< provenance tag, opaque to the reader
};

/// Parsed view of an in-memory .tsvb image. `words` aliases the parsed
/// buffer; it is valid only as long as that buffer lives.
struct BinaryTraceView {
  BinaryTraceHeader header;
  std::span<const std::uint64_t> words;
};

/// True when `data` starts with the .tsvb magic (needs >= 8 bytes).
bool looks_like_binary_trace(const unsigned char* data, std::size_t size);

/// Sniff the first bytes of `path`; throws std::runtime_error if the file
/// cannot be opened. A short or unreadable-as-binary file returns false.
bool file_looks_like_binary_trace(const std::string& path);

/// Validate a complete in-memory image and return a zero-copy view. The
/// payload must be 8-byte aligned within `bytes` (mmap and any aligned
/// allocation satisfy this). Throws std::runtime_error naming `source` on
/// any malformation.
BinaryTraceView parse_binary_trace(std::span<const std::byte> bytes,
                                   const std::string& source = "<memory>");

/// Serialize `words` (all bits above `width` must be zero: errors name the
/// first offending word). The stream must be binary-mode.
void save_binary_trace(std::ostream& os, std::span<const std::uint64_t> words, std::size_t width,
                       std::uint64_t seed = 0);
void save_binary_trace(const std::string& path, std::span<const std::uint64_t> words,
                       std::size_t width, std::uint64_t seed = 0);

/// Streaming writer: the header goes out with a placeholder count that
/// close() patches once the real count is known, so arbitrarily long traces
/// stream through without being materialized. Words are staged in a small
/// buffer; every path validates the width invariant. close() (or the
/// destructor, best-effort) finalizes the file; only close() reports errors.
class BinaryTraceWriter {
 public:
  BinaryTraceWriter(const std::string& path, std::size_t width, std::uint64_t seed = 0);
  ~BinaryTraceWriter();
  BinaryTraceWriter(const BinaryTraceWriter&) = delete;
  BinaryTraceWriter& operator=(const BinaryTraceWriter&) = delete;

  void write(std::uint64_t word);
  void write(std::span<const std::uint64_t> words);
  /// Flush, patch the header word count and close. Throws on I/O failure.
  void close();

  std::uint64_t written() const { return count_; }

 private:
  void flush_buffer();

  std::string path_;
  std::ofstream os_;
  std::size_t width_;
  std::uint64_t mask_;
  std::uint64_t count_ = 0;
  bool closed_ = false;
  std::vector<std::uint64_t> buffer_;
};

/// Read-only memory map of a .tsvb file, parsed and validated on open. On
/// POSIX the words() span aliases the mapped pages (zero-copy, advised for
/// sequential access); elsewhere the file is read into an aligned buffer.
class MappedTrace {
 public:
  explicit MappedTrace(const std::string& path);
  ~MappedTrace();
  MappedTrace(const MappedTrace&) = delete;
  MappedTrace& operator=(const MappedTrace&) = delete;

  const BinaryTraceHeader& header() const { return view_.header; }
  std::span<const std::uint64_t> words() const { return view_.words; }
  /// Total file size in bytes (header + payload).
  std::size_t bytes() const { return size_; }

 private:
  void unmap() noexcept;

  void* map_ = nullptr;  ///< non-null iff mmap-backed
  std::size_t size_ = 0;
  std::vector<std::uint64_t> fallback_;  ///< aligned copy when not mmap-backed
  BinaryTraceView view_;
};

}  // namespace tsvcod::streams
