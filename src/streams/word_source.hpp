#pragma once
// Uniform chunked access to word traces: text files, binary (.tsvb) files
// and in-memory vectors all surface as a WordSource, so the CLI and the
// statistics ingestion path (stats::compute_stats) consume any of them
// identically.
//
// Unlike WordStream (one word per simulated clock cycle, infinite replay), a
// WordSource is a *finite recorded trace* handed out as large contiguous
// spans. Chunks never overlap; the consumer carries the seam word between
// chunks itself (stats::ChunkFolder does exactly that), so a
// source backed by an mmap'd binary trace is consumed zero-copy.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "streams/binary_trace.hpp"

namespace tsvcod::streams {

class WordSource {
 public:
  virtual ~WordSource() = default;

  /// Declared line width in bits (1..64).
  virtual std::size_t width() const = 0;
  /// Total words in the trace.
  virtual std::uint64_t size() const = 0;
  /// Bytes of backing store (file or vector) — the ingest byte counters.
  virtual std::uint64_t bytes() const = 0;

  /// Next contiguous run of words; empty exactly once the trace is
  /// exhausted. Spans stay valid for the lifetime of the source.
  virtual std::span<const std::uint64_t> next_chunk() = 0;
  /// Rewind so next_chunk() starts over from the first word.
  virtual void reset() = 0;
};

/// An owned in-memory trace.
class VectorWordSource final : public WordSource {
 public:
  VectorWordSource(std::vector<std::uint64_t> words, std::size_t width,
                   const std::string& source = "<memory>");

  std::size_t width() const override { return width_; }
  std::uint64_t size() const override { return words_.size(); }
  std::uint64_t bytes() const override { return words_.size() * sizeof(std::uint64_t); }
  std::span<const std::uint64_t> next_chunk() override;
  void reset() override { done_ = false; }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t width_;
  bool done_ = false;
};

/// A memory-mapped .tsvb file whose whole payload is one chunk (maximally
/// parallel, zero-copy).
class MappedTraceSource final : public WordSource {
 public:
  explicit MappedTraceSource(const std::string& path);

  const BinaryTraceHeader& header() const { return map_.header(); }
  std::size_t width() const override { return map_.header().width; }
  std::uint64_t size() const override { return map_.words().size(); }
  std::uint64_t bytes() const override { return map_.bytes(); }
  std::span<const std::uint64_t> next_chunk() override;
  void reset() override { done_ = false; }

 private:
  MappedTrace map_;
  bool done_ = false;
};

/// Open `path` as whichever trace format it is: the .tsvb magic selects the
/// zero-copy mmap reader, anything else goes through the hardened text
/// parser. `width` 0 derives the width (binary: the header; text: the
/// widest word, at least 1); nonzero must match a binary header exactly and
/// every text word must fit it. Throws std::runtime_error naming the path.
std::unique_ptr<WordSource> open_word_source(const std::string& path, std::size_t width = 0);

/// Drain a whole source into a vector (resets it first; used by consumers
/// that genuinely need random access, e.g. stateful codec encoding).
std::vector<std::uint64_t> collect(WordSource& source);

}  // namespace tsvcod::streams
