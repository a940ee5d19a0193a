#pragma once
// Word-trace file I/O.
//
// Lets users feed *real* captured bus traces (the paper used camera images
// and smartphone sensor logs) into the optimizer without recompiling:
// one word per line, hexadecimal with 0x prefix or decimal, '#' comments
// and blank lines ignored. CRLF line endings and a final line without a
// trailing newline parse identically to plain LF. An optional `words <N>`
// directive (at most one; save_trace emits it) declares the word count, and
// a file whose actual count disagrees is rejected as truncated/padded.

#include <iosfwd>
#include <string>
#include <vector>

#include "streams/word_stream.hpp"

namespace tsvcod::streams {

/// Parse a trace; throws std::runtime_error on malformed lines. The error
/// message names `source` (a file path for load_trace) plus the line number
/// and byte offset of the offending token.
std::vector<std::uint64_t> parse_trace(std::istream& is, const std::string& source = "<stream>");
std::vector<std::uint64_t> load_trace(const std::string& path);

void save_trace(std::ostream& os, std::span<const std::uint64_t> words);
void save_trace(const std::string& path, std::span<const std::uint64_t> words);

}  // namespace tsvcod::streams
