#include "streams/trace_io.hpp"

#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

namespace tsvcod::streams {

std::vector<std::uint64_t> parse_trace(std::istream& is, const std::string& source) {
  std::vector<std::uint64_t> words;
  std::string line;
  std::size_t lineno = 0;
  std::size_t line_offset = 0;  // byte offset of the current line's start
  std::optional<std::uint64_t> declared;
  // Line endings: the token trim strips a CR, so CRLF files parse exactly
  // like LF files, and getline delivers a final line without a trailing
  // newline like any other — both covered by regression tests in test_io.
  while (std::getline(is, line)) {
    ++lineno;
    const std::size_t this_offset = line_offset;
    line_offset += line.size() + 1;  // getline consumed the '\n' too
    const auto pos = line.find_first_not_of(" \t\r");
    if (pos == std::string::npos || line[pos] == '#') continue;
    const std::string tok = line.substr(pos, line.find_last_not_of(" \t\r") - pos + 1);
    try {
      // Optional "words <N>" count directive (save_trace emits one): lets
      // the parser reject a truncated or padded file instead of silently
      // folding a short read into statistics.
      if (tok.rfind("words", 0) == 0 && (tok.size() == 5 || tok[5] == ' ' || tok[5] == '\t')) {
        if (declared) throw std::invalid_argument("duplicate words directive");
        const auto vpos = tok.find_first_not_of(" \t", 5);
        if (vpos == std::string::npos) throw std::invalid_argument("words directive needs a count");
        const std::string count = tok.substr(vpos);
        if (count[0] == '-' || count[0] == '+') throw std::invalid_argument("signed count");
        std::size_t used = 0;
        declared = std::stoull(count, &used, 10);
        if (used != count.size()) throw std::invalid_argument("trailing characters");
        continue;
      }
      // std::stoull silently accepts a sign and wraps "-1" to 2^64-1; words
      // are unsigned line patterns, so any signed token is malformed.
      if (tok[0] == '-' || tok[0] == '+') throw std::invalid_argument("signed word");
      std::size_t used = 0;
      const int base = tok.rfind("0x", 0) == 0 || tok.rfind("0X", 0) == 0 ? 16 : 10;
      const std::uint64_t v = std::stoull(tok, &used, base);
      if (used != tok.size()) throw std::invalid_argument("trailing characters");
      words.push_back(v);
    } catch (const std::exception&) {
      throw std::runtime_error("trace_io: bad word in " + source + " at line " +
                               std::to_string(lineno) + " (byte offset " +
                               std::to_string(this_offset + pos) + "): '" + tok + "'");
    }
  }
  if (declared && *declared != words.size()) {
    throw std::runtime_error("trace_io: " + source + ": declared word count " +
                             std::to_string(*declared) + " disagrees with the actual " +
                             std::to_string(words.size()) + " words (truncated or padded file)");
  }
  return words;
}

std::vector<std::uint64_t> load_trace(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("trace_io: cannot open: " + path);
  return parse_trace(is, path);
}

void save_trace(std::ostream& os, std::span<const std::uint64_t> words) {
  os << "# tsvcod word trace, one word per line\n";
  os << "words " << std::dec << words.size() << '\n' << std::hex;
  for (const auto w : words) os << "0x" << w << '\n';
}

void save_trace(const std::string& path, std::span<const std::uint64_t> words) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("trace_io: cannot open for writing: " + path);
  save_trace(os, words);
  os.flush();
  if (!os) throw std::runtime_error("trace_io: write failed: " + path);
}

}  // namespace tsvcod::streams
