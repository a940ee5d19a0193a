// Unit tests for the .tsvb binary trace format: header validation, the
// zero-copy mmap reader, the streaming writer, chunked ingestion across
// seam-word boundaries, and the acceptance criterion of the format — the
// statistics of an mmap'd trace are bit-identical to the text-loaded vector
// path at every width and thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "stats/bitplane.hpp"
#include "stats/ingest.hpp"
#include "stats/switching_stats.hpp"
#include "streams/binary_trace.hpp"
#include "streams/trace_io.hpp"
#include "streams/word_source.hpp"
#include "streams/word_stream.hpp"

namespace {

using namespace tsvcod;

std::vector<std::uint64_t> make_trace(std::size_t width, std::size_t count,
                                      std::uint64_t seed = 1) {
  std::mt19937_64 rng(seed);
  const std::uint64_t mask = streams::width_mask(width);
  std::vector<std::uint64_t> words(count);
  std::uint64_t cur = rng() & mask;
  for (auto& w : words) {
    // Sticky toggles: realistic switching activity, exercises every plane.
    cur ^= rng() & rng() & mask;
    w = cur;
  }
  return words;
}

std::string serialize(const std::vector<std::uint64_t>& words, std::size_t width,
                      std::uint64_t seed = 0) {
  std::ostringstream os;
  streams::save_binary_trace(os, words, width, seed);
  return os.str();
}

/// Parse an image from an 8-aligned staging buffer (what mmap guarantees).
streams::BinaryTraceView parse_bytes(const std::string& image,
                                     std::vector<std::uint64_t>& storage) {
  storage.assign(image.size() / 8 + 1, 0);
  std::memcpy(storage.data(), image.data(), image.size());
  return streams::parse_binary_trace(
      {reinterpret_cast<const std::byte*>(storage.data()), image.size()});
}

std::string temp_path(const std::string& name) { return ::testing::TempDir() + name; }

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(os) << path;
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(os.good());
}

// --- Serialization round-trips ---------------------------------------------

TEST(BinaryTrace, SaveParseRoundTrip) {
  const auto words = make_trace(17, 333);
  const std::string image = serialize(words, 17, 0xFEEDu);
  EXPECT_EQ(image.size(), streams::kBinaryTraceHeaderBytes + 8 * words.size());

  std::vector<std::uint64_t> storage;
  const auto view = parse_bytes(image, storage);
  EXPECT_EQ(view.header.version, streams::kBinaryTraceVersion);
  EXPECT_EQ(view.header.width, 17u);
  EXPECT_EQ(view.header.word_count, words.size());
  EXPECT_EQ(view.header.seed, 0xFEEDu);
  EXPECT_EQ(std::vector<std::uint64_t>(view.words.begin(), view.words.end()), words);
}

TEST(BinaryTrace, ParseSaveIsByteIdentical) {
  const auto words = make_trace(64, 100, 7);
  const std::string image = serialize(words, 64, 42);
  std::vector<std::uint64_t> storage;
  const auto view = parse_bytes(image, storage);
  std::ostringstream os;
  streams::save_binary_trace(os, view.words, view.header.width, view.header.seed);
  EXPECT_EQ(os.str(), image);
}

TEST(BinaryTrace, ZeroWordImageParses) {
  const std::string image = serialize({}, 8);
  std::vector<std::uint64_t> storage;
  const auto view = parse_bytes(image, storage);
  EXPECT_EQ(view.header.word_count, 0u);
  EXPECT_TRUE(view.words.empty());
}

TEST(BinaryTrace, SaveRejectsOverwideWords) {
  EXPECT_THROW(serialize({0x2, 0x1}, 1), std::runtime_error);
  try {
    serialize({0x1, 0x1F}, 4);
    FAIL() << "expected overwide rejection";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("word 1"), std::string::npos) << msg;
  }
}

// --- Malformed-input rejection ---------------------------------------------

TEST(BinaryTrace, RejectsBadMagic) {
  std::string image = serialize(make_trace(8, 4), 8);
  image[2] ^= 0x40;
  std::vector<std::uint64_t> storage;
  EXPECT_THROW(parse_bytes(image, storage), std::runtime_error);
}

TEST(BinaryTrace, RejectsUnsupportedVersion) {
  std::string image = serialize(make_trace(8, 4), 8);
  image[8] = 2;  // version LE u32 at offset 8
  std::vector<std::uint64_t> storage;
  try {
    parse_bytes(image, storage);
    FAIL() << "expected version rejection";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("version 2"), std::string::npos) << msg;
  }
}

TEST(BinaryTrace, RejectsWidthOutOfRange) {
  for (const unsigned char w : {0, 65, 200}) {
    std::string image = serialize(make_trace(8, 4), 8);
    image[12] = static_cast<char>(w);  // width LE u32 at offset 12
    std::vector<std::uint64_t> storage;
    EXPECT_THROW(parse_bytes(image, storage), std::runtime_error) << static_cast<int>(w);
  }
}

TEST(BinaryTrace, RejectsTruncatedHeader) {
  const std::string image = serialize(make_trace(8, 4), 8);
  for (const std::size_t keep : {0u, 7u, 31u}) {
    std::vector<std::uint64_t> storage;
    EXPECT_THROW(parse_bytes(image.substr(0, keep), storage), std::runtime_error) << keep;
  }
}

TEST(BinaryTrace, RejectsCountPayloadDisagreementNamingCounts) {
  // Truncated payload: 4 declared, 3 present.
  std::string image = serialize(make_trace(8, 4), 8);
  image.resize(image.size() - 8);
  std::vector<std::uint64_t> storage;
  try {
    parse_bytes(image, storage);
    FAIL() << "expected truncation rejection";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("32"), std::string::npos) << msg;  // expected payload bytes
    EXPECT_NE(msg.find("24"), std::string::npos) << msg;  // actual payload bytes
  }
  // Trailing bytes past the declared payload, including whole extra words.
  std::string padded = serialize(make_trace(8, 4), 8) + std::string(3, '\0');
  EXPECT_THROW(parse_bytes(padded, storage), std::runtime_error);
  std::string extra_word = serialize(make_trace(8, 4), 8) + std::string(8, '\0');
  EXPECT_THROW(parse_bytes(extra_word, storage), std::runtime_error);
}

TEST(BinaryTrace, RejectsMisalignedBuffer) {
  const std::string image = serialize(make_trace(8, 4), 8);
  std::vector<std::uint64_t> storage(image.size() / 8 + 2, 0);
  auto* base = reinterpret_cast<unsigned char*>(storage.data());
  std::memcpy(base + 1, image.data(), image.size());
  EXPECT_THROW(streams::parse_binary_trace(
                   {reinterpret_cast<const std::byte*>(base + 1), image.size()}),
               std::runtime_error);
}

TEST(BinaryTrace, RejectsBitsAboveDeclaredWidth) {
  std::string image = serialize(make_trace(8, 4), 8);
  image[streams::kBinaryTraceHeaderBytes + 8 + 2] = '\x40';  // word 1, bit 22
  std::vector<std::uint64_t> storage;
  try {
    parse_bytes(image, storage);
    FAIL() << "expected overwide-word rejection";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("word 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("width 8"), std::string::npos) << msg;
  }
}

// --- Streaming writer -------------------------------------------------------

TEST(BinaryTraceWriter, MatchesOneShotSaveByteForByte) {
  const auto words = make_trace(23, 5000, 3);
  const std::string path = temp_path("writer_vs_save.tsvb");
  streams::BinaryTraceWriter writer(path, 23, 99);
  // Mix single-word and bulk writes, straddling the internal buffer size.
  writer.write(words[0]);
  writer.write(std::span<const std::uint64_t>(words).subspan(1, 4000));
  for (std::size_t i = 4001; i < words.size(); ++i) writer.write(words[i]);
  EXPECT_EQ(writer.written(), words.size());
  writer.close();

  std::ifstream is(path, std::ios::binary);
  std::string on_disk((std::istreambuf_iterator<char>(is)), std::istreambuf_iterator<char>());
  EXPECT_EQ(on_disk, serialize(words, 23, 99));
}

TEST(BinaryTraceWriter, RejectsOverwideWordAndBadWidth) {
  EXPECT_THROW(streams::BinaryTraceWriter(temp_path("w0.tsvb"), 0), std::runtime_error);
  EXPECT_THROW(streams::BinaryTraceWriter(temp_path("w65.tsvb"), 65), std::runtime_error);
  streams::BinaryTraceWriter writer(temp_path("wn.tsvb"), 4);
  EXPECT_THROW(writer.write(0x10), std::runtime_error);
}

// --- Memory-mapped reader ---------------------------------------------------

TEST(MappedTrace, OpensAndAliasesFile) {
  const auto words = make_trace(32, 1000, 11);
  const std::string path = temp_path("mapped.tsvb");
  streams::save_binary_trace(path, words, 32, 5);
  streams::MappedTrace map(path);
  EXPECT_EQ(map.header().width, 32u);
  EXPECT_EQ(map.header().seed, 5u);
  EXPECT_EQ(map.bytes(), streams::kBinaryTraceHeaderBytes + 8 * words.size());
  EXPECT_EQ(std::vector<std::uint64_t>(map.words().begin(), map.words().end()), words);
}

TEST(MappedTrace, ErrorsNameThePath) {
  const std::string missing = temp_path("does_not_exist.tsvb");
  try {
    streams::MappedTrace map(missing);
    FAIL() << "expected open failure";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(missing), std::string::npos) << e.what();
  }
  const std::string garbage = temp_path("garbage.tsvb");
  write_file(garbage, "certainly not a binary trace\n");
  EXPECT_THROW(streams::MappedTrace{garbage}, std::runtime_error);
}

TEST(MappedTrace, ZeroWordFileOpens) {
  const std::string path = temp_path("empty.tsvb");
  streams::save_binary_trace(path, {}, 12, 0);
  streams::MappedTrace map(path);
  EXPECT_TRUE(map.words().empty());
  // Statistics of an empty source are rejected at finalize (needs >= 2 words).
  streams::MappedTraceSource source(path);
  EXPECT_THROW(stats::compute_stats(source, 12), std::logic_error);
}

// --- Chunked ingestion and seam-word priming --------------------------------

TEST(Ingest, ChunkedSourceMatchesWholeTraceBitwise) {
  // Chunks far smaller than the trace force many seam-word primes, including
  // seams that land inside 64-word blocks and mid-block tails.
  const auto words = make_trace(19, 2113, 13);
  const auto whole = stats::compute_stats(words, 19);

  const std::string path = temp_path("chunked.tsvb");
  streams::save_binary_trace(path, words, 19);
  streams::MappedTraceSource source(path);
  const auto mapped = source.next_chunk();
  ASSERT_EQ(mapped.size(), words.size());
  for (const std::size_t chunk : {1u, 2u, 63u, 64u, 65u, 256u, 1000u}) {
    stats::ChunkFolder folder(19);
    for (std::size_t pos = 0; pos < mapped.size(); pos += chunk) {
      folder.fold(mapped.subspan(pos, std::min(chunk, mapped.size() - pos)));
    }
    const auto got = folder.counts().finalize();
    ASSERT_EQ(got.transitions, whole.transitions) << "chunk=" << chunk;
    for (std::size_t i = 0; i < 19; ++i) {
      ASSERT_EQ(got.prob_one[i], whole.prob_one[i]) << "chunk=" << chunk;
      ASSERT_EQ(got.self[i], whole.self[i]) << "chunk=" << chunk;
      for (std::size_t j = 0; j < 19; ++j) {
        ASSERT_EQ(got.coupling(i, j), whole.coupling(i, j))
            << "chunk=" << chunk << " i=" << i << " j=" << j;
      }
    }
  }
}

TEST(Ingest, PrimedCountsComposeAcrossSplits) {
  const auto words = make_trace(9, 301, 17);
  const auto whole = stats::compute_counts(words, 9);
  for (const std::size_t split : {1u, 64u, 65u, 150u, 300u}) {
    const std::span<const std::uint64_t> all(words);
    // Two tumbling windows split at `split`: the second starts its chain at
    // the seam word, and the window counts merge to the whole trace.
    stats::ChunkFolder folder(9);
    folder.fold(all.subspan(0, split));
    auto counts = folder.counts();
    folder.reset_window();
    folder.fold(all.subspan(split));
    counts.merge(folder.counts());
    EXPECT_EQ(counts.words, whole.words) << split;
    EXPECT_EQ(counts.transitions, whole.transitions) << split;
    EXPECT_EQ(counts.ones, whole.ones) << split;
    EXPECT_EQ(counts.self, whole.self) << split;
    EXPECT_EQ(counts.cross, whole.cross) << split;
  }
}

// --- The acceptance criterion: mmap path == text path, bit for bit ----------

TEST(Ingest, MmapMatchesTextVectorPathAtEveryWidthAndThreadCount) {
  for (std::size_t width = 1; width <= 64; ++width) {
    const auto words = make_trace(width, 2100 + width, width);

    const std::string tpath = temp_path("xw_text.txt");
    streams::save_trace(tpath, words);
    const auto text_words = streams::load_trace(tpath);
    ASSERT_EQ(text_words, words) << "width=" << width;

    const std::string bpath = temp_path("xw_bin.tsvb");
    streams::save_binary_trace(bpath, words, width);

    for (const int threads : {1, 2, 8}) {
      const auto from_text = stats::compute_stats(text_words, width, threads);
      streams::MappedTraceSource source(bpath);
      const auto from_mmap = stats::compute_stats(source, width, threads);
      ASSERT_EQ(from_mmap.transitions, from_text.transitions)
          << "width=" << width << " threads=" << threads;
      for (std::size_t i = 0; i < width; ++i) {
        ASSERT_EQ(from_mmap.prob_one[i], from_text.prob_one[i])
            << "width=" << width << " threads=" << threads << " i=" << i;
        ASSERT_EQ(from_mmap.self[i], from_text.self[i])
            << "width=" << width << " threads=" << threads << " i=" << i;
        for (std::size_t j = 0; j < width; ++j) {
          ASSERT_EQ(from_mmap.coupling(i, j), from_text.coupling(i, j))
              << "width=" << width << " threads=" << threads << " i=" << i << " j=" << j;
        }
      }
    }
  }
}

// --- Format sniffing and the WordSource front door --------------------------

TEST(WordSource, OpensEitherFormat) {
  const auto words = make_trace(10, 50, 23);
  const std::string tpath = temp_path("sniff.txt");
  const std::string bpath = temp_path("sniff.tsvb");
  streams::save_trace(tpath, words);
  streams::save_binary_trace(bpath, words, 10);

  EXPECT_FALSE(streams::file_looks_like_binary_trace(tpath));
  EXPECT_TRUE(streams::file_looks_like_binary_trace(bpath));

  auto text_source = streams::open_word_source(tpath);
  auto bin_source = streams::open_word_source(bpath);
  EXPECT_EQ(bin_source->width(), 10u);
  EXPECT_EQ(streams::collect(*text_source), words);
  EXPECT_EQ(streams::collect(*bin_source), words);
}

TEST(WordSource, WidthRules) {
  const std::vector<std::uint64_t> words{0x3, 0x1F, 0x0};  // widest = 5 bits
  const std::string tpath = temp_path("width.txt");
  const std::string bpath = temp_path("width.tsvb");
  streams::save_trace(tpath, words);
  streams::save_binary_trace(bpath, words, 5);

  EXPECT_EQ(streams::open_word_source(tpath)->width(), 5u);   // derived
  EXPECT_EQ(streams::open_word_source(tpath, 12)->width(), 12u);  // widened
  EXPECT_THROW(streams::open_word_source(tpath, 4), std::runtime_error);  // too narrow
  EXPECT_EQ(streams::open_word_source(bpath, 5)->width(), 5u);
  EXPECT_THROW(streams::open_word_source(bpath, 12), std::runtime_error);  // must match
}

TEST(WordSource, VectorSourceValidatesWidth) {
  EXPECT_THROW(streams::VectorWordSource({1, 2}, 0), std::runtime_error);
  EXPECT_THROW(streams::VectorWordSource({1, 2}, 65), std::runtime_error);
  streams::VectorWordSource source({1, 2, 3}, 2);
  EXPECT_EQ(streams::collect(source), (std::vector<std::uint64_t>{1, 2, 3}));
  // collect() resets, so a second drain sees the words again.
  EXPECT_EQ(streams::collect(source), (std::vector<std::uint64_t>{1, 2, 3}));
}

}  // namespace
