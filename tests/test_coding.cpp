// Unit tests for the low-power codecs: Gray (with XNOR inversions),
// correlator/decorrelator, classic bus-invert and coupling-driven invert.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <random>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "coding/bus_invert.hpp"
#include "coding/codec.hpp"
#include "coding/correlator.hpp"
#include "coding/factory.hpp"
#include "coding/gray.hpp"
#include "coding/fibonacci.hpp"
#include "coding/popcount.hpp"
#include "coding/t0.hpp"
#include "streams/random_streams.hpp"

#include "reference.hpp"

namespace {

using namespace tsvcod;
using namespace tsvcod::coding;

TEST(Gray, RoundTripAllTenBitValues) {
  GrayCodec codec(10);
  for (std::uint64_t v = 0; v < 1024; ++v) {
    EXPECT_EQ(codec.decode(codec.encode(v)), v);
  }
}

TEST(Gray, DecodeMatchesTheBitwiseLoopAtEveryWidth) {
  // The decoder's prefix XOR against the XOR of `width` shifted copies, on
  // random words (unmasked high bits included) and random XNOR masks.
  std::mt19937_64 rng(33);
  for (std::size_t width = 1; width <= 64; ++width) {
    const std::uint64_t wm = width == 64 ? ~0ull : (1ull << width) - 1;
    const std::uint64_t mask = rng();
    GrayCodec codec(width, mask);
    for (int i = 0; i < 200; ++i) {
      const std::uint64_t word = rng();
      ASSERT_EQ(codec.decode(codec.encode(word)), word & wm) << "width " << width;
      ASSERT_EQ(codec.decode(word), reference::gray_to_binary_loop((word ^ mask) & wm, width))
          << "width " << width << " word " << word;
    }
  }
}

TEST(Gray, AdjacentValuesDifferInOneBit) {
  GrayCodec codec(12);
  for (std::uint64_t v = 0; v + 1 < 4096; ++v) {
    const auto a = codec.encode(v);
    const auto b = codec.encode(v + 1);
    EXPECT_EQ(std::popcount(a ^ b), 1) << "v=" << v;
  }
}

TEST(Gray, InversionMaskIsXnorRealization) {
  // Swapping XOR for XNOR on masked lines = XORing the plain code with the
  // mask. Switching activity must be untouched, 1-probabilities flipped.
  const std::uint64_t mask = 0b1010;
  GrayCodec plain(4);
  GrayCodec inverted(4, mask);
  for (std::uint64_t v = 0; v < 16; ++v) {
    EXPECT_EQ(inverted.encode(v), plain.encode(v) ^ mask);
    EXPECT_EQ(inverted.decode(inverted.encode(v)), v);
  }
}

TEST(Gray, StabilizesCorrelatedMsbs) {
  // Normally distributed data: Gray coding turns the sign-extension region
  // into nearly stable 0s (paper Sec. 6).
  streams::GaussianAr1Stream src(16, 300.0, 0.0, 3);
  GrayCodec codec(16);
  int msb_ones = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    msb_ones += (codec.encode(src.next()) >> 14) & 1u;
  }
  EXPECT_LT(static_cast<double>(msb_ones) / n, 0.05);
}

TEST(Correlator, RoundTripVariousPeriods) {
  for (const std::size_t period : {std::size_t{1}, std::size_t{3}, std::size_t{4}}) {
    CorrelatorCodec enc(8, period, 0b1100);
    CorrelatorCodec dec(8, period, 0b1100);
    std::mt19937_64 rng(period);
    for (int i = 0; i < 1000; ++i) {
      const std::uint64_t v = rng() & 0xFF;
      EXPECT_EQ(dec.decode(enc.encode(v)), v);
    }
  }
}

TEST(Correlator, CorrelatedChannelBecomesSparse) {
  // Slowly varying channel values -> decorrelated output nearly all zero.
  CorrelatorCodec enc(8, 1);
  std::uint64_t ones = 0;
  for (int i = 0; i < 1000; ++i) {
    // A channel that changes value only every 50 cycles.
    ones += std::popcount(enc.encode(static_cast<std::uint64_t>(128 + (i / 50) % 3)));
  }
  EXPECT_LT(ones, 100u);
}

TEST(Correlator, InversionMaskRaisesOnes) {
  CorrelatorCodec plain(8, 1);
  CorrelatorCodec inv(8, 1, 0xFF);
  std::uint64_t plain_ones = 0;
  std::uint64_t inv_ones = 0;
  for (int i = 0; i < 1000; ++i) {
    const auto v = static_cast<std::uint64_t>(100 + (i % 2));
    plain_ones += std::popcount(plain.encode(v));
    inv_ones += std::popcount(inv.encode(v));
  }
  EXPECT_GT(inv_ones, plain_ones);
}

TEST(Correlator, ResetClearsHistory) {
  CorrelatorCodec enc(8, 2);
  (void)enc.encode(0xAB);
  (void)enc.encode(0xCD);
  enc.reset();
  // After reset the first encode XORs against zero history again.
  EXPECT_EQ(enc.encode(0x55), 0x55u);
}

TEST(BusInvert, RoundTripAndToggleBound) {
  BusInvertCodec enc(8);
  BusInvertCodec dec(8);
  std::mt19937_64 rng(1);
  std::uint64_t prev_data = 0;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = rng() & 0xFF;
    const std::uint64_t code = enc.encode(v);
    EXPECT_EQ(dec.decode(code), v);
    // Classic bus-invert guarantee: at most width/2 data lines toggle.
    const std::uint64_t data = code & 0xFF;
    EXPECT_LE(std::popcount(data ^ prev_data), 4);
    prev_data = data;
  }
}

TEST(BusInvert, Popcount64MatchesStdPopcount) {
  // The inlined SWAR count behind the majority vote and the NoC's toggle
  // counts: every single bit, all ones, and random words of every density.
  EXPECT_EQ(popcount64(0), 0);
  EXPECT_EQ(popcount64(~std::uint64_t{0}), 64);
  for (unsigned b = 0; b < 64; ++b) EXPECT_EQ(popcount64(std::uint64_t{1} << b), 1) << b;
  std::mt19937_64 rng(7);
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t r = rng();
    const std::uint64_t w = i % 4 == 0 ? r & rng() : i % 4 == 1 ? r | rng() : r;
    EXPECT_EQ(popcount64(w), std::popcount(w)) << std::hex << w;
  }
}

TEST(BusInvert, WidthOutAddsFlag) {
  BusInvertCodec codec(7);
  EXPECT_EQ(codec.width_in(), 7u);
  EXPECT_EQ(codec.width_out(), 8u);
}

TEST(CouplingInvert, RoundTrip) {
  CouplingInvertCodec enc(7);
  CouplingInvertCodec dec(7);
  std::mt19937_64 rng(2);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = rng() & 0x7F;
    EXPECT_EQ(dec.decode(enc.encode(v)), v);
  }
}

TEST(CouplingInvert, ChoosesCheaperTransition) {
  CouplingInvertCodec probe(7);
  CouplingInvertCodec enc(7);
  std::mt19937_64 rng(3);
  std::uint64_t prev = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng() & 0x7F;
    const std::uint64_t plain = v;
    const std::uint64_t flipped = (~v & 0x7F) | 0x80;
    const double c_plain = probe.transition_cost(prev, plain);
    const double c_flip = probe.transition_cost(prev, flipped);
    const std::uint64_t chosen = enc.encode(v);
    const double c_chosen = probe.transition_cost(prev, chosen);
    EXPECT_LE(c_chosen, std::min(c_plain, c_flip) + 1e-12);
    prev = chosen;
  }
}

TEST(CouplingInvert, CostProperties) {
  CouplingInvertCodec codec(7, 2.0);
  EXPECT_DOUBLE_EQ(codec.transition_cost(0x12, 0x12), 0.0);
  // One line toggling: self cost 1 plus coupling cost to both neighbours.
  EXPECT_GT(codec.transition_cost(0b000, 0b010), 0.0);
  // Opposite toggles on adjacent lines cost more than aligned toggles.
  const double opposite = codec.transition_cost(0b01, 0b10);
  const double aligned = codec.transition_cost(0b00, 0b11);
  EXPECT_GT(opposite, aligned);
}

TEST(CouplingInvert, ReducesPlanarCostVersusUncoded) {
  std::mt19937_64 rng(4);
  CouplingInvertCodec probe(7);
  CouplingInvertCodec enc(7);
  double coded = 0.0;
  double uncoded = 0.0;
  std::uint64_t prev_coded = 0;
  std::uint64_t prev_plain = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t v = rng() & 0x7F;
    const std::uint64_t c = enc.encode(v);
    coded += probe.transition_cost(prev_coded, c);
    uncoded += probe.transition_cost(prev_plain, v);
    prev_coded = c;
    prev_plain = v;
  }
  EXPECT_LT(coded, uncoded);
}

TEST(EncodedStream, ComposesCodecAndStream) {
  auto inner = std::make_unique<streams::TraceStream>(std::vector<std::uint64_t>{1, 2, 3}, 4);
  EncodedStream s(std::move(inner), std::make_unique<GrayCodec>(4));
  EXPECT_EQ(s.width(), 4u);
  EXPECT_EQ(s.next(), GrayCodec::binary_to_gray(1));
  EXPECT_EQ(s.next(), GrayCodec::binary_to_gray(2));
}

TEST(EncodedStream, RejectsWidthMismatch) {
  auto inner = std::make_unique<streams::TraceStream>(std::vector<std::uint64_t>{1}, 4);
  EXPECT_THROW(EncodedStream(std::move(inner), std::make_unique<GrayCodec>(5)),
               std::invalid_argument);
}


TEST(T0, RoundTripMixedTraffic) {
  coding::T0Codec enc(8);
  coding::T0Codec dec(8);
  std::mt19937_64 rng(9);
  std::uint64_t addr = 0;
  for (int i = 0; i < 5000; ++i) {
    // Mostly sequential with occasional jumps, like a program counter.
    if (rng() % 10 == 0) addr = rng() & 0xFF;
    else addr = (addr + 1) & 0xFF;
    EXPECT_EQ(dec.decode(enc.encode(addr)), addr);
  }
}

TEST(T0, FreezesBusOnSequentialRuns) {
  coding::T0Codec enc(8);
  const std::uint64_t first = enc.encode(0x10);
  EXPECT_EQ(first, 0x10u);  // absolute, INC clear
  for (std::uint64_t a = 0x11; a < 0x20; ++a) {
    const std::uint64_t code = enc.encode(a);
    EXPECT_EQ(code & 0xFF, 0x10u) << "data lines must stay frozen";
    EXPECT_TRUE(code & 0x100) << "INC line must be set";
  }
}

TEST(T0, WrapsAroundAtWidth) {
  coding::T0Codec enc(4);
  coding::T0Codec dec(4);
  (void)dec.decode(enc.encode(0xF));
  const std::uint64_t code = enc.encode(0x0);  // 0xF + 1 wraps in 4 bits
  EXPECT_TRUE(code & 0x10) << "wraparound is still in-sequence";
  EXPECT_EQ(dec.decode(code), 0x0u);
}

TEST(T0, DecoderRejectsIncBeforePrime) {
  coding::T0Codec dec(8);
  EXPECT_THROW(dec.decode(0x100), std::logic_error);
}

TEST(T0, CustomStride) {
  coding::T0Codec enc(8, 4);
  coding::T0Codec dec(8, 4);
  (void)dec.decode(enc.encode(0x00));
  const std::uint64_t code = enc.encode(0x04);
  EXPECT_TRUE(code & 0x100);
  EXPECT_EQ(dec.decode(code), 0x04u);
  // Stride mismatch falls back to an absolute transfer.
  const std::uint64_t abs = enc.encode(0x07);
  EXPECT_FALSE(abs & 0x100);
  EXPECT_EQ(dec.decode(abs), 0x07u);
}

TEST(T0, ResetClearsSequenceState) {
  coding::T0Codec enc(8);
  (void)enc.encode(0x20);
  enc.reset();
  const std::uint64_t code = enc.encode(0x21);  // would be in-sequence without reset
  EXPECT_FALSE(code & 0x100);
}


TEST(Fibonacci, RoundTripAllTwelveBitValues) {
  coding::FibonacciCodec codec(12);
  for (std::uint64_t v = 0; v < 4096; ++v) {
    EXPECT_EQ(codec.decode(codec.encode(v)), v);
  }
}

TEST(Fibonacci, CodewordsAreForbiddenPatternFree) {
  coding::FibonacciCodec codec(12);
  for (std::uint64_t v = 0; v < 4096; ++v) {
    EXPECT_TRUE(reference::is_forbidden_pattern_free(codec.encode(v)))
        << "value " << v;
  }
}

TEST(Fibonacci, WidthExpansionIsAboutFortyFourPercent) {
  // 8 bits need 12 Fibonacci lines (F(15) - 1 = 376 >= 255).
  coding::FibonacciCodec c8(8);
  EXPECT_EQ(c8.width_out(), 12u);
  coding::FibonacciCodec c16(16);
  EXPECT_GE(c16.width_out(), 22u);
  EXPECT_LE(c16.width_out(), 25u);
  EXPECT_THROW(coding::FibonacciCodec(0), std::invalid_argument);
}

TEST(Fibonacci, PatternFreeCheckerItself) {
  EXPECT_TRUE(reference::is_forbidden_pattern_free(0b101010));
  EXPECT_FALSE(reference::is_forbidden_pattern_free(0b1100));
  EXPECT_TRUE(reference::is_forbidden_pattern_free(0));
}

// --- Width-limit validation through the factory ----------------------------

TEST(Factory, EveryCodecAcceptsItsFullRangeAndNamesItsLimit) {
  for (const auto& name : codec_names()) {
    const std::size_t max = codec_max_width(name);
    CodecSpec spec;
    spec.name = name;
    EXPECT_NO_THROW(make_codec(spec, 1)) << name;
    EXPECT_NO_THROW(make_codec(spec, max)) << name;
    for (const std::size_t bad : {std::size_t{0}, max + 1}) {
      try {
        make_codec(spec, bad);
        FAIL() << name << " accepted width " << bad;
      } catch (const std::invalid_argument& e) {
        // The message must name the codec and its actual ceiling, not a
        // generic "bad width".
        const std::string msg = e.what();
        EXPECT_NE(msg.find(name), std::string::npos) << msg;
        EXPECT_NE(msg.find("[1, " + std::to_string(max) + "]"), std::string::npos) << msg;
      }
    }
  }
}

TEST(Factory, EdgeWidths1And63And64) {
  // Width-preserving codecs reach 64; flag-extending codecs stop at 63 (the
  // flag occupies the 64th line); Fibonacci stops far earlier (expansion).
  CodecSpec gray{.name = "gray"};
  EXPECT_EQ(make_codec(gray, 64)->width_out(), 64u);
  CodecSpec correlator{.name = "correlator", .period = 3};
  EXPECT_EQ(make_codec(correlator, 64)->width_out(), 64u);

  for (const char* name : {"bus-invert", "coupling-invert", "t0"}) {
    CodecSpec spec;
    spec.name = name;
    EXPECT_EQ(codec_max_width(name), 63u);
    EXPECT_EQ(make_codec(spec, 1)->width_out(), 2u) << name;
    EXPECT_EQ(make_codec(spec, 63)->width_out(), 64u) << name;
    EXPECT_THROW(make_codec(spec, 64), std::invalid_argument) << name;
  }

  EXPECT_EQ(codec_max_width("fibonacci"), 40u);
  EXPECT_THROW(make_codec(CodecSpec{.name = "fibonacci"}, 41), std::invalid_argument);
  EXPECT_LE(make_codec(CodecSpec{.name = "fibonacci"}, 40)->width_out(), 64u);
}

TEST(Factory, DirectConstructorsEnforceTheSameLimits) {
  EXPECT_NO_THROW(GrayCodec(64));
  EXPECT_THROW(GrayCodec(65), std::invalid_argument);
  EXPECT_NO_THROW(BusInvertCodec(63));
  EXPECT_THROW(BusInvertCodec(64), std::invalid_argument);
  EXPECT_NO_THROW(CouplingInvertCodec(63));
  EXPECT_THROW(CouplingInvertCodec(64), std::invalid_argument);
  EXPECT_NO_THROW(T0Codec(63));
  EXPECT_THROW(T0Codec(64), std::invalid_argument);
  EXPECT_NO_THROW(FibonacciCodec(40));
  EXPECT_THROW(FibonacciCodec(41), std::invalid_argument);
  try {
    BusInvertCodec(64);
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("63"), std::string::npos) << e.what();
  }
}

TEST(Factory, UnknownNameListsTheAlternatives) {
  try {
    make_codec(CodecSpec{.name = "huffman"}, 8);
    FAIL() << "unknown codec accepted";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("huffman"), std::string::npos) << msg;
    EXPECT_NE(msg.find("gray"), std::string::npos) << msg;
    EXPECT_NE(msg.find("fibonacci"), std::string::npos) << msg;
  }
}

TEST(Factory, MakeCodecForLinesInvertsTheExpansion) {
  // 12 lines: gray carries 12 payload bits, flag codecs 11, Fibonacci 8.
  EXPECT_EQ(make_codec_for_lines(CodecSpec{.name = "gray"}, 12)->width_in(), 12u);
  EXPECT_EQ(make_codec_for_lines(CodecSpec{.name = "bus-invert"}, 12)->width_in(), 11u);
  EXPECT_EQ(make_codec_for_lines(CodecSpec{.name = "t0"}, 12)->width_in(), 11u);
  EXPECT_EQ(make_codec_for_lines(CodecSpec{.name = "fibonacci"}, 12)->width_in(), 8u);
  // 11 Fibonacci lines fit no payload exactly (7 bits -> 10 lines, 8 -> 12).
  EXPECT_THROW(make_codec_for_lines(CodecSpec{.name = "fibonacci"}, 11), std::invalid_argument);
  EXPECT_THROW(make_codec_for_lines(CodecSpec{.name = "bus-invert"}, 1), std::invalid_argument);
}

TEST(Factory, CloneCopiesHistory) {
  // clone() must deep-copy codec state: a clone taken mid-stream continues
  // exactly like the original (the property CodedLink's receiver relies on).
  CodecSpec spec{.name = "correlator", .period = 2};
  auto a = make_codec(spec, 8);
  (void)a->encode(0x12);
  (void)a->encode(0x34);
  auto b = a->clone();
  for (std::uint64_t w : {0x56ull, 0x78ull, 0x9Aull}) {
    EXPECT_EQ(a->encode(w), b->encode(w));
  }
}

// --- Span interface ----------------------------------------------------------

// Random words, repeats, and stride-3 runs (T0's in-sequence path), bits
// above every width included.
std::vector<std::uint64_t> span_traffic(std::mt19937_64& rng, std::size_t n) {
  std::vector<std::uint64_t> words(n);
  std::uint64_t cur = rng();
  for (std::size_t k = 0; k < n; ++k) {
    switch (rng() % 4) {
      case 0: cur = rng(); break;
      case 1: break;
      default: cur += 3; break;
    }
    words[k] = cur;
  }
  return words;
}

TEST(Codec, SpanCallsEqualWordCallsAcrossChunkSplits) {
  // Each codec's one span body against word-at-a-time calls: chunk splits
  // of 1, 7, 256 and 1000 words carry the history across calls, a reset()
  // of both endpoints lands mid-stream, and decoding runs both in place and
  // into a separate buffer. The word path itself is pinned by a digest of
  // every code and decoded word, recorded from the per-word codecs that the
  // span bodies replaced.
  const std::vector<std::pair<std::string, std::uint64_t>> golden{
      {"gray", 0xa7cb4c7262ab6a2aull},        {"correlator", 0x6e710aa390dfe9e8ull},
      {"bus-invert", 0x1387e2fc8cd7c2c4ull},  {"coupling-invert", 0x5c6a4a82fff23e22ull},
      {"t0", 0xba978466c1d79828ull},          {"fibonacci", 0x665f0cef413839b8ull},
  };
  ASSERT_EQ(golden.size(), codec_names().size());
  constexpr std::size_t kWords = 2500;
  constexpr std::size_t kResetAt = 1200;
  std::mt19937_64 rng(32);
  for (const auto& [name, digest] : golden) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    std::set<std::size_t> widths;
    for (const std::size_t w : {1, 8, 33, 64}) widths.insert(std::min(w, codec_max_width(name)));
    for (const std::size_t width : widths) {
      SCOPED_TRACE(name + " width " + std::to_string(width));
      CodecSpec spec{.name = name, .period = 3, .stride = 3, .inversion_mask = rng()};
      const auto words = span_traffic(rng, kWords);

      std::vector<std::uint64_t> codes(kWords), decoded(kWords);
      auto enc = make_codec(spec, width);
      auto dec = enc->clone();
      for (std::size_t k = 0; k < kWords; ++k) {
        if (k == kResetAt) {
          enc->reset();
          dec->reset();
        }
        codes[k] = enc->encode(words[k]);
        decoded[k] = dec->decode(codes[k]);
        ASSERT_EQ(decoded[k], words[k] & streams::width_mask(width)) << "word " << k;
        for (const std::uint64_t v : {codes[k], decoded[k]}) {
          h = (h ^ v) * 0x100000001b3ull;
          h ^= h >> 32;
        }
      }

      for (const std::size_t split : {1, 7, 256, 1000}) {
        SCOPED_TRACE("split " + std::to_string(split));
        auto tx = make_codec(spec, width);
        auto rx = tx->clone();
        std::vector<std::uint64_t> got_codes(kWords), got_decoded(kWords);
        const bool in_place = split % 2 == 0;
        for (std::size_t begin = 0; begin < kWords;) {
          if (begin == kResetAt) {
            tx->reset();
            rx->reset();
          }
          const std::size_t stop = begin < kResetAt ? kResetAt : kWords;
          const std::size_t n = std::min(split, stop - begin);
          const std::span<std::uint64_t> code_span(got_codes.data() + begin, n);
          const std::span<std::uint64_t> out_span(got_decoded.data() + begin, n);
          tx->encode(std::span<const std::uint64_t>(words.data() + begin, n), code_span);
          if (in_place) {
            std::copy(code_span.begin(), code_span.end(), out_span.begin());
            rx->decode(out_span, out_span);
          } else {
            rx->decode(code_span, out_span);
          }
          begin += n;
        }
        EXPECT_EQ(got_codes, codes);
        EXPECT_EQ(got_decoded, decoded);
      }
    }
    EXPECT_EQ(h, digest) << name << ": the per-word path moved";
  }
}

}  // namespace
