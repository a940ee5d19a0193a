// Tests for the block-transposed popcount statistics kernel: the 64x64 bit
// transpose, the popcount cross-term identity, bitwise equality against the
// historical scalar accumulator, block/tail edge cases and thread-count
// invariance of the chunked parallel reduction.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "obs/profile.hpp"
#include "phys/matrix.hpp"
#include "stats/bitplane.hpp"
#include "stats/ingest.hpp"
#include "stats/subset.hpp"
#include "stats/switching_stats.hpp"

namespace {

using namespace tsvcod;

// The seed repo's scalar accumulator, kept verbatim as the reference the
// bit-plane kernel must reproduce bit for bit: per-word double-precision
// +-1.0 accumulation over every line pair, divided once at the end.
stats::SwitchingStats scalar_reference(const std::vector<std::uint64_t>& words,
                                       std::size_t width) {
  const std::uint64_t mask = width < 64 ? (std::uint64_t{1} << width) - 1 : ~std::uint64_t{0};
  std::vector<double> ones(width, 0.0), self(width, 0.0);
  phys::Matrix cross(width, width);
  std::uint64_t prev = 0;
  for (std::size_t t = 0; t < words.size(); ++t) {
    const std::uint64_t word = words[t] & mask;
    for (std::size_t i = 0; i < width; ++i) {
      if ((word >> i) & 1u) ones[i] += 1.0;
    }
    if (t > 0) {
      for (std::size_t i = 0; i < width; ++i) {
        const int dbi = static_cast<int>((word >> i) & 1u) - static_cast<int>((prev >> i) & 1u);
        if (dbi == 0) continue;
        self[i] += 1.0;
        for (std::size_t j = i + 1; j < width; ++j) {
          const int dbj = static_cast<int>((word >> j) & 1u) - static_cast<int>((prev >> j) & 1u);
          if (dbj != 0) cross(i, j) += static_cast<double>(dbi * dbj);
        }
      }
    }
    prev = word;
  }
  stats::SwitchingStats s;
  s.width = width;
  s.transitions = words.size() - 1;
  const double nt = static_cast<double>(s.transitions);
  const double nw = static_cast<double>(words.size());
  s.self.resize(width);
  s.prob_one.resize(width);
  s.coupling = phys::Matrix(width, width);
  for (std::size_t i = 0; i < width; ++i) {
    s.self[i] = self[i] / nt;
    s.prob_one[i] = ones[i] / nw;
    s.coupling(i, i) = s.self[i];
    for (std::size_t j = i + 1; j < width; ++j) {
      const double c = cross(i, j) / nt;
      s.coupling(i, j) = c;
      s.coupling(j, i) = c;
    }
  }
  return s;
}

// Exact (==, not NEAR) comparison: the whole point of integer counters.
void expect_bitwise_equal(const stats::SwitchingStats& got, const stats::SwitchingStats& want) {
  ASSERT_EQ(got.width, want.width);
  EXPECT_EQ(got.transitions, want.transitions);
  for (std::size_t i = 0; i < want.width; ++i) {
    EXPECT_EQ(got.prob_one[i], want.prob_one[i]) << "prob_one[" << i << "]";
    EXPECT_EQ(got.self[i], want.self[i]) << "self[" << i << "]";
    for (std::size_t j = 0; j < want.width; ++j) {
      EXPECT_EQ(got.coupling(i, j), want.coupling(i, j)) << "coupling(" << i << "," << j << ")";
    }
  }
}

// Structured traffic (not just white noise): uniform, sticky toggling,
// constant runs and counter ramps, like the check harness generates.
std::vector<std::uint64_t> make_trace(std::mt19937_64& rng, std::size_t width, std::size_t n,
                                      int regime) {
  const std::uint64_t mask = width < 64 ? (std::uint64_t{1} << width) - 1 : ~std::uint64_t{0};
  std::vector<std::uint64_t> words(n);
  std::uint64_t cur = rng() & mask;
  for (std::size_t t = 0; t < n; ++t) {
    switch (regime % 4) {
      case 0: cur = rng(); break;                            // uniform noise
      case 1: cur ^= rng() & rng() & rng(); break;           // sparse sticky toggles
      case 2: if (rng() % 7 == 0) cur = rng(); break;        // constant runs
      default: cur = static_cast<std::uint64_t>(t) * 3 + 1;  // counter ramp
    }
    words[t] = cur & mask;
  }
  return words;
}

TEST(Bitplane, Transpose64IsTheLsbTranspose) {
  std::mt19937_64 rng(42);
  std::uint64_t in[64], out[64];
  for (auto& w : in) w = rng();
  for (std::size_t i = 0; i < 64; ++i) out[i] = in[i];
  stats::transpose64(out);
  for (std::size_t i = 0; i < 64; ++i) {
    for (std::size_t t = 0; t < 64; ++t) {
      ASSERT_EQ((out[i] >> t) & 1u, (in[t] >> i) & 1u) << "plane " << i << " bit " << t;
    }
  }
}

TEST(Bitplane, TransposeIsAnInvolution) {
  std::mt19937_64 rng(43);
  std::uint64_t a[64], orig[64];
  for (std::size_t i = 0; i < 64; ++i) orig[i] = a[i] = rng();
  stats::transpose64(a);
  stats::transpose64(a);
  for (std::size_t i = 0; i < 64; ++i) EXPECT_EQ(a[i], orig[i]);
}

// The popcount cross-term identity
//   sum db_i db_j = popc(tg_i & tg_j) - 2 popc(tg_i & tg_j & (val_i ^ val_j))
// at the extreme widths where masking and plane indexing can go wrong.
class BitplaneGoldenWidths : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BitplaneGoldenWidths, MatchesScalarReferenceExactly) {
  const std::size_t width = GetParam();
  std::mt19937_64 rng(7 + width);
  for (int regime = 0; regime < 4; ++regime) {
    // 200 words: three full blocks plus a partial tail.
    const auto words = make_trace(rng, width, 200, regime);
    expect_bitwise_equal(stats::compute_stats(words, width, 1),
                         scalar_reference(words, width));
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BitplaneGoldenWidths, ::testing::Values(1u, 63u, 64u));

TEST(Bitplane, RandomTracesEveryWidthBitwiseEqual) {
  std::mt19937_64 rng(11);
  for (std::size_t width = 1; width <= 64; ++width) {
    const std::size_t n = 2 + rng() % 300;
    const auto words = make_trace(rng, width, n, static_cast<int>(width));
    expect_bitwise_equal(stats::compute_stats(words, width, 1), scalar_reference(words, width));
  }
}

TEST(Bitplane, BlockBoundaryEdgeCases) {
  std::mt19937_64 rng(13);
  // 64 words = 63 transitions (pure scalar tail, no block flushed);
  // 65 words = exactly one block, empty tail; then the off-by-ones around
  // the second boundary, and n % 64 != 0 partial tails.
  for (const std::size_t n : {2u, 3u, 63u, 64u, 65u, 66u, 128u, 129u, 130u, 200u}) {
    const auto words = make_trace(rng, 17, n, 1);
    expect_bitwise_equal(stats::compute_stats(words, 17, 1), scalar_reference(words, 17));
  }
}

TEST(Bitplane, BlockAndTailAccountingMatchesTheStreamLength) {
  stats::StatsAccumulator acc(8);
  std::mt19937_64 rng(17);
  const auto words = make_trace(rng, 8, 131, 0);  // 130 transitions = 2 blocks + 2 tail
  for (const auto w : words) acc.add(w);
  EXPECT_EQ(acc.samples(), 131u);
  EXPECT_EQ(acc.blocks_flushed(), 2u);
  EXPECT_EQ(acc.pending(), 2u);
  const auto counts = acc.counts();
  EXPECT_EQ(counts.words, 131u);
  EXPECT_EQ(counts.transitions, 130u);

  stats::StatsAccumulator exact(8);
  for (std::size_t i = 0; i < 65; ++i) exact.add(words[i]);
  EXPECT_EQ(exact.blocks_flushed(), 1u);
  EXPECT_EQ(exact.pending(), 0u);  // 64 transitions flush exactly one block
}

TEST(Bitplane, StreamingEqualsOneShot) {
  std::mt19937_64 rng(19);
  const auto words = make_trace(rng, 33, 500, 2);
  stats::StatsAccumulator acc(33);
  for (const auto w : words) acc.add(w);
  expect_bitwise_equal(acc.finish(), stats::compute_stats(words, 33, 1));
}

TEST(Bitplane, FinishMidStreamDoesNotPerturbTheStream) {
  // counts()/finish() are const snapshots: calling them between words must
  // not change what a later finish() returns.
  std::mt19937_64 rng(23);
  const auto words = make_trace(rng, 12, 150, 1);
  stats::StatsAccumulator probed(12), plain(12);
  for (std::size_t t = 0; t < words.size(); ++t) {
    probed.add(words[t]);
    plain.add(words[t]);
    if (t >= 2 && t % 37 == 0) (void)probed.finish();
  }
  expect_bitwise_equal(probed.finish(), plain.finish());
}

TEST(Bitplane, ThreadCountInvariance) {
  std::mt19937_64 rng(29);
  for (const std::size_t width : {5u, 32u, 64u}) {
    const auto words = make_trace(rng, width, 20000, 1);  // big enough to really chunk
    const auto t1 = stats::compute_stats(words, width, 1);
    expect_bitwise_equal(stats::compute_stats(words, width, 2), t1);
    expect_bitwise_equal(stats::compute_stats(words, width, 8), t1);
  }
}

TEST(Bitplane, ManualChunkMergeEqualsWholeTrace) {
  std::mt19937_64 rng(31);
  const auto words = make_trace(rng, 21, 1000, 3);
  auto whole = stats::compute_counts(words, 21, 1);

  // Two chunks overlapping one word at the seam: the second starts its
  // chain at the seam word so its bits are not double counted.
  const std::size_t cut = 437;
  stats::StatsAccumulator a(21), b(21, words[cut]);
  for (std::size_t t = 0; t <= cut; ++t) a.add(words[t]);
  for (std::size_t t = cut + 1; t < words.size(); ++t) b.add(words[t]);
  auto merged = a.counts();
  merged.merge(b.counts());
  EXPECT_EQ(merged.words, whole.words);
  EXPECT_EQ(merged.transitions, whole.transitions);
  expect_bitwise_equal(merged.finalize(), whole.finalize());
}

TEST(Bitplane, TooFewWordsErrorNamesWidthAndCount) {
  stats::StatsAccumulator acc(7);
  acc.add(1);
  try {
    (void)acc.finish();
    FAIL() << "finish() on one word must throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("width 7"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("have 1"), std::string::npos) << e.what();
  }
  const std::vector<std::uint64_t> one{5};
  try {
    (void)stats::compute_stats(one, 9);
    FAIL() << "compute_stats on one word must throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("width 9"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("have 1"), std::string::npos) << e.what();
  }
}

TEST(Bitplane, SubsetStatsValidatesBitIndices) {
  std::mt19937_64 rng(37);
  const auto words = make_trace(rng, 4, 50, 0);
  const auto src = stats::compute_stats(words, 4, 1);
  const std::vector<std::size_t> good{3, 0};
  EXPECT_NO_THROW(stats::subset_stats(src, good));
  const std::vector<std::size_t> bad{1, 9, 0};
  try {
    (void)stats::subset_stats(src, bad);
    FAIL() << "out-of-range bit must throw";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("bit 9"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("width 4"), std::string::npos) << e.what();
  }
}

TEST(Bitplane, RecordsBlockAndTailCountersWhenProfiling) {
  obs::reset_profile();
  obs::enable_profiling(true);
  std::mt19937_64 rng(47);
  const auto words = make_trace(rng, 8, 200, 0);  // 199 transitions: 3 blocks + 7 tail
  (void)stats::compute_stats(words, 8, 1);
  obs::enable_profiling(false);
  const std::string json = obs::profile_to_json(obs::ProfileFields::deterministic);
  obs::reset_profile();
  EXPECT_NE(json.find("{\"name\":\"stats.compute\",\"count\":1,\"work\":{\"blocks\":3,"
                      "\"chunks\":1,\"tail_words\":7,\"words\":200}"),
            std::string::npos)
      << json;
}

TEST(Bitplane, MasksBitsAboveWidthLikeTheScalarPath) {
  std::mt19937_64 rng(41);
  std::vector<std::uint64_t> raw(300), masked(300);
  for (std::size_t t = 0; t < raw.size(); ++t) {
    raw[t] = rng();
    masked[t] = raw[t] & 0x1F;  // width 5
  }
  expect_bitwise_equal(stats::compute_stats(raw, 5, 1), stats::compute_stats(masked, 5, 1));
}

// --- ChunkFolder: the hardened seam-chain bookkeeping -----------------------

void expect_counts_equal(const stats::SwitchingCounts& got, const stats::SwitchingCounts& want) {
  ASSERT_EQ(got.width, want.width);
  EXPECT_EQ(got.words, want.words);
  EXPECT_EQ(got.transitions, want.transitions);
  EXPECT_EQ(got.ones, want.ones);
  EXPECT_EQ(got.self, want.self);
  EXPECT_EQ(got.cross, want.cross);
}

TEST(ChunkFolder, ExhaustiveTinyChunkPartitionsMatchOneShot) {
  // The seam-edge satellite: every composition of a short trace into chunks
  // of size 1 and 2, with an empty chunk additionally injected at every
  // boundary, must be bit-identical to the one-shot fold. Chunk sizes 0 / 1
  // / 2 are exactly the shapes that used to be UB or mis-primed.
  std::mt19937_64 rng(53);
  const auto words = make_trace(rng, 11, 9, 2);
  const auto whole = stats::compute_counts(words, 11, 1);
  const std::span<const std::uint64_t> all(words);

  // Enumerate compositions of 9 into parts {1, 2} via bitmask over 9 slots.
  for (unsigned mask = 0; mask < (1u << words.size()); ++mask) {
    std::vector<std::size_t> sizes;
    std::size_t left = words.size();
    bool valid = true;
    for (unsigned bit = 0; left > 0; ++bit) {
      const std::size_t take = (mask >> bit) & 1u ? 2 : 1;
      if (take > left) {
        valid = false;
        break;
      }
      sizes.push_back(take);
      left -= take;
    }
    if (!valid) continue;

    for (std::size_t empty_at = 0; empty_at <= sizes.size(); ++empty_at) {
      stats::ChunkFolder folder(11);
      std::size_t offset = 0;
      for (std::size_t c = 0; c <= sizes.size(); ++c) {
        if (c == empty_at) folder.fold({});  // empty chunk: must be a no-op
        if (c == sizes.size()) break;
        folder.fold(all.subspan(offset, sizes[c]));
        offset += sizes[c];
      }
      expect_counts_equal(folder.counts(), whole);
    }
  }
}

TEST(ChunkFolder, EmptyChunkLeavesTheSeamUntouched) {
  stats::ChunkFolder folder(8);
  EXPECT_FALSE(folder.primed());
  EXPECT_THROW((void)folder.seam(), std::logic_error);

  folder.fold({});  // empty before any word: still unprimed
  EXPECT_FALSE(folder.primed());

  const std::vector<std::uint64_t> one{0xA5};
  folder.fold(one);
  EXPECT_TRUE(folder.primed());
  EXPECT_EQ(folder.seam(), 0xA5u);
  EXPECT_EQ(folder.words(), 1u);

  folder.fold({});  // empty mid-stream: seam must survive
  EXPECT_EQ(folder.seam(), 0xA5u);

  const std::vector<std::uint64_t> next{0x5A};
  folder.fold(next);
  EXPECT_EQ(folder.counts().transitions, 1u);  // 0xA5 -> 0x5A counted once
  EXPECT_EQ(folder.seam(), 0x5Au);
}

TEST(ChunkFolder, ResetForgetsTheSeamResetWindowCarriesIt) {
  std::mt19937_64 rng(59);
  const auto words = make_trace(rng, 8, 600, 1);
  const auto whole = stats::compute_counts(words, 8, 1);
  const std::span<const std::uint64_t> all(words);

  // Windowed: fold in three windows with reset_window between them; the
  // window counts must merge to the exact whole-stream counts.
  stats::ChunkFolder folder(8);
  stats::SwitchingCounts merged(8);
  folder.fold(all.subspan(0, 200));
  merged.merge(folder.counts());
  folder.reset_window();
  EXPECT_EQ(folder.words(), 0u);
  EXPECT_TRUE(folder.primed()) << "reset_window keeps the seam";
  folder.fold(all.subspan(200, 200));
  merged.merge(folder.counts());
  folder.reset_window();
  folder.fold(all.subspan(400));
  merged.merge(folder.counts());
  expect_counts_equal(merged, whole);

  // Full reset: the next fold starts a fresh stream (no seam transition).
  folder.reset();
  EXPECT_FALSE(folder.primed());
  folder.fold(all.subspan(0, 200));
  expect_counts_equal(folder.counts(), stats::compute_counts(all.subspan(0, 200), 8, 1));
}

TEST(ChunkFolder, RejectsOutOfRangeWidth) {
  EXPECT_THROW(stats::ChunkFolder(0), std::invalid_argument);
  EXPECT_THROW(stats::ChunkFolder(65), std::invalid_argument);
}

}  // namespace
