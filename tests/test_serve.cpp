// Streaming service layer: frame protocol, per-session seam-chained
// statistics, concurrent per-session ingestion, the drift-triggered
// re-anneal + atomic hot-swap path, and the CodedLink every session streams
// through. The concurrency tests here are the ones the asan-serve /
// tsan-serve presets exist for.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "coding/factory.hpp"
#include "core/coded_link.hpp"
#include "phys/tsv_geometry.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "stats/ingest.hpp"
#include "tsv/linear_model.hpp"

#include "reference.hpp"

namespace {

using namespace tsvcod;

tsv::LinearCapacitanceModel model8() {
  static const tsv::LinearCapacitanceModel model =
      tsv::fit_from_analytic(phys::TsvArrayGeometry::itrs2018_relaxed(2, 4));
  return model;
}

serve::SessionConfig config8() {
  serve::SessionConfig cfg;
  cfg.width = 8;
  cfg.model = model8();
  cfg.codec.name = "correlator";
  cfg.drift.window_words = 256;
  cfg.drift.threshold = 0.0;  // drift detection off unless a test enables it
  cfg.optimize.schedule.iterations = 2000;
  cfg.optimize.schedule.restarts = 1;
  cfg.optimize.chains = 2;
  return cfg;
}

/// Deterministic per-session traffic. `phase_shift_at` switches the busy bit
/// group mid-stream, which is exactly what the drift detector keys on.
std::vector<std::uint64_t> traffic(unsigned seed, std::size_t n, std::size_t phase_shift_at) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint64_t> words;
  words.reserve(n);
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    prev ^= i < phase_shift_at ? (rng() & 0x7u) : ((rng() & 0x7u) << 5);
    words.push_back(prev);
  }
  return words;
}

stats::SwitchingCounts batch_counts(std::span<const std::uint64_t> words, std::size_t width) {
  stats::ChunkFolder folder(width);
  folder.fold(words);
  return folder.counts();
}

void expect_counts_equal(const stats::SwitchingCounts& got, const stats::SwitchingCounts& want) {
  ASSERT_EQ(got.width, want.width);
  EXPECT_EQ(got.words, want.words);
  EXPECT_EQ(got.transitions, want.transitions);
  EXPECT_EQ(got.ones, want.ones);
  EXPECT_EQ(got.self, want.self);
  EXPECT_EQ(got.cross, want.cross);
}

// --- drift metric -----------------------------------------------------------

TEST(DriftMetric, ZeroForIdenticalStatsAndChecksWidth) {
  const auto words = traffic(1, 1000, 1000);
  const auto s = batch_counts(words, 8).finalize();
  EXPECT_EQ(serve::drift_metric(s, s), 0.0);

  const auto narrow = batch_counts(words, 4).finalize();
  EXPECT_THROW(serve::drift_metric(s, narrow), std::invalid_argument);
}

TEST(DriftMetric, DetectsActivityShift) {
  const auto words = traffic(2, 2048, 1024);
  const std::span<const std::uint64_t> all(words);
  const auto phase_a = batch_counts(all.subspan(0, 1024), 8).finalize();
  const auto phase_b = batch_counts(all.subspan(1024), 8).finalize();
  const auto whole = batch_counts(all, 8).finalize();
  // Different bit groups are busy in the two phases: large drift between
  // them, and each phase clearly differs from the blend too.
  EXPECT_GT(serve::drift_metric(phase_a, phase_b), 0.5);
  EXPECT_GT(serve::drift_metric(phase_b, whole), 0.2);
}

// --- session ----------------------------------------------------------------

TEST(Session, ConfigValidationNamesTheField) {
  auto cfg = config8();
  cfg.codec.name = "bus-invert";  // expands 8 -> 9 lines
  try {
    serve::Session session(1, cfg);
    FAIL() << "expanding codec accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("bus-invert"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("width-preserving"), std::string::npos);
  }

  cfg = config8();
  cfg.drift.window_words = 1;
  EXPECT_THROW(serve::Session(1, cfg), std::invalid_argument);

  cfg = config8();
  cfg.width = 6;  // model is 8-wide
  EXPECT_THROW(serve::Session(1, cfg), std::invalid_argument);

  cfg = config8();
  cfg.optimize.chains = 0;  // an empty re-anneal budget
  try {
    serve::Session session(1, cfg);
    FAIL() << "zero chains accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("chains"), std::string::npos) << e.what();
  }
}

TEST(Session, RejectsADriftThresholdThatCanNeverTrip) {
  // NaN compares false against every drift, and a negative threshold is not
  // "off" (0 is): both would open a session whose detector silently never
  // trips, so construction fails naming the field instead.
  for (const double bad : {std::nan(""), -1.0, std::numeric_limits<double>::infinity()}) {
    auto cfg = config8();
    cfg.drift.threshold = bad;
    try {
      serve::Session session(1, cfg);
      FAIL() << "threshold " << bad << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("drift threshold"), std::string::npos) << e.what();
    }
  }
  auto off = config8();
  off.drift.threshold = 0.0;  // detection off is a valid config
  EXPECT_NO_THROW(serve::Session(1, off));
}

TEST(Session, StatsBitIdenticalToBatchAtRaggedChunkSizes) {
  // The seam-edge satellite, end to end: empty, 1-word and 2-word chunks
  // interleaved with larger ones must reproduce the one-shot counts exactly.
  const auto words = traffic(3, 3000, 3000);
  const std::span<const std::uint64_t> all(words);

  for (const char* codec : {"", "correlator", "gray"}) {
    auto cfg = config8();
    cfg.codec.name = codec;
    serve::Session session(7, cfg);

    const std::size_t sizes[] = {0, 1, 2, 0, 7, 64, 1, 256, 0, 2, 33};
    std::size_t offset = 0;
    std::size_t k = 0;
    while (offset < all.size()) {
      const std::size_t take = std::min(sizes[k++ % std::size(sizes)], all.size() - offset);
      session.ingest(all.subspan(offset, take));
      offset += take;
    }

    const serve::SessionSnapshot snap = session.snapshot();
    EXPECT_EQ(snap.desyncs, 0u) << codec;
    EXPECT_EQ(snap.words, words.size());
    expect_counts_equal(snap.longrun, batch_counts(all, 8));
  }
}

TEST(Session, WindowsMergeToWholeStreamCounts) {
  // Tumbling windows (seam carried across boundaries) must sum to the exact
  // whole-stream counts even when chunk boundaries and window boundaries
  // interleave arbitrarily.
  auto cfg = config8();
  cfg.drift.window_words = 100;  // never aligned with the chunking below
  serve::Session session(9, cfg);

  const auto words = traffic(4, 2513, 2513);
  const std::span<const std::uint64_t> all(words);
  std::size_t offset = 0;
  std::size_t step = 1;
  while (offset < all.size()) {
    const std::size_t take = std::min(step++ % 97, all.size() - offset);
    session.ingest(all.subspan(offset, take));
    offset += take;
  }

  const serve::SessionSnapshot snap = session.snapshot();
  EXPECT_EQ(snap.windows, words.size() / 100);
  expect_counts_equal(snap.longrun, batch_counts(all, 8));
}

TEST(Session, DriftTripsOncePerReannealInFlight) {
  auto cfg = config8();
  cfg.drift.threshold = 0.05;
  serve::Session session(2, cfg);

  const auto words = traffic(5, 4096, 1024);
  serve::Session::IngestResult first = session.ingest(words);
  ASSERT_TRUE(first.tripped);
  EXPECT_GT(first.drift, 0.05);
  EXPECT_GE(first.window_stats.transitions, 255u);

  // While the re-anneal is in flight, later windows must not re-trip.
  const auto more = traffic(6, 1024, 0);
  EXPECT_FALSE(session.ingest(more).tripped);

  // Install clears the flag; the next drifting window may trip again.
  EXPECT_TRUE(session.install(core::SignedPermutation::identity(8)));
  EXPECT_FALSE(session.install(core::SignedPermutation::identity(8)));  // no trip pending
  const serve::SessionSnapshot snap = session.snapshot();
  EXPECT_EQ(snap.trips, 1u);
  EXPECT_EQ(snap.swaps, 1u);
  EXPECT_EQ(snap.desyncs, 0u);
}

// --- server -----------------------------------------------------------------

TEST(Server, RejectsUnknownAndDuplicateSessions) {
  serve::Server server;
  const std::vector<std::uint64_t> words{1, 2, 3};
  EXPECT_THROW(server.ingest(42, words), std::invalid_argument);
  server.open_session(42, config8());
  EXPECT_THROW(server.open_session(42, config8()), std::invalid_argument);
  server.drain();
}

TEST(Server, EightConcurrentSessionsStayBitIdentical) {
  // The acceptance bar: >= 8 concurrent sessions, per-session statistics
  // bit-identical to the batch fold of the same words, zero desyncs.
  serve::Server server;
  constexpr int kSessions = 8;
  constexpr std::size_t kWords = 6000;

  std::vector<std::vector<std::uint64_t>> streams;
  for (int s = 0; s < kSessions; ++s) {
    server.open_session(static_cast<std::uint64_t>(s), config8());
    streams.push_back(traffic(100 + static_cast<unsigned>(s), kWords, kWords / 2));
  }

  std::vector<std::thread> producers;
  producers.reserve(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    producers.emplace_back([&, s] {
      const auto& words = streams[static_cast<std::size_t>(s)];
      std::size_t offset = 0;
      std::size_t step = 11 + static_cast<std::size_t>(s);
      while (offset < words.size()) {
        const std::size_t take = std::min(step, words.size() - offset);
        server.ingest(static_cast<std::uint64_t>(s),
                      {words.begin() + static_cast<std::ptrdiff_t>(offset),
                       words.begin() + static_cast<std::ptrdiff_t>(offset + take)});
        offset += take;
        step = step * 31 % 97 + 1;  // ragged, deterministic batch sizes
      }
    });
  }
  for (auto& p : producers) p.join();
  server.drain();

  for (int s = 0; s < kSessions; ++s) {
    const auto snap = server.session_stats(static_cast<std::uint64_t>(s));
    EXPECT_EQ(snap.desyncs, 0u) << "session " << s;
    expect_counts_equal(snap.longrun,
                        batch_counts(streams[static_cast<std::size_t>(s)], 8));
  }
  EXPECT_EQ(server.totals().words, kSessions * kWords);
  EXPECT_EQ(server.totals().desyncs, 0u);
  EXPECT_TRUE(server.poll_errors().empty());
}

TEST(Server, DriftTriggeredReannealHotSwapsWithZeroDesyncs) {
  serve::Server server;
  auto cfg = config8();
  cfg.drift.threshold = 0.05;
  server.open_session(1, cfg);

  // Phase-shifted traffic in small batches. Each batch waits for a re-anneal
  // it tripped, so every swap lands mid-stream and later batches flow
  // through the new assignment (a re-anneal outlasts the whole stream).
  const auto words = traffic(42, 8192, 2048);
  for (std::size_t offset = 0; offset < words.size(); offset += 128) {
    server.ingest(1, {words.begin() + static_cast<std::ptrdiff_t>(offset),
                      words.begin() + static_cast<std::ptrdiff_t>(offset + 128)});
    server.drain();
  }

  const auto snap = server.session_stats(1);
  EXPECT_GE(snap.swaps, 1u);
  EXPECT_EQ(snap.desyncs, 0u);
  expect_counts_equal(snap.longrun, batch_counts(words, 8));

  const auto swaps = server.poll_swaps();
  ASSERT_GE(swaps.size(), 1u);
  for (const auto& swap : swaps) {
    EXPECT_TRUE(swap.installed);
    EXPECT_GT(swap.drift, 0.05);
    EXPECT_LE(swap.power_after, swap.power_before);  // annealer only improves
    EXPECT_GT(swap.words_at_trip, 0u);
    const std::string json = swap.to_json();
    EXPECT_NE(json.find("\"event\":\"swap\""), std::string::npos);
    EXPECT_NE(json.find("\"installed\":true"), std::string::npos);
  }
  EXPECT_TRUE(server.poll_errors().empty());
}

TEST(Server, TotalsSumLiveAndClosedSessionSnapshots) {
  serve::Server server;
  auto drifting = config8();
  drifting.drift.threshold = 0.05;
  server.open_session(5, config8());
  server.open_session(6, drifting);

  const auto closed_words = traffic(8, 4096, 4096);
  for (std::size_t offset = 0; offset < closed_words.size(); offset += 32) {
    server.ingest(5, {closed_words.begin() + static_cast<std::ptrdiff_t>(offset),
                      closed_words.begin() + static_cast<std::ptrdiff_t>(offset + 32)});
  }
  const auto live_words = traffic(42, 8192, 2048);
  for (std::size_t offset = 0; offset < live_words.size(); offset += 128) {
    server.ingest(6, {live_words.begin() + static_cast<std::ptrdiff_t>(offset),
                      live_words.begin() + static_cast<std::ptrdiff_t>(offset + 128)});
  }

  const auto closed = server.close_session(5);
  EXPECT_EQ(closed.words, closed_words.size());
  EXPECT_EQ(closed.batches, closed_words.size() / 32);
  expect_counts_equal(closed.longrun, batch_counts(closed_words, 8));
  EXPECT_THROW(server.session_stats(5), std::invalid_argument);  // closed

  server.drain();
  const auto live = server.session_stats(6);
  EXPECT_GE(live.trips, 1u);
  EXPECT_GE(live.swaps, 1u);
  const serve::Server::Totals totals = server.totals();
  EXPECT_EQ(totals.sessions_opened, 2u);
  EXPECT_EQ(totals.words, closed.words + live.words);
  EXPECT_EQ(totals.batches, closed.batches + live.batches);
  EXPECT_EQ(totals.trips, closed.trips + live.trips);
  EXPECT_EQ(totals.swaps, closed.swaps + live.swaps);
  EXPECT_EQ(totals.desyncs, 0u);
  EXPECT_TRUE(server.poll_errors().empty());
}

// --- protocol ---------------------------------------------------------------

TEST(Protocol, FramesRoundTrip) {
  std::string stream;
  serve::Frame open;
  open.type = serve::FrameType::open;
  open.session = 7;
  open.text = "codec=gray window=512";
  stream += reference::encode_frame(open);

  serve::Frame data;
  data.type = serve::FrameType::data;
  data.session = 7;
  data.words = {0x0123456789abcdefull, 0, ~0ull, 42};
  stream += reference::encode_frame(data);

  for (const serve::FrameType t :
       {serve::FrameType::stats, serve::FrameType::close, serve::FrameType::shutdown}) {
    serve::Frame f;
    f.type = t;
    f.session = t == serve::FrameType::shutdown ? 0u : 7u;
    stream += reference::encode_frame(f);
  }

  std::istringstream in(stream);
  serve::Frame got;
  ASSERT_TRUE(serve::read_frame(in, got));
  EXPECT_EQ(got.type, serve::FrameType::open);
  EXPECT_EQ(got.session, 7u);
  EXPECT_EQ(got.text, open.text);
  const auto opts = serve::parse_options(got.text);
  EXPECT_EQ(opts.at("codec"), "gray");
  EXPECT_EQ(opts.at("window"), "512");

  ASSERT_TRUE(serve::read_frame(in, got));
  EXPECT_EQ(got.type, serve::FrameType::data);
  EXPECT_EQ(got.words, data.words);

  for (const serve::FrameType want :
       {serve::FrameType::stats, serve::FrameType::close, serve::FrameType::shutdown}) {
    ASSERT_TRUE(serve::read_frame(in, got));
    EXPECT_EQ(got.type, want);
  }
  EXPECT_FALSE(serve::read_frame(in, got));  // clean EOF at a frame boundary
}

TEST(Protocol, OneFrameIsReusedAcrossFrameTypesAndLengths) {
  // A data payload is read into the previous frame's buffer; each read must
  // leave exactly its own words, and a control frame none.
  const auto frame = [](serve::FrameType type, std::vector<std::uint64_t> words) {
    serve::Frame f;
    f.type = type;
    f.session = 3;
    f.words = std::move(words);
    return f;
  };
  const std::vector<serve::Frame> sent = {
      frame(serve::FrameType::data, {0x0102030405060708ull, ~0ull, 0, 0x8000000000000001ull}),
      frame(serve::FrameType::stats, {}),
      frame(serve::FrameType::data, {7, 0xfedcba9876543210ull}),
      frame(serve::FrameType::data, {})};
  std::string stream;
  for (const serve::Frame& f : sent) stream += reference::encode_frame(f);

  std::istringstream in(stream);
  serve::Frame got;
  for (std::size_t i = 0; i < sent.size(); ++i) {
    ASSERT_TRUE(serve::read_frame(in, got)) << "frame " << i;
    EXPECT_EQ(got.type, sent[i].type) << "frame " << i;
    EXPECT_EQ(got.session, 3u) << "frame " << i;
    EXPECT_EQ(got.words, sent[i].words) << "frame " << i;
    EXPECT_TRUE(got.text.empty()) << "frame " << i;
  }
  EXPECT_FALSE(serve::read_frame(in, got));
}

TEST(Protocol, MalformedFramesFailLoudly) {
  serve::Frame frame;

  {
    std::istringstream in(std::string("\x08\x00\x00\x00", 4));  // truncated header
    EXPECT_THROW(serve::read_frame(in, frame), std::runtime_error);
  }
  {
    std::string bad(12, '\0');
    bad[4] = 'Z';  // unknown type
    std::istringstream in(bad);
    EXPECT_THROW(serve::read_frame(in, frame), std::runtime_error);
  }
  {
    std::string bad(12, '\0');
    bad[4] = 'D';
    bad[5] = 1;  // reserved byte set
    std::istringstream in(bad);
    EXPECT_THROW(serve::read_frame(in, frame), std::runtime_error);
  }
  {
    std::string bad(12, '\0');
    bad[0] = 4;  // 4-byte payload on a data frame: not a multiple of 8
    bad[4] = 'D';
    std::istringstream in(bad + "abcd");
    EXPECT_THROW(serve::read_frame(in, frame), std::runtime_error);
  }
  {
    serve::Frame data;
    data.type = serve::FrameType::data;
    data.words = {1, 2, 3};
    std::string enc = reference::encode_frame(data);
    enc.resize(enc.size() - 5);  // truncated payload
    std::istringstream in(enc);
    EXPECT_THROW(serve::read_frame(in, frame), std::runtime_error);
  }

  EXPECT_THROW(serve::parse_options("novalue"), std::runtime_error);
  EXPECT_THROW(serve::parse_options("a=1 a=2"), std::runtime_error);
  EXPECT_TRUE(serve::parse_options("").empty());
}

// --- CodedLink: atomic reset and hot swap of stateful codec pairs ----------

TEST(CodedLink, RoundTripAcrossAtomicReset) {
  // Regression for the desync hazard: resetting a stateful tx/rx pair must
  // be one operation. Interleave resets with traffic and require identity
  // throughout (a one-sided reset breaks this for history-keeping codecs).
  std::mt19937_64 rng(5);
  for (const auto& name : coding::codec_names()) {
    coding::CodecSpec spec;
    spec.name = name;
    spec.period = 2;
    auto codec = coding::make_codec(spec, 8);
    const std::size_t lines = codec->width_out();
    const auto a = core::SignedPermutation::random(lines, rng, std::vector<std::uint8_t>(lines, 1));
    core::CodedLink link(a, std::move(codec));
    for (int round = 0; round < 4; ++round) {
      for (int k = 0; k < 50; ++k) {
        const std::uint64_t w = rng() & 0xFFu;
        EXPECT_EQ(link.roundtrip(w), w) << name << " round " << round << " word " << k;
      }
      link.reset();
    }
  }
}

TEST(CodedLink, OneSidedResetDesyncsAndAtomicResetRecovers) {
  // Demonstrate the failure mode CodedLink exists to prevent. Correlator,
  // period 1: code = word ^ prev. After tx-only reset the decoder still
  // holds its history, so the same word decodes wrongly.
  coding::CodecSpec spec;
  spec.name = "correlator";
  core::CodedLink link(core::SignedPermutation::identity(4), coding::make_codec(spec, 4));
  EXPECT_EQ(link.roundtrip(0x5), 0x5u);

  link.transmitter().reset();        // the forbidden one-sided reset
  EXPECT_NE(link.roundtrip(0x5), 0x5u);  // pair is now desynced

  link.reset();                      // atomic: both endpoints together
  EXPECT_EQ(link.roundtrip(0x5), 0x5u);
  EXPECT_EQ(link.roundtrip(0xA), 0xAu);
}

TEST(CodedLink, ReceiverIsCloneOfTransmitter) {
  // Constructing from a codec that has already seen traffic must still give
  // a synchronized pair: the ctor resets before cloning.
  coding::CodecSpec spec;
  spec.name = "bus-invert";
  auto codec = coding::make_codec(spec, 7);
  (void)codec->encode(0x7F);
  (void)codec->encode(0x00);
  core::CodedLink link(core::SignedPermutation::identity(8), std::move(codec));
  for (std::uint64_t w : {0x7Full, 0x00ull, 0x55ull, 0x2Aull}) {
    EXPECT_EQ(link.roundtrip(w), w);
  }
}

TEST(CodedLink, RejectsMismatchedAssignment) {
  coding::CodecSpec spec;
  spec.name = "bus-invert";  // 7 payload bits -> 8 lines
  EXPECT_THROW(core::CodedLink(core::SignedPermutation::identity(7), coding::make_codec(spec, 7)),
               std::invalid_argument);
}

TEST(CodedLink, HotSwapUnderConcurrentTrafficNeverDesyncs) {
  // The streaming service's core guarantee, at the link level: assignment
  // hot-swaps (reset(next)) landing mid-stream between atomic roundtrips
  // from several traffic threads must cause zero decode desyncs. Correlator
  // is the adversarial choice — any split of the stateful tx/rx pair, or a
  // word encoded under one assignment and unassigned under another, decodes
  // wrongly immediately.
  coding::CodecSpec spec;
  spec.name = "correlator";
  core::CodedLink link(core::SignedPermutation::identity(8), coding::make_codec(spec, 8));

  constexpr int kTrafficThreads = 4;
  constexpr int kWordsPerThread = 20000;
  constexpr int kSwaps = 200;
  std::atomic<std::uint64_t> desyncs{0};
  std::atomic<bool> go{false};

  std::vector<std::thread> traffic;
  traffic.reserve(kTrafficThreads);
  for (int t = 0; t < kTrafficThreads; ++t) {
    traffic.emplace_back([&, t] {
      std::mt19937_64 rng(101 + t);
      while (!go.load()) {}
      for (int k = 0; k < kWordsPerThread; ++k) {
        const std::uint64_t w = rng() & 0xFFu;
        if (link.roundtrip(w) != w) desyncs.fetch_add(1);
      }
    });
  }
  std::thread swapper([&] {
    std::mt19937_64 rng(77);
    const std::vector<std::uint8_t> invertible(8, 1);
    while (!go.load()) {}
    for (int s = 0; s < kSwaps; ++s) {
      link.reset(core::SignedPermutation::random(8, rng, invertible));
      std::this_thread::yield();
    }
  });

  go.store(true);
  for (auto& t : traffic) t.join();
  swapper.join();
  EXPECT_EQ(desyncs.load(), 0u);

  // The link is still a synchronized pair after the last swap.
  for (std::uint64_t w : {0x00ull, 0xFFull, 0x5Aull, 0xA5ull}) {
    EXPECT_EQ(link.roundtrip(w), w);
  }
}

TEST(CodedLink, BatchRoundtripMatchesPerWord) {
  // The link's lookup tables against the bit-walk reference (and read back
  // as the assignment) at every width, partial top groups included, the
  // round trip against a hand-wired chain on cloned codecs, and the batched
  // round trip against a twin link driven word by word — in sync, after a
  // one-sided desync, and after the atomic reset that recovers from it.
  // Each phase starts with chunks that end short of, on and past the
  // 256-word stage of roundtrip(span), then draws chunks of 0-69 words;
  // after each chunk both twins' encoders must hold the same history.
  std::mt19937_64 rng(19);
  const std::size_t listed[] = {255, 256, 257, 1000};
  for (const auto& name : coding::codec_names()) {
    std::set<std::size_t> widths;
    for (std::size_t w = 1; w <= 64; ++w) {
      widths.insert(std::min(w, coding::codec_max_width(name)));
    }
    for (const std::size_t width : widths) {
      SCOPED_TRACE(name + " width " + std::to_string(width));
      coding::CodecSpec spec;
      spec.name = name;
      spec.period = 3;
      spec.inversion_mask = rng();
      const auto prototype = coding::make_codec(spec, width);
      const std::size_t lines = prototype->width_out();
      const auto p =
          core::SignedPermutation::random(lines, rng, std::vector<std::uint8_t>(lines, 1));

      const auto apply = core::PermutationTable::forward(p);
      const auto unapply = core::PermutationTable::inverse(p);
      const bool exhaustive = lines == 8;
      std::vector<std::uint64_t> xs(exhaustive ? 256u : 1024u);
      for (std::size_t k = 0; k < xs.size(); ++k) {
        // Every single bit, then noise with bits above the width too.
        xs[k] = exhaustive ? k : k < 64 ? std::uint64_t{1} << k : rng();
      }
      std::vector<std::uint64_t> fwd = xs;
      std::vector<std::uint64_t> inv = xs;
      apply.map(fwd);
      unapply.map(inv);
      for (std::size_t k = 0; k < xs.size(); ++k) {
        ASSERT_EQ(apply(xs[k]), p.apply_word(xs[k])) << std::hex << xs[k];
        ASSERT_EQ(unapply(xs[k]), p.unapply_word(xs[k])) << std::hex << xs[k];
        ASSERT_EQ(fwd[k], apply(xs[k])) << std::hex << xs[k];
        ASSERT_EQ(inv[k], unapply(xs[k])) << std::hex << xs[k];
      }

      const std::uint64_t mask = streams::width_mask(width);
      std::vector<std::uint64_t> words(6000);
      for (auto& w : words) w = rng();

      core::CodedLink link(p, prototype->clone());
      EXPECT_EQ(link.assignment_snapshot(), p);
      const auto tx = prototype->clone();
      const auto rx = prototype->clone();
      for (std::size_t k = 0; k < 500; ++k) {
        const std::uint64_t lines_word = p.apply_word(tx->encode(words[k] & mask));
        ASSERT_EQ(link.roundtrip(words[k] & mask), rx->decode(p.unapply_word(lines_word)))
            << "word " << k;
      }
      const auto q =
          core::SignedPermutation::random(lines, rng, std::vector<std::uint8_t>(lines, 1));
      link.reset(q);
      EXPECT_EQ(link.assignment_snapshot(), q);

      core::CodedLink batch(p, prototype->clone());
      core::CodedLink single(p, prototype->clone());
      std::size_t offset = 0;
      for (int phase = 0; phase < 3; ++phase) {
        if (phase == 1) {  // the forbidden one-sided reset, on both twins
          batch.transmitter().reset();
          single.transmitter().reset();
        } else if (phase == 2) {
          batch.reset();
          single.reset();
        }
        std::size_t batch_bad = 0;
        std::size_t single_bad = 0;
        const std::size_t end = offset + words.size() / 3;
        for (std::size_t chunk_no = 0; offset < end; ++chunk_no) {
          const std::size_t draw = chunk_no < std::size(listed) ? listed[chunk_no] : rng() % 70;
          const std::size_t take = std::min(draw, end - offset);  // 0 too
          const std::span<const std::uint64_t> chunk(words.data() + offset, take);
          batch_bad += batch.roundtrip(chunk);
          for (const std::uint64_t w : chunk) {
            single_bad += single.roundtrip(w & mask) != (w & mask);
          }
          // A stage that coded the wrong words would still decode them
          // back; the encoder's history shows which words it saw.
          const std::uint64_t probe = words[offset] & mask;
          ASSERT_EQ(batch.transmitter().clone()->encode(probe),
                    single.transmitter().clone()->encode(probe))
              << "phase " << phase << " after a " << take << "-word chunk";
          offset += take;
        }
        EXPECT_EQ(batch_bad, single_bad) << "phase " << phase;
        if (phase != 1) {
          EXPECT_EQ(batch_bad, 0u) << "phase " << phase;
        } else if (name == "correlator") {
          EXPECT_GT(batch_bad, 0u) << "a one-sided reset must desync the correlator";
        }
      }
    }
  }
}

TEST(CodedLink, TwoSwappersUnderBatchedTrafficNeverDesync) {
  // Two hot-swappers race each other and batched traffic. Each swap lands
  // between whole spans, and the line-width check of one reset(next) must
  // not read state the other is replacing (TSan vets this).
  coding::CodecSpec spec;
  spec.name = "correlator";
  core::CodedLink link(core::SignedPermutation::identity(8), coding::make_codec(spec, 8));

  constexpr int kTrafficThreads = 2;
  constexpr int kChunksPerThread = 400;
  constexpr std::size_t kChunkWords = 64;
  constexpr int kSwapsPerSwapper = 200;
  std::atomic<std::uint64_t> desyncs{0};
  std::atomic<bool> go{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < kTrafficThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(301 + t);
      std::vector<std::uint64_t> chunk(kChunkWords);
      while (!go.load()) {}
      for (int c = 0; c < kChunksPerThread; ++c) {
        for (auto& w : chunk) w = rng();  // the link masks to the payload width
        desyncs.fetch_add(link.roundtrip(chunk));
      }
    });
  }
  for (int s = 0; s < 2; ++s) {
    threads.emplace_back([&, s] {
      std::mt19937_64 rng(501 + s);
      const std::vector<std::uint8_t> invertible(8, 1);
      while (!go.load()) {}
      for (int k = 0; k < kSwapsPerSwapper; ++k) {
        link.reset(core::SignedPermutation::random(8, rng, invertible));
        std::this_thread::yield();
      }
    });
  }

  go.store(true);
  for (auto& t : threads) t.join();
  EXPECT_EQ(desyncs.load(), 0u);
  const std::vector<std::uint64_t> tail{0x00, 0xFF, 0x5A, 0xA5, 0x1FF};
  EXPECT_EQ(link.roundtrip(tail), 0u);
}

}  // namespace
