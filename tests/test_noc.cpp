// Tests for the 3D-mesh NoC substrate: topology/routing invariants, the
// batched router core, traffic patterns, the parallel cycle kernel's
// determinism (bit-identity across thread counts, differential equality with
// the reference simulator), flit conservation, deadlock freedom and the
// per-link adaptive-coding layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <string>
#include <utility>

#include "noc/coded.hpp"
#include "noc/simulator.hpp"
#include "noc_reference.hpp"
#include "simd/dispatch.hpp"
#include "stats/switching_stats.hpp"

namespace {

using namespace tsvcod;
using namespace tsvcod::noc;

// The mesh-at-scale configurations: four meshes up to 8x8x8, each under three
// traffic regimes with 32-bit flits and seed 42 -- memory-fetch hotspot
// columns (DSP payloads, rate 0.20), a planar transpose that still crosses
// layers (random payloads, 0.15) and bursty MEMS sensor trains (hotspot,
// 0.50 in 32-cycle bursts, then 96 silent cycles). After kScaleCycles cycles
// with bus-invert on every vertical link, the vertical links carry exactly
// `uncoded_toggles` payload toggles and `coded_toggles` line toggles.
struct ScaleCase {
  const char* regime;
  std::size_t nx, ny, nz;
  SpatialPattern spatial;
  PayloadModel payload;
  double rate, burst_on, burst_off;
  std::uint64_t uncoded_toggles, coded_toggles;
};

constexpr std::size_t kScaleCycles = 1000;

constexpr ScaleCase kScaleCases[] = {
    {"hotspot", 2, 2, 2, SpatialPattern::Hotspot, PayloadModel::Dsp, 0.20, 0, 0, 23010, 19844},
    {"transpose", 2, 2, 2, SpatialPattern::Transpose, PayloadModel::Random, 0.15, 0, 0, 19330,
     17006},
    {"bursty-mems", 2, 2, 2, SpatialPattern::Hotspot, PayloadModel::Mems, 0.50, 32, 96, 13496,
     11701},
    {"hotspot", 4, 4, 3, SpatialPattern::Hotspot, PayloadModel::Dsp, 0.20, 0, 0, 236133, 200500},
    {"transpose", 4, 4, 3, SpatialPattern::Transpose, PayloadModel::Random, 0.15, 0, 0, 151510,
     134055},
    {"bursty-mems", 4, 4, 3, SpatialPattern::Hotspot, PayloadModel::Mems, 0.50, 32, 96, 157014,
     135493},
    {"hotspot", 6, 6, 4, SpatialPattern::Hotspot, PayloadModel::Dsp, 0.20, 0, 0, 977870, 819401},
    {"transpose", 6, 6, 4, SpatialPattern::Transpose, PayloadModel::Random, 0.15, 0, 0, 690247,
     614447},
    {"bursty-mems", 6, 6, 4, SpatialPattern::Hotspot, PayloadModel::Mems, 0.50, 32, 96, 630768,
     540995},
    {"hotspot", 8, 8, 8, SpatialPattern::Hotspot, PayloadModel::Dsp, 0.20, 0, 0, 6308718,
     5171528},
    {"transpose", 8, 8, 8, SpatialPattern::Transpose, PayloadModel::Random, 0.15, 0, 0, 4788719,
     4267605},
    {"bursty-mems", 8, 8, 8, SpatialPattern::Hotspot, PayloadModel::Mems, 0.50, 32, 96, 4335873,
     3706442},
};

TrafficConfig scale_traffic(const ScaleCase& c) {
  TrafficConfig cfg;
  cfg.spatial = c.spatial;
  cfg.payload = c.payload;
  cfg.injection_rate = c.rate;
  cfg.flit_width = 32;
  cfg.burst_on = c.burst_on;
  cfg.burst_off = c.burst_off;
  cfg.seed = 42;
  return cfg;
}

/// Order-sensitive digest of per-link statistics: every link's transition
/// count and the exact bits of its self, one-probability and coupling
/// entries. Each step folds the high half back down: with plain FNV-1a a
/// sign flip only ever reaches bit 63, so the two flips of a symmetric
/// coupling pair would cancel.
std::uint64_t stats_digest(const std::vector<stats::SwitchingStats>& links) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    h = (h ^ v) * 0x100000001b3ull;
    h ^= h >> 32;
  };
  for (const auto& s : links) {
    mix(s.transitions);
    for (const double d : s.self) mix(std::bit_cast<std::uint64_t>(d));
    for (const double d : s.prob_one) mix(std::bit_cast<std::uint64_t>(d));
    for (const double d : s.coupling.data()) mix(std::bit_cast<std::uint64_t>(d));
  }
  return h;
}

std::string scale_name(const ScaleCase& c) {
  return std::to_string(c.nx) + "x" + std::to_string(c.ny) + "x" + std::to_string(c.nz) + "/" +
         c.regime;
}

TEST(Topology, IndexRoundTrip) {
  Mesh3D mesh(4, 3, 2);
  EXPECT_EQ(mesh.node_count(), 24u);
  for (std::size_t i = 0; i < mesh.node_count(); ++i) {
    EXPECT_EQ(mesh.index(mesh.node(i)), i);
  }
  EXPECT_THROW(mesh.node(24), std::out_of_range);
  EXPECT_THROW(mesh.index(NodeId{4, 0, 0}), std::out_of_range);
  EXPECT_THROW(Mesh3D(0, 1, 1), std::invalid_argument);
}

TEST(Topology, NeighborsRespectBoundaries) {
  Mesh3D mesh(2, 2, 2);
  const NodeId corner{0, 0, 0};
  EXPECT_FALSE(mesh.neighbor(corner, Direction::XMinus).has_value());
  EXPECT_FALSE(mesh.neighbor(corner, Direction::YMinus).has_value());
  EXPECT_FALSE(mesh.neighbor(corner, Direction::ZMinus).has_value());
  EXPECT_EQ(mesh.neighbor(corner, Direction::XPlus)->x, 1u);
  EXPECT_EQ(mesh.neighbor(corner, Direction::ZPlus)->z, 1u);
}

TEST(Topology, IndexNeighboursMatchNodeNeighbours) {
  Mesh3D mesh(3, 4, 2);
  for (std::size_t i = 0; i < mesh.node_count(); ++i) {
    for (int d = 0; d < 6; ++d) {
      const auto dir = static_cast<Direction>(d);
      const auto by_node = mesh.neighbor(mesh.node(i), dir);
      const std::size_t by_index = mesh.neighbor_index(i, dir);
      if (by_node.has_value()) {
        EXPECT_EQ(by_index, mesh.index(*by_node));
      } else {
        EXPECT_EQ(by_index, Mesh3D::npos);
      }
    }
  }
}

TEST(Topology, XyzRoutingReachesDestination) {
  Mesh3D mesh(4, 4, 3);
  const NodeId src{0, 3, 0};
  const NodeId dst{3, 1, 2};
  NodeId at = src;
  std::size_t hops = 0;
  while (true) {
    const Direction d = xyz_route(at, dst);
    if (d == Direction::Local) break;
    at = *mesh.neighbor(at, d);
    ASSERT_LE(++hops, 20u) << "routing must terminate";
  }
  EXPECT_EQ(at, dst);
  // XYZ routes are minimal: one hop per unit of Manhattan distance.
  EXPECT_EQ(hops, 3u + 2u + 2u);
}

TEST(Topology, XyzOrderIsDimensionOrdered) {
  // X is always corrected before Y before Z.
  EXPECT_EQ(xyz_route(NodeId{0, 2, 2}, NodeId{2, 0, 0}), Direction::XPlus);
  EXPECT_EQ(xyz_route(NodeId{2, 2, 2}, NodeId{2, 0, 0}), Direction::YMinus);
  EXPECT_EQ(xyz_route(NodeId{2, 0, 2}, NodeId{2, 0, 0}), Direction::ZMinus);
}

TEST(Topology, VerticalLinksEnumerateEveryTsvBundle) {
  Mesh3D mesh(3, 2, 3);
  const auto links = vertical_links(mesh);
  // nx*ny*(nz-1) up plus the same down.
  EXPECT_EQ(links.size(), 2u * 3u * 2u * 2u);
  std::set<std::pair<std::size_t, int>> seen;
  for (const auto& link : links) {
    EXPECT_TRUE(link_exists(mesh, link));
    EXPECT_TRUE(Mesh3D::is_vertical(link.out));
    seen.insert({mesh.index(link.from), static_cast<int>(link.out)});
  }
  EXPECT_EQ(seen.size(), links.size()) << "no duplicates";
}

TEST(Validation, ErrorsNameTheOffendingField) {
  const auto message_of = [](auto&& fn) -> std::string {
    try {
      fn();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_NE(message_of([] { Mesh3D(0, 2, 2); }).find("nx"), std::string::npos);
  EXPECT_NE(message_of([] { Mesh3D(2, 2, 0); }).find("nz"), std::string::npos);

  TrafficConfig bad_rate;
  bad_rate.injection_rate = 1.5;
  EXPECT_NE(message_of([&] { bad_rate.validate(); }).find("TrafficConfig.injection_rate"),
            std::string::npos);
  TrafficConfig bad_width;
  bad_width.flit_width = 0;
  EXPECT_NE(message_of([&] { bad_width.validate(); }).find("TrafficConfig.flit_width"),
            std::string::npos);
  bad_width.flit_width = 65;
  EXPECT_THROW(bad_width.validate(), std::invalid_argument);
  TrafficConfig bad_burst;
  bad_burst.burst_on = 10.0;  // burst_off left unset
  EXPECT_NE(message_of([&] { bad_burst.validate(); }).find("burst_on"), std::string::npos);

  SimOptions bad_threads;
  bad_threads.threads = -1;
  EXPECT_NE(message_of([&] { bad_threads.validate(); }).find("SimOptions.threads"),
            std::string::npos);

  // Probing a link that leaves the mesh names the call site and the link.
  Mesh3D flat(2, 2, 1);
  NocSimulator sim(flat, TrafficConfig{});
  const auto msg =
      message_of([&] { sim.probe_link({NodeId{0, 0, 0}, Direction::ZPlus}); });
  EXPECT_NE(msg.find("NocSimulator::probe_link"), std::string::npos);
  EXPECT_NE(msg.find("Z+"), std::string::npos);
}

TEST(Router, ArbitratesOneFlitPerOutput) {
  Router r;
  PackedFlit a{0x11, 2, 0};
  PackedFlit b{0x22, 2, 0};
  // Two flits from different inputs both want XPlus.
  r.accept(Direction::Local, a, Direction::XPlus);
  r.accept(Direction::XMinus, b, Direction::XPlus);

  PackedFlit grants[kPortCount];
  std::uint8_t granted = r.arbitrate(grants);
  EXPECT_EQ(granted, 1u << static_cast<int>(Direction::XPlus));
  EXPECT_EQ(r.queued(), 1u);

  granted = r.arbitrate(grants);
  EXPECT_EQ(granted, 1u << static_cast<int>(Direction::XPlus));
  EXPECT_EQ(r.queued(), 0u);
}

TEST(Router, RoundRobinRotatesOverContendingInputs) {
  Router r;
  PackedFlit f{0, 5, 0};
  // Three inputs contending for the same output, twice each.
  for (int round = 0; round < 2; ++round) {
    r.accept(Direction::XMinus, f, Direction::XPlus);
    r.accept(Direction::YMinus, f, Direction::XPlus);
    r.accept(Direction::Local, f, Direction::XPlus);
  }
  PackedFlit grants[kPortCount];
  // Six cycles drain six flits, one per cycle, no starvation.
  for (int c = 0; c < 6; ++c) {
    EXPECT_EQ(r.arbitrate(grants), 1u << static_cast<int>(Direction::XPlus));
  }
  EXPECT_EQ(r.queued(), 0u);
}

TEST(Traffic, HotspotTargetsTopLayer) {
  Mesh3D mesh(3, 3, 3);
  TrafficConfig cfg;
  cfg.spatial = SpatialPattern::Hotspot;
  cfg.injection_rate = 1.0;
  TrafficGenerator gen(mesh, cfg);
  for (std::size_t i = 0; i < mesh.node_count(); ++i) {
    const auto n = mesh.node(i);
    const auto flit = gen.generate(i, 0);
    ASSERT_TRUE(flit.has_value());
    if (n.z < 2) {
      EXPECT_EQ(flit->dst.z, 2u);
      EXPECT_EQ(flit->dst.x, n.x);
      EXPECT_EQ(flit->dst.y, n.y);
    } else {
      EXPECT_EQ(flit->dst.z, 0u);  // top-layer nodes talk downwards
    }
  }
}

TEST(Traffic, InjectionRateRoughlyHonoured) {
  Mesh3D mesh(2, 2, 2);
  TrafficConfig cfg;
  cfg.injection_rate = 0.25;
  TrafficGenerator gen(mesh, cfg);
  std::size_t injected = 0;
  const std::size_t trials = 20000;
  for (std::size_t c = 0; c < trials; ++c) {
    if (gen.generate(mesh.index(NodeId{0, 0, 0}), c)) ++injected;
  }
  EXPECT_NEAR(static_cast<double>(injected) / trials, 0.25, 0.02);
}

TEST(Traffic, BurstModulationGatesInjection) {
  Mesh3D mesh(2, 2, 2);
  TrafficConfig cfg;
  cfg.injection_rate = 1.0;
  cfg.burst_on = 8.0;
  cfg.burst_off = 24.0;
  cfg.payload = PayloadModel::Mems;
  TrafficGenerator gen(mesh, cfg);
  std::size_t injected = 0;
  const std::size_t trials = 40000;
  for (std::size_t c = 0; c < trials; ++c) {
    if (gen.generate(mesh.index(NodeId{1, 0, 0}), c)) ++injected;
  }
  // Duty cycle 8/(8+24) = 25 % at rate 1.0.
  EXPECT_NEAR(static_cast<double>(injected) / trials, 0.25, 0.04);
}

TEST(Simulator, DeliversEverythingAfterDrain) {
  Mesh3D mesh(3, 3, 2);
  TrafficConfig cfg;
  cfg.spatial = SpatialPattern::Uniform;
  cfg.injection_rate = 0.05;
  NocSimulator sim(mesh, cfg);
  auto stats = sim.run(2000);
  EXPECT_GT(stats.injected, 0u);
  // Light load: nearly everything delivered; latency at least 1 cycle/hop.
  EXPECT_GT(stats.delivered, stats.injected * 9 / 10);
  EXPECT_GE(stats.mean_latency, 1.0);
  EXPECT_LT(stats.mean_latency, 50.0);
}

TEST(Simulator, FlitConservationHoldsEveryCycle) {
  Mesh3D mesh(3, 3, 2);
  TrafficConfig cfg;
  cfg.spatial = SpatialPattern::Uniform;
  cfg.injection_rate = 0.4;
  NocSimulator sim(mesh, cfg);
  for (int c = 0; c < 200; ++c) {
    const auto stats = sim.run(1);
    ASSERT_EQ(stats.injected, stats.delivered + stats.in_flight)
        << "conservation violated at cycle " << c;
    ASSERT_EQ(stats.in_flight, sim.in_flight());
  }
}

TEST(Simulator, LinkCountersIndexOnlyExistingLinks) {
  Mesh3D mesh(3, 2, 3);
  TrafficConfig cfg;
  cfg.spatial = SpatialPattern::Hotspot;
  cfg.injection_rate = 0.3;
  NocSimulator sim(mesh, cfg);
  const auto stats = sim.run(2000);
  ASSERT_EQ(stats.link_flits.size(), mesh.node_count() * static_cast<std::size_t>(kPortCount));
  ASSERT_EQ(stats.link_toggles.size(), stats.link_flits.size());
  ASSERT_EQ(stats.link_coded_toggles.size(), stats.link_flits.size());
  std::uint64_t vertical_flits = 0;
  for (std::size_t i = 0; i < mesh.node_count(); ++i) {
    for (int p = 0; p < kPortCount; ++p) {
      const auto d = static_cast<Direction>(p);
      const std::size_t slot = link_slot(i, d);
      const bool exists = d != Direction::Local && mesh.neighbor_index(i, d) != Mesh3D::npos;
      if (!exists) {
        EXPECT_EQ(stats.link_flits[slot], 0u)
            << "flits on non-existent link " << link_name({mesh.node(i), d});
        EXPECT_EQ(stats.link_toggles[slot], 0u);
      }
      if (stats.link_toggles[slot] > 0) {
        EXPECT_GT(stats.link_flits[slot], 0u);
      }
      EXPECT_EQ(stats.link_coded_toggles[slot], 0u) << "no coding attached";
      if (exists && Mesh3D::is_vertical(d)) vertical_flits += stats.link_flits[slot];
    }
  }
  EXPECT_GT(vertical_flits, 0u) << "hotspot traffic must cross the TSV bundles";
}

TEST(Simulator, XyzRoutingIsDeadlockFreeAtFullLoad) {
  // Transpose at injection rate 1.0 saturates the mesh; XYZ dimension order
  // must keep making progress anyway.
  Mesh3D mesh(4, 4, 2);
  TrafficConfig cfg;
  cfg.spatial = SpatialPattern::Transpose;
  cfg.injection_rate = 1.0;
  NocSimulator sim(mesh, cfg);
  std::size_t delivered = 0;
  for (int chunk = 0; chunk < 4; ++chunk) {
    const auto stats = sim.run(500);
    ASSERT_GT(stats.delivered, delivered) << "no progress in chunk " << chunk;
    delivered = stats.delivered;
  }
}

TEST(Simulator, BitIdenticalAcrossThreadCounts) {
  // Each rank owns at least 64 routers, so 2 and 8 threads run 2 and 8
  // ranks on the 8x8x8 meshes, 2 ranks on 6x6x4 and the serial loop on
  // meshes under 128 routers. A coded run (bus-invert on every vertical
  // link, per-link statistics tracked) crosses slab boundaries through the
  // codec pairs, whose encoder the sender rank drives and whose decoder the
  // receiver rank drives, with no lock between them, so it is compared
  // across thread counts too, with its per-link statistics.
  const auto expect_identical = [](const Mesh3D& mesh, const TrafficConfig& cfg,
                                   std::size_t cycles, const std::string& name, bool coded) {
    const auto run_with = [&](int threads) {
      SimOptions options;
      options.threads = threads;
      options.track_vertical_stats = coded;
      NocSimulator sim(mesh, cfg, options);
      if (coded) sim.attach_vertical_coding({.name = "bus-invert"});
      const std::size_t want = std::min<std::size_t>(
          static_cast<std::size_t>(threads), std::max<std::size_t>(1, mesh.node_count() / 64));
      EXPECT_EQ(static_cast<std::size_t>(sim.ranks()), want)
          << name << " at " << threads << " threads";
      const SimStats run_stats = sim.run(cycles);
      return std::pair{run_stats, coded ? sim.vertical_link_stats()
                                    : std::vector<stats::SwitchingStats>{}};
    };
    const auto [serial, serial_links] = run_with(1);
    for (const int threads : {2, 8}) {
      const auto [parallel, links] = run_with(threads);
      EXPECT_EQ(serial, parallel) << name << " at " << threads << " threads";
      ASSERT_EQ(serial_links.size(), links.size()) << name;
      for (std::size_t i = 0; i < links.size(); ++i) {
        const auto& a = serial_links[i];
        const auto& b = links[i];
        EXPECT_TRUE(a.width == b.width && a.transitions == b.transitions && a.self == b.self &&
                    a.prob_one == b.prob_one && a.coupling.data() == b.coupling.data())
            << name << " at " << threads << " threads: vertical link " << i << " statistics";
      }
    }
  };
  struct Case {
    std::size_t nx, ny, nz;
    SpatialPattern pattern;
    PayloadModel payload;
  };
  const Case cases[] = {
      {2, 2, 2, SpatialPattern::Uniform, PayloadModel::Random},
      {3, 2, 4, SpatialPattern::Hotspot, PayloadModel::Dsp},
      {4, 4, 3, SpatialPattern::Transpose, PayloadModel::Mems},
  };
  for (const auto& c : cases) {
    TrafficConfig cfg;
    cfg.spatial = c.pattern;
    cfg.payload = c.payload;
    cfg.injection_rate = 0.35;
    cfg.flit_width = 24;
    cfg.seed = 7 * c.nx + c.nz;
    expect_identical(Mesh3D(c.nx, c.ny, c.nz), cfg, 400,
                     std::to_string(c.nx) + "x" + std::to_string(c.ny) + "x" +
                         std::to_string(c.nz),
                     false);
  }
  for (const auto& c : kScaleCases) {
    const Mesh3D mesh(c.nx, c.ny, c.nz);
    expect_identical(mesh, scale_traffic(c), kScaleCycles, scale_name(c), false);
    // The noc-plan workload's traffic, coded, at 2 ranks (6x6x4) and at 2
    // and 8 ranks (8x8x8).
    if (c.payload == PayloadModel::Mems && mesh.node_count() >= 128) {
      expect_identical(mesh, scale_traffic(c), kScaleCycles, scale_name(c) + " coded", true);
    }
  }
}

TEST(Simulator, MatchesReferenceSimulator) {
  const auto expect_match = [](const Mesh3D& mesh, const TrafficConfig& cfg, std::size_t cycles,
                               const std::string& name) {
    NocSimulator fast(mesh, cfg);
    ReferenceSimulator ref(mesh, cfg);
    const SimStats a = fast.run(cycles);
    const SimStats b = ref.run(cycles);
    EXPECT_EQ(a.injected, b.injected) << name;
    EXPECT_EQ(a.delivered, b.delivered) << name;
    EXPECT_EQ(a.latency_cycles, b.latency_cycles) << name;
    EXPECT_EQ(a.ejection_digest, b.ejection_digest)
        << name << ": payload/latency delivery streams diverged";
    EXPECT_EQ(a.max_queued, b.max_queued) << name;
    EXPECT_EQ(a.in_flight, b.in_flight) << name;
    EXPECT_EQ(a.link_flits, b.link_flits) << name;
    EXPECT_EQ(a.link_toggles, b.link_toggles) << name;
  };
  for (const auto pattern :
       {SpatialPattern::Uniform, SpatialPattern::Hotspot, SpatialPattern::Transpose}) {
    TrafficConfig cfg;
    cfg.spatial = pattern;
    cfg.injection_rate = 0.25;
    cfg.flit_width = 16;
    cfg.payload = PayloadModel::Dsp;
    expect_match(Mesh3D(3, 3, 3), cfg, 800, "3x3x3");
  }
  for (const auto& c : kScaleCases) {
    expect_match(Mesh3D(c.nx, c.ny, c.nz), scale_traffic(c), kScaleCycles, scale_name(c));
  }
}

TEST(Simulator, ProbeCapturesHeldWords) {
  Mesh3D mesh(2, 2, 2);
  TrafficConfig cfg;
  cfg.spatial = SpatialPattern::Hotspot;
  cfg.injection_rate = 0.3;
  cfg.flit_width = 16;
  NocSimulator sim(mesh, cfg);
  sim.probe_link({NodeId{0, 0, 0}, Direction::ZPlus});
  const auto stats = sim.run(3000);
  const auto& trace = sim.probe_trace();
  ASSERT_EQ(trace.size(), 3000u);
  EXPECT_GT(stats.probe_busy_cycles, 0u);
  EXPECT_LT(stats.probe_busy_cycles, 3000u);

  // Valid-line semantics: the MSB marks busy cycles and data lines hold
  // their value during idle cycles.
  std::size_t busy = 0;
  std::uint64_t held = 0;
  for (const auto w : trace) {
    ASSERT_EQ(w >> 17, 0u) << "16 data lines plus the valid line";
    if (w >> 16) {
      ++busy;
      held = w & 0xFFFF;
    } else {
      EXPECT_EQ(w & 0xFFFF, held) << "idle cycles must hold the last word";
    }
  }
  EXPECT_EQ(busy, stats.probe_busy_cycles);

  // The captured trace is a valid statistics source for the optimizer.
  const auto st = stats::compute_stats(trace, 17);
  EXPECT_EQ(st.width, 17u);
}

TEST(Simulator, VerticalLinksCarryHotspotTraffic) {
  Mesh3D mesh(3, 3, 2);
  TrafficConfig cfg;
  cfg.spatial = SpatialPattern::Hotspot;
  cfg.injection_rate = 0.2;
  NocSimulator sim(mesh, cfg);
  sim.probe_link({NodeId{1, 1, 0}, Direction::ZPlus});
  const auto stats = sim.run(4000);
  // Under the memory-fetch pattern the probed vertical link must be busy for
  // roughly the injection rate of its column.
  EXPECT_GT(static_cast<double>(stats.probe_busy_cycles) / 4000.0, 0.1);
}

TEST(Simulator, TracksPerVerticalLinkStatistics) {
  Mesh3D mesh(2, 2, 2);
  TrafficConfig cfg;
  cfg.spatial = SpatialPattern::Hotspot;
  cfg.injection_rate = 0.4;
  cfg.flit_width = 16;
  SimOptions options;
  options.track_vertical_stats = true;
  NocSimulator sim(mesh, cfg, options);
  sim.run(500);
  const auto vs = sim.vertical_link_stats();
  ASSERT_EQ(vs.size(), vertical_links(mesh).size());
  for (const auto& st : vs) EXPECT_EQ(st.width, 16u);

  NocSimulator plain(mesh, cfg);
  EXPECT_THROW(plain.vertical_link_stats(), std::logic_error);
}

TEST(CodedMesh, DeliversByteIdenticalPayloadsAndLatencies) {
  // Runs the fabric plain and with bus-invert on every vertical link, and
  // returns the coded run's (uncoded payload, coded line) toggle totals over
  // the vertical links.
  const auto expect_transparent = [](const Mesh3D& mesh, const TrafficConfig& cfg,
                                     std::size_t cycles, const std::string& name) {
    NocSimulator plain(mesh, cfg);
    const SimStats base = plain.run(cycles);

    NocSimulator coded(mesh, cfg);
    coded.attach_vertical_coding({.name = "bus-invert"});
    EXPECT_EQ(coded.vertical_line_width(), cfg.flit_width + 1) << name;
    const SimStats cs = coded.run(cycles);

    // Coding is transparent to the fabric: identical delivery streams
    // (payloads AND latencies), identical link utilization.
    EXPECT_EQ(cs.ejection_digest, base.ejection_digest) << name;
    EXPECT_EQ(cs.delivered, base.delivered) << name;
    EXPECT_EQ(cs.latency_cycles, base.latency_cycles) << name;
    EXPECT_EQ(cs.link_flits, base.link_flits) << name;
    EXPECT_EQ(cs.link_toggles, base.link_toggles) << name;

    // Bus-invert's keep-polarity option bounds the coded line toggles by the
    // uncoded payload toggles on every vertical link; planar links stay
    // uncoded (zero coded counters).
    std::uint64_t uncoded = 0, coded_total = 0;
    bool saw_coded_link = false;
    for (std::size_t i = 0; i < mesh.node_count(); ++i) {
      for (int p = 0; p < kPortCount; ++p) {
        const auto d = static_cast<Direction>(p);
        const std::size_t slot = link_slot(i, d);
        if (Mesh3D::is_vertical(d) && mesh.neighbor_index(i, d) != Mesh3D::npos) {
          EXPECT_LE(cs.link_coded_toggles[slot], cs.link_toggles[slot])
              << name << ": bus-invert exceeded uncoded toggles on "
              << link_name({mesh.node(i), d});
          if (cs.link_flits[slot] > 0) saw_coded_link = true;
          uncoded += cs.link_toggles[slot];
          coded_total += cs.link_coded_toggles[slot];
        } else {
          EXPECT_EQ(cs.link_coded_toggles[slot], 0u) << name;
        }
      }
    }
    EXPECT_TRUE(saw_coded_link) << name;

    // Attaching after traffic has run is rejected.
    EXPECT_THROW(coded.attach_vertical_coding({.name = "bus-invert"}), std::logic_error);
    return std::pair{uncoded, coded_total};
  };

  TrafficConfig cfg;
  cfg.spatial = SpatialPattern::Hotspot;
  cfg.injection_rate = 0.3;
  cfg.flit_width = 16;
  cfg.payload = PayloadModel::Dsp;
  expect_transparent(Mesh3D(3, 3, 2), cfg, 1500, "3x3x2");

  for (const auto& c : kScaleCases) {
    const auto [uncoded, coded] =
        expect_transparent(Mesh3D(c.nx, c.ny, c.nz), scale_traffic(c), kScaleCycles, scale_name(c));
    EXPECT_EQ(uncoded, c.uncoded_toggles) << scale_name(c);
    EXPECT_EQ(coded, c.coded_toggles) << scale_name(c);
  }
}

TEST(CodedMesh, RejectsMisalignedAssignments) {
  Mesh3D mesh(2, 2, 2);
  NocSimulator sim(mesh, TrafficConfig{});
  std::vector<core::SignedPermutation> wrong(3, core::SignedPermutation::identity(33));
  try {
    sim.attach_vertical_coding({.name = "bus-invert"}, wrong);
    FAIL() << "misaligned assignment count must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("assignments"), std::string::npos);
  }
  // One per link, but 16 lines where bus-invert drives 16 + 1.
  const std::vector<core::SignedPermutation> narrow(vertical_links(mesh).size(),
                                                    core::SignedPermutation::identity(16));
  try {
    sim.attach_vertical_coding({.name = "bus-invert"}, narrow);
    FAIL() << "a wrong-width assignment must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("assignments[0] has 16 lines"), std::string::npos)
        << e.what();
  }
}

TEST(CodedMesh, PlannedPerLinkAssignmentsStayTransparent) {
  Mesh3D mesh(2, 2, 2);
  TrafficConfig cfg;
  cfg.spatial = SpatialPattern::Hotspot;
  cfg.injection_rate = 0.5;
  cfg.flit_width = 8;
  cfg.payload = PayloadModel::Dsp;

  VerticalCodingOptions options;
  options.warmup_cycles = 512;
  options.optimize.schedule.iterations = 400;
  options.optimize.chains = 1;
  const auto plan = plan_vertical_coding(mesh, cfg, options);
  ASSERT_EQ(plan.links.size(), vertical_links(mesh).size());
  ASSERT_EQ(plan.assignments.size(), plan.links.size());
  EXPECT_EQ(plan.line_width, 9u);  // 8 payload + bus-invert flag
  for (const auto& a : plan.assignments) EXPECT_EQ(a.size(), 9u);
  EXPECT_GT(plan.total_identity_power(), 0.0);
  // The annealer prices the identity start too, so it can only improve.
  EXPECT_LE(plan.total_optimized_power(), plan.total_identity_power() * 1.0001);

  // Per-link optimized assignments still deliver byte-identical payloads.
  NocSimulator plain(mesh, cfg);
  const SimStats base = plain.run(1000);
  NocSimulator coded(mesh, cfg);
  coded.attach_vertical_coding(options.spec, plan.assignments);
  const SimStats cs = coded.run(1000);
  EXPECT_EQ(cs.ejection_digest, base.ejection_digest);
  EXPECT_EQ(cs.delivered, base.delivered);
}

// One 4x4x4 bursty-MEMS mesh (seed 42, the noc-plan workload's traffic at a
// smaller scale) pinned exactly in the three runs noc-plan makes: uncoded,
// identity-coded with per-link statistics tracked (the planner's warm-up),
// and coded with per-link planned assignments. Each run pins the ejection
// digest and the vertical links' payload and coded-line toggles, both as
// totals and as an order-sensitive digest over the links. The planner runs
// at the scalar level, so the planned assignments do not depend on the host.
// The per-link statistics are pinned too, as digests: uncoded, in the
// identity-coded warm-up, and under the planned assignments, where the
// counts are relabeled from codec space onto the lines. Tracked runs split
// as run(1) + run(63) + run(936) must give the same bits, and so must 2 and
// 8 threads (at 64 routers every thread count runs the serial loop).
TEST(CodedMesh, BurstyMems4x4x4Golden) {
  const Mesh3D mesh(4, 4, 4);
  const TrafficConfig cfg = scale_traffic(
      {"bursty-mems", 4, 4, 4, SpatialPattern::Hotspot, PayloadModel::Mems, 0.50, 32, 96, 0, 0});
  constexpr std::size_t kCycles = 1000;
  struct Golden {
    std::uint64_t ejection_digest, toggles, coded_toggles, link_digest;
  };
  const auto observe = [&](const SimStats& s) {
    Golden g{s.ejection_digest, 0, 0, 0xcbf29ce484222325ull};
    for (const LinkId& link : vertical_links(mesh)) {
      const std::size_t slot = link_slot(mesh.index(link.from), link.out);
      g.toggles += s.link_toggles[slot];
      g.coded_toggles += s.link_coded_toggles[slot];
      for (const std::uint64_t v : {s.link_toggles[slot], s.link_coded_toggles[slot]}) {
        g.link_digest = (g.link_digest ^ v) * 0x100000001b3ull;
      }
    }
    return g;
  };
  const auto expect_golden = [](const Golden& got, const Golden& want, const char* run) {
    EXPECT_EQ(got.ejection_digest, want.ejection_digest) << run;
    EXPECT_EQ(got.toggles, want.toggles) << run;
    EXPECT_EQ(got.coded_toggles, want.coded_toggles) << run;
    EXPECT_EQ(got.link_digest, want.link_digest) << run;
  };

  // A tracked run, whole or split unevenly: its last SimStats and per-link
  // statistics digest.
  const auto tracked_run = [&](const coding::CodecSpec* spec,
                               std::span<const core::SignedPermutation> assignments, int threads,
                               bool split) {
    SimOptions tracked;
    tracked.track_vertical_stats = true;
    tracked.threads = threads;
    NocSimulator sim(mesh, cfg, tracked);
    if (spec != nullptr) sim.attach_vertical_coding(*spec, assignments);
    SimStats last;
    for (const std::size_t part : split ? std::vector<std::size_t>{1, 63, 936}
                                        : std::vector<std::size_t>{kCycles}) {
      last = sim.run(part);
    }
    return std::pair{last, stats_digest(sim.vertical_link_stats())};
  };
  const auto expect_tracked = [&](const coding::CodecSpec* spec,
                                  std::span<const core::SignedPermutation> assignments,
                                  const Golden& want, std::uint64_t want_stats, const char* run) {
    const auto [whole, digest] = tracked_run(spec, assignments, 1, false);
    expect_golden(observe(whole), want, run);
    EXPECT_EQ(digest, want_stats) << run << ": per-link statistics";
    for (const int threads : {1, 2, 8}) {
      const auto [split, split_digest] = tracked_run(spec, assignments, threads, true);
      EXPECT_EQ(split, whole) << run << ", split, " << threads << " threads";
      EXPECT_EQ(split_digest, want_stats) << run << ", split, " << threads << " threads";
    }
  };

  NocSimulator plain(mesh, cfg);
  expect_golden(observe(plain.run(kCycles)),
                {0x21f075a8af7625eaull, 283467, 0, 0xfd32fa6fc918bc74ull}, "uncoded");
  expect_tracked(nullptr, {}, {0x21f075a8af7625eaull, 283467, 0, 0xfd32fa6fc918bc74ull},
                 0xcf0e9c533746c4afull, "uncoded, tracked");

  const coding::CodecSpec bus_invert{.name = "bus-invert"};
  expect_tracked(&bus_invert, {},
                 {0x21f075a8af7625eaull, 283467, 243556, 0xb5dd3836bfc1e3b8ull},
                 0x779ebf806a7602eeull, "identity-coded");

  simd::ScopedLevel scalar(simd::Level::scalar);
  VerticalCodingOptions options;
  options.warmup_cycles = kCycles;
  options.optimize.schedule.iterations = 400;
  options.optimize.chains = 1;
  const VerticalCodingPlan plan = plan_vertical_coding(mesh, cfg, options);
  NocSimulator planned(mesh, cfg);
  planned.attach_vertical_coding(options.spec, plan.assignments);
  expect_golden(observe(planned.run(kCycles)),
                {0x21f075a8af7625eaull, 283467, 243946, 0x5b7de603f21c9164ull}, "planned");
  expect_tracked(&options.spec, plan.assignments,
                 {0x21f075a8af7625eaull, 283467, 243946, 0x5b7de603f21c9164ull},
                 0xf10918e6d797408eull, "planned, tracked");
}

TEST(CodedMesh, DefaultBundleGeometryIsMostSquare) {
  EXPECT_EQ(default_bundle_geometry(9).rows, 3u);
  EXPECT_EQ(default_bundle_geometry(9).cols, 3u);
  EXPECT_EQ(default_bundle_geometry(33).rows, 3u);
  EXPECT_EQ(default_bundle_geometry(33).cols, 11u);
  EXPECT_EQ(default_bundle_geometry(17).rows, 1u);  // prime: single row
  EXPECT_EQ(default_bundle_geometry(17).cols, 17u);
  EXPECT_THROW(default_bundle_geometry(0), std::invalid_argument);
}

}  // namespace
