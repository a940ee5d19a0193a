#pragma once
// Batched, parallel cycle kernel for the 3D-mesh NoC.
//
// Each cycle runs in two phases with a barrier between them:
//
//   arbitrate — every router grants at most one flit per output port
//               (round-robin over contending inputs) and writes winners into
//               per-link transfer registers; per-link flit/toggle counters
//               and the coded-line encode happen here, on the sender's side.
//   transfer  — every router drains the registers pointing *at* it into its
//               input rings (decoding coded vertical links), retires flits
//               that arrived (latency, ejection digest), injects new traffic
//               from its own generator state, and tracks occupancy.
//
// Every register slot has exactly one writer (the sender, in phase A) and
// one reader (the receiver, in phase B), and every router's rings, counters
// and traffic state are touched only by the rank that owns the router — so
// the mesh can be partitioned into contiguous Z-slabs (node indices are
// z-major) and simulated by a team of worker ranks with two SpinBarrier
// waits per cycle. All shared counters are exact integers reduced in router
// index order, and traffic is a pure function of (config, node, cycle), so
// SimStats is bit-identical at every thread count, including 1.
//
// Input rings are unbounded, so phase B always empties every register it
// reads: a sender never finds its output register still occupied, and a
// source never waits to inject. Under saturation the queues grow instead
// (SimStats::max_queued records how far).
//
// Vertical (±z) links are TSV bundles: an optional codec pair per vertical
// link, with an independently optimized signed permutation (see
// noc/coded.hpp), encodes every payload crossing it, with exact coded-line
// toggle counters next to the uncoded ones, and optional per-link
// switching-statistics accumulators feed the bit-to-TSV optimizer for
// *every* bundle instead of one probed link.
//
// A coded hop never builds the physical line word. Its sender encodes and
// latches the codec word, its receiver decodes that word, and nothing in
// between relabels it: a signed permutation moves and inverts lines, which
// leaves every toggle count unchanged, so the codec-space latch starts at
// the permutation's preimage of the all-zero lines and counts exactly the
// physical toggles. Per-link statistics are counted in codec space too and
// relabeled once, on the exact counts, when vertical_link_stats() reads
// them; idle cycles, which repeat the latched word, are added in bulk when
// the next flit crosses and at the end of each run() (DESIGN.md §5k).
//
// A LinkProbe records the word physically present on a chosen link each
// cycle: the transmitted flit payload plus a valid line, with the data lines
// *holding their last value* during idle cycles (what a real latched link
// does, and exactly the statistics the bit-to-TSV optimizer needs).

#include <memory>
#include <span>
#include <vector>

#include "coding/factory.hpp"
#include "core/assignment.hpp"
#include "noc/router.hpp"
#include "noc/traffic.hpp"
#include "stats/bitplane.hpp"

namespace tsvcod::noc {

struct SimStats {
  std::size_t injected = 0;
  std::size_t delivered = 0;
  double mean_latency = 0.0;          ///< cycles, delivered flits
  std::uint64_t latency_cycles = 0;   ///< exact integer latency sum
  std::size_t max_queued = 0;         ///< worst router occupancy seen
  /// Flits still in the fabric (rings + transfer registers) when the run
  /// ended: injected == delivered + in_flight.
  std::size_t in_flight = 0;
  /// Order-exact digest of every ejection (payload, latency) stream, folded
  /// over routers in index order: two simulations delivered byte-identical
  /// payloads with identical latencies iff the digests match.
  std::uint64_t ejection_digest = 0;
  std::size_t probe_busy_cycles = 0;  ///< cycles the probed link carried a flit
  /// Flits transferred per inter-router link, indexed node*kPortCount+port
  /// (Local ports stay zero). Cumulative across run() calls.
  std::vector<std::uint64_t> link_flits;
  /// Payload bit toggles per link (hamming distance between consecutive
  /// transferred flits; the data lines latch, so idle cycles add nothing).
  std::vector<std::uint64_t> link_toggles;
  /// Coded-line toggles per link: transitions of the physical (encoded)
  /// line word on vertical links with an attached CodedLink; zero elsewhere.
  std::vector<std::uint64_t> link_coded_toggles;
  /// Bit toggles on the probed link's physical lines (payload + valid), i.e.
  /// the switching activity the bit-to-TSV optimizer prices.
  std::uint64_t probe_toggled_bits = 0;

  bool operator==(const SimStats&) const = default;
};

struct SimOptions {
  /// Worker ranks for the cycle kernel. 0 = the TSVCOD_THREADS convention;
  /// 1 (default) = serial. Each rank owns at least 64 routers, so smaller
  /// meshes use fewer ranks (below 128 routers, the serial loop). Results
  /// are bit-identical at every value.
  int threads = 1;
  /// Maintain an exact switching-statistics accumulator per vertical link
  /// (latched line words, one sample per cycle) — the input the per-link
  /// assignment optimizer needs. A link is sampled only when a flit crosses
  /// it, with the idle cycles since added in bulk; on the 8x8x8 noc-plan
  /// warm-up (bursty MEMS, 4096 cycles) this adds about 1.1 M single and
  /// 2.5 M bulk samples, and the tracked, coded run takes 0.30–0.36 s where
  /// the same run untracked takes 0.27–0.30 s (4-vCPU AVX-512 host, serial).
  bool track_vertical_stats = false;

  /// Throws std::invalid_argument naming the offending field.
  void validate() const;
};

class NocSimulator {
 public:
  NocSimulator(const Mesh3D& mesh, const TrafficConfig& traffic, SimOptions options = {});

  /// Record the words on this link (flit width + 1 valid line as MSB).
  /// Throws std::invalid_argument naming the link if it is not in the mesh.
  void probe_link(LinkId link);

  /// Attach a codec pair to every vertical link: flits crossing a TSV bundle
  /// are encoded by `spec`'s codec, carried as line words, and decoded on
  /// arrival (payloads delivered to the cores are bit-identical to the
  /// uncoded mesh — the noc_coded oracle's property). `assignments` must be
  /// aligned with vertical_links(mesh) (one optimized signed permutation
  /// per bundle, each as wide as the codec's output) or empty for identity
  /// assignments. Must be called before the first run().
  void attach_vertical_coding(const coding::CodecSpec& spec,
                              std::span<const core::SignedPermutation> assignments = {});

  /// Run `cycles` cycles; keeps injecting throughout.
  SimStats run(std::size_t cycles);

  /// Worker ranks run() uses: the resolved SimOptions::threads, capped so
  /// that each rank owns at least 64 routers (1 = the serial loop).
  int ranks() const;

  /// Captured link words (one per simulated cycle since probe_link()).
  const std::vector<std::uint64_t>& probe_trace() const { return trace_; }

  /// Flits currently inside the fabric (rings + registers).
  std::size_t in_flight() const;

  /// The vertical links, in the order vertical_link_stats() and
  /// attach_vertical_coding() use (vertical_links(mesh)).
  const std::vector<LinkId>& coded_links() const { return vlinks_; }

  /// Width of the physical line word on vertical links: the codec output
  /// width when coding is attached, the flit width otherwise.
  std::size_t vertical_line_width() const { return line_width_; }

  /// Exact per-vertical-link switching statistics accumulated so far, one
  /// entry per coded_links() element. Requires track_vertical_stats and at
  /// least two simulated cycles.
  std::vector<stats::SwitchingStats> vertical_link_stats() const;

 private:
  void phase_arbitrate(std::size_t begin, std::size_t end, std::size_t cycle);
  /// Sender side of a flit crossing vertical link `v` (transfer register
  /// `reg`): encode, latch and count toggles in codec space, and sample
  /// the link's statistics.
  void vertical_hop(std::uint32_t v, std::size_t slot, std::size_t reg, std::uint64_t payload,
                    std::size_t cycle);
  /// Fresh accumulators for the current line width (none when untracked).
  void reset_vertical_stats();
  /// Flits sent over vertical links so far.
  std::uint64_t vertical_hops() const;
  void phase_transfer(std::size_t begin, std::size_t end, std::size_t cycle);

  /// XYZ dimension-order routing (deadlock-free on a mesh) on precomputed
  /// coordinate tables; the reference model routes NodeIds the same way.
  Direction route_of(std::size_t at, std::uint32_t dst) const {
    if (cx_[at] != cx_[dst]) return cx_[at] < cx_[dst] ? Direction::XPlus : Direction::XMinus;
    if (cy_[at] != cy_[dst]) return cy_[at] < cy_[dst] ? Direction::YPlus : Direction::YMinus;
    if (cz_[at] != cz_[dst]) return cz_[at] < cz_[dst] ? Direction::ZPlus : Direction::ZMinus;
    return Direction::Local;
  }

  const Mesh3D& mesh_;
  TrafficConfig traffic_config_;
  SimOptions options_;
  TrafficGenerator traffic_;
  std::vector<Router> routers_;
  std::size_t flit_width_;
  std::size_t line_width_;
  std::size_t cycle_ = 0;

  // Hot-loop lookup tables, built once: neighbour index per (node, direction)
  // (npos32 where the mesh ends) and the unpacked node coordinates. The cycle
  // kernel touches these every router-cycle; recomputing them from the index
  // (div/mod) dominated the per-cycle cost before they were cached.
  static constexpr std::uint32_t npos32 = static_cast<std::uint32_t>(-1);
  std::vector<std::uint32_t> nbr_;  ///< node * 6 + direction
  std::vector<std::uint16_t> cx_, cy_, cz_;

  // Flat mirrors of per-router ring state, maintained by the owning rank:
  // occ_[r] mirrors Router::occupied_mask() and q_[r] the total ring
  // occupancy. Idle routers are the common case, and checking a byte in a
  // contiguous array avoids pulling the (much larger) Router object into
  // cache every cycle just to discover there is nothing to do.
  std::vector<std::uint8_t> occ_;
  std::vector<std::uint32_t> q_;

  // Transfer registers, receiver-indexed: slot node*kPortCount+d holds the
  // flit moving in direction d into that node (Local = ejection register).
  // The valid flags alone are padded to 8 bytes per node (node*8+d; byte 7
  // is never written), so phase_transfer reads a router's seven flags with
  // one aligned 8-byte load. A 7-byte copy compiled to two overlapping
  // 4-byte stores and an 8-byte reload of them, a store-forwarding stall
  // on every router-cycle.
  std::vector<std::uint8_t> reg_valid_;
  std::vector<std::uint64_t> reg_payload_;
  std::vector<std::uint32_t> reg_dst_;
  std::vector<std::uint32_t> reg_injected_;
  std::vector<std::uint64_t> reg_line_;  ///< codec word (coded links)

  // Per-link activity, sender-indexed node*kPortCount+port (see SimStats).
  std::vector<std::uint64_t> link_flits_;
  std::vector<std::uint64_t> link_toggles_;
  std::vector<std::uint64_t> link_coded_toggles_;
  std::vector<std::uint64_t> link_last_word_;  ///< latched payload lines

  // Vertical-link coding and statistics, aligned with vlinks_. The sender's
  // rank touches a link's encoder, latch and accumulator, the receiver's
  // rank its decoder; the barrier between the phases orders the two.
  std::vector<LinkId> vlinks_;
  std::vector<std::uint32_t> vlink_of_reg_;  ///< transfer register -> vlinks_ index
  std::vector<std::unique_ptr<coding::Codec>> encoders_;
  std::vector<std::unique_ptr<coding::Codec>> decoders_;
  /// Latched word per link: the codec word when coded (starting at the
  /// assignment's preimage of the all-zero lines), else the payload.
  std::vector<std::uint64_t> vlink_latched_;
  /// Tracked non-identity assignments, to relabel the codec-space counts.
  std::vector<core::SignedPermutation> assignments_;
  std::vector<stats::StatsAccumulator> vstats_;
  std::vector<std::size_t> vstat_next_;  ///< first cycle not yet sampled, per link
  bool coded_attached_ = false;

  // Per-router counters (disjoint writes; reduced in index order).
  std::vector<std::uint64_t> injected_;
  std::vector<std::uint64_t> delivered_;
  std::vector<std::uint64_t> latency_;
  std::vector<std::uint64_t> digest_;
  std::vector<std::uint32_t> max_queued_;

  bool probing_ = false;
  LinkId probe_{};
  std::size_t probe_router_ = 0;
  std::size_t probe_slot_ = 0;
  std::vector<std::uint64_t> trace_;
  std::uint64_t held_word_ = 0;  ///< data lines hold their last value when idle
  std::uint64_t probe_toggles_ = 0;
  std::uint64_t probe_last_lines_ = 0;
  std::size_t probe_busy_ = 0;
};

}  // namespace tsvcod::noc
