#include "noc/simulator.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <string>

#include "obs/obs.hpp"
#include "obs/profile.hpp"
#include "opt/parallel.hpp"

namespace tsvcod::noc {

namespace {

constexpr std::uint32_t kNoStat = static_cast<std::uint32_t>(-1);

/// Bytes of reg_valid_ per router: its kPortCount flags plus one padding
/// byte, so that phase_transfer reads them with one aligned 8-byte load.
constexpr std::size_t kValidStride = 8;
static_assert(kPortCount < kValidStride);

/// Fewest routers a Z-slab rank may own. Below this the two barrier waits
/// per cycle cost more than the rank's share of the routers, so run() uses
/// fewer ranks, down to the serial loop.
constexpr std::size_t kMinRoutersPerRank = 64;

/// Order-sensitive 64-bit combine (boost::hash_combine shape). Folding every
/// ejection's (payload, latency) through this per router, then the routers in
/// index order, yields a digest equal iff the delivery streams are equal.
inline std::uint64_t digest_mix(std::uint64_t h, std::uint64_t a, std::uint64_t b) {
  h ^= a + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  h ^= b + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h;
}

std::uint64_t total(const std::vector<std::uint64_t>& v) {
  std::uint64_t sum = 0;
  for (std::uint64_t x : v) sum += x;
  return sum;
}

}  // namespace

void SimOptions::validate() const {
  if (threads < 0) {
    throw std::invalid_argument("SimOptions.threads must be >= 0 (0 = TSVCOD_THREADS; got " +
                                std::to_string(threads) + ")");
  }
}

NocSimulator::NocSimulator(const Mesh3D& mesh, const TrafficConfig& traffic, SimOptions options)
    : mesh_(mesh),
      traffic_config_(traffic),
      options_(options),
      traffic_(mesh, traffic),
      flit_width_(traffic.flit_width),
      line_width_(traffic.flit_width) {
  options.validate();
  const std::size_t n = mesh.node_count();
  const std::size_t slots = n * static_cast<std::size_t>(kPortCount);
  routers_.resize(n);
  nbr_.assign(n * 6, npos32);
  cx_.resize(n);
  cy_.resize(n);
  cz_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId node = mesh.node(i);
    cx_[i] = static_cast<std::uint16_t>(node.x);
    cy_[i] = static_cast<std::uint16_t>(node.y);
    cz_[i] = static_cast<std::uint16_t>(node.z);
    for (int d = 0; d < 6; ++d) {
      const std::size_t nb = mesh.neighbor_index(i, static_cast<Direction>(d));
      if (nb != Mesh3D::npos) nbr_[i * 6 + static_cast<std::size_t>(d)] =
          static_cast<std::uint32_t>(nb);
    }
  }
  reg_valid_.assign(n * kValidStride, 0);
  reg_payload_.assign(slots, 0);
  reg_dst_.assign(slots, 0);
  reg_injected_.assign(slots, 0);
  reg_line_.assign(slots, 0);
  link_flits_.assign(slots, 0);
  link_toggles_.assign(slots, 0);
  link_coded_toggles_.assign(slots, 0);
  link_last_word_.assign(slots, 0);
  link_last_line_.assign(slots, 0);
  coded_.resize(slots);
  injected_.assign(n, 0);
  delivered_.assign(n, 0);
  latency_.assign(n, 0);
  digest_.assign(n, 0);
  max_queued_.assign(n, 0);
  occ_.assign(n, 0);
  q_.assign(n, 0);
  vlinks_ = vertical_links(mesh);
  vstat_of_slot_.assign(slots, kNoStat);
  for (std::size_t i = 0; i < vlinks_.size(); ++i) {
    vstat_of_slot_[link_slot(mesh.index(vlinks_[i].from), vlinks_[i].out)] =
        static_cast<std::uint32_t>(i);
  }
  if (options_.track_vertical_stats) {
    vstats_.reserve(vlinks_.size());
    for (std::size_t i = 0; i < vlinks_.size(); ++i) vstats_.emplace_back(line_width_);
  }
}

void NocSimulator::probe_link(LinkId link) {
  validate_link(mesh_, link, "NocSimulator::probe_link");
  probing_ = true;
  probe_ = link;
  probe_router_ = mesh_.index(link.from);
  probe_slot_ = link_slot(probe_router_, link.out);
  trace_.clear();
  held_word_ = 0;
  probe_toggles_ = 0;
  probe_last_lines_ = 0;
  probe_busy_ = 0;
}

void NocSimulator::attach_vertical_coding(const coding::CodecSpec& spec,
                                          std::span<const core::SignedPermutation> assignments) {
  if (cycle_ != 0) {
    throw std::logic_error(
        "NocSimulator::attach_vertical_coding: must be called before the first run() (" +
        std::to_string(cycle_) + " cycles already simulated)");
  }
  if (!assignments.empty() && assignments.size() != vlinks_.size()) {
    throw std::invalid_argument(
        "NocSimulator::attach_vertical_coding: assignments must have one entry per vertical "
        "link (got " +
        std::to_string(assignments.size()) + ", mesh has " + std::to_string(vlinks_.size()) + ")");
  }
  std::size_t width_out = flit_width_;
  for (std::size_t i = 0; i < vlinks_.size(); ++i) {
    auto codec = coding::make_codec(spec, flit_width_);
    width_out = codec->width_out();
    core::SignedPermutation assignment = assignments.empty()
                                             ? core::SignedPermutation::identity(width_out)
                                             : assignments[i];
    const std::size_t slot = link_slot(mesh_.index(vlinks_[i].from), vlinks_[i].out);
    coded_[slot] = std::make_unique<core::CodedLink>(std::move(assignment), std::move(codec));
  }
  line_width_ = width_out;
  coded_attached_ = true;
  if (options_.track_vertical_stats) {
    // The tracked line word changes domain (and possibly width): rebuild.
    vstats_.clear();
    vstats_.reserve(vlinks_.size());
    for (std::size_t i = 0; i < vlinks_.size(); ++i) vstats_.emplace_back(line_width_);
  }
}

void NocSimulator::phase_arbitrate(std::size_t begin, std::size_t end, std::size_t cycle) {
  (void)cycle;
  for (std::size_t r = begin; r < end; ++r) {
    bool probe_fresh = false;
    std::uint64_t probe_word = 0;
    if (occ_[r] != 0) {
      Router& router = routers_[r];
      const std::uint32_t* nb = &nbr_[r * 6];
      PackedFlit grants[kPortCount];
      const std::uint8_t granted = router.arbitrate(grants);
      occ_[r] = router.occupied_mask();
      q_[r] -= static_cast<std::uint32_t>(std::popcount(granted));
      for (std::uint8_t g = granted; g != 0; g &= static_cast<std::uint8_t>(g - 1)) {
        const int out = std::countr_zero(g);
        const PackedFlit& f = grants[out];
        const bool local = out == static_cast<int>(Direction::Local);
        const std::size_t receiver = local ? r : static_cast<std::size_t>(nb[out]);
        const std::size_t reg =
            receiver * static_cast<std::size_t>(kPortCount) + static_cast<std::size_t>(out);
        if (!local) {
          const std::size_t slot = link_slot(r, static_cast<Direction>(out));
          ++link_flits_[slot];
          link_toggles_[slot] +=
              static_cast<std::uint64_t>(std::popcount(link_last_word_[slot] ^ f.payload));
          link_last_word_[slot] = f.payload;
          if (core::CodedLink* link = coded_[slot].get()) {
            const std::uint64_t line = link->transmit(f.payload);
            link_coded_toggles_[slot] +=
                static_cast<std::uint64_t>(std::popcount(link_last_line_[slot] ^ line));
            link_last_line_[slot] = line;
            reg_line_[reg] = line;
          }
          if (probing_ && slot == probe_slot_) {
            probe_fresh = true;
            probe_word = f.payload;
          }
        }
        reg_payload_[reg] = f.payload;
        reg_dst_[reg] = f.dst;
        reg_injected_[reg] = f.injected;
        reg_valid_[receiver * kValidStride + static_cast<std::size_t>(out)] = 1;
      }
    }
    if (options_.track_vertical_stats) {
      // One latched line-word sample per vertical link per cycle — exactly
      // what the physical TSV bundle does, and what the optimizer prices.
      for (int out = static_cast<int>(Direction::ZPlus);
           out <= static_cast<int>(Direction::ZMinus); ++out) {
        const std::size_t slot = link_slot(r, static_cast<Direction>(out));
        const std::uint32_t v = vstat_of_slot_[slot];
        if (v == kNoStat) continue;
        vstats_[v].add(coded_attached_ ? link_last_line_[slot] : link_last_word_[slot]);
      }
    }
    if (probing_ && r == probe_router_) {
      std::uint64_t word;
      if (probe_fresh) {
        held_word_ = probe_word;
        ++probe_busy_;
        word = probe_word | (std::uint64_t{1} << flit_width_);
      } else {
        word = held_word_;  // data lines hold, valid line low
      }
      trace_.push_back(word);
      probe_toggles_ += static_cast<std::uint64_t>(std::popcount(probe_last_lines_ ^ word));
      probe_last_lines_ = word;
    }
  }
}

void NocSimulator::phase_transfer(std::size_t begin, std::size_t end, std::size_t cycle) {
  for (std::size_t r = begin; r < end; ++r) {
    Router& router = routers_[r];
    const std::size_t base = r * static_cast<std::size_t>(kPortCount);
    // All seven valid flags of this router's registers in one aligned
    // 8-byte load: bytes 0..5 are the incoming directions, byte 6 the
    // ejection register, and byte 7 is padding that nothing writes, so the
    // load never touches a byte another rank owns. Idle routers fall
    // straight through to injection.
    std::uint8_t* valid = reg_valid_.data() + r * kValidStride;
    std::uint64_t valid8 = 0;
    std::memcpy(&valid8, valid, sizeof valid8);
    // Drain the registers pointing at this node into its input rings. A flit
    // moving in direction d was sent by the neighbour in direction d^1 (the
    // direction enum pairs +/- per axis).
    std::uint64_t incoming = valid8 & 0x0000FFFFFFFFFFFFull;
    while (incoming != 0) {
      const int d = std::countr_zero(incoming) >> 3;
      incoming &= incoming - 1;
      const std::size_t reg = base + static_cast<std::size_t>(d);
      const std::size_t sender = nbr_[r * 6 + static_cast<std::size_t>(d ^ 1)];
      const std::size_t slot = link_slot(sender, static_cast<Direction>(d));
      PackedFlit f;
      f.payload = coded_[slot] ? coded_[slot]->receive(reg_line_[reg]) : reg_payload_[reg];
      f.dst = reg_dst_[reg];
      f.injected = reg_injected_[reg];
      router.accept(static_cast<Direction>(d), f, route_of(r, f.dst));
      valid[d] = 0;
      occ_[r] |= static_cast<std::uint8_t>(1u << d);
      ++q_[r];
    }
    // Ejection: the flit this router granted to its own Local port.
    if (valid8 & 0x00FF000000000000ull) {
      const std::size_t eject = base + static_cast<std::size_t>(Direction::Local);
      valid[static_cast<std::size_t>(Direction::Local)] = 0;
      ++delivered_[r];
      const std::uint64_t lat = static_cast<std::uint64_t>(cycle) - reg_injected_[eject] + 1;
      latency_[r] += lat;
      digest_[r] = digest_mix(digest_[r], reg_payload_[eject], lat);
    }
    // Injection: a new flit goes straight into the Local ring.
    if (auto flit = traffic_.generate(r, cycle)) {
      PackedFlit f;
      f.payload = flit->payload;
      f.dst = static_cast<std::uint32_t>(mesh_.index(flit->dst));
      f.injected = static_cast<std::uint32_t>(cycle);
      router.accept(Direction::Local, f, route_of(r, f.dst));
      occ_[r] |= static_cast<std::uint8_t>(1u << static_cast<int>(Direction::Local));
      ++q_[r];
      ++injected_[r];
    }
    if (q_[r] > max_queued_[r]) max_queued_[r] = q_[r];
  }
}

SimStats NocSimulator::run(std::size_t cycles) {
  obs::Span span("noc.run");
  const std::size_t n = mesh_.node_count();
  const std::size_t max_ranks = std::max<std::size_t>(1, n / kMinRoutersPerRank);
  const int k = static_cast<int>(std::min(
      max_ranks, static_cast<std::size_t>(std::max(1, opt::resolve_threads(options_.threads)))));
  const std::uint64_t hops_before = total(link_flits_);
  const std::size_t injected_before = total(injected_);
  const std::size_t delivered_before = total(delivered_);
  const std::uint64_t probe_toggles_before = probe_toggles_;

  if (k == 1) {
    for (std::size_t c = 0; c < cycles; ++c) {
      const std::size_t cyc = cycle_ + c;
      phase_arbitrate(0, n, cyc);
      phase_transfer(0, n, cyc);
    }
  } else {
    opt::SpinBarrier barrier(k);
    std::atomic<bool> abort{false};
    std::mutex err_mu;
    std::exception_ptr error;
    opt::parallel_team(k, [&](int rank) {
      const std::size_t begin = n * static_cast<std::size_t>(rank) / static_cast<std::size_t>(k);
      const std::size_t end =
          n * (static_cast<std::size_t>(rank) + 1) / static_cast<std::size_t>(k);
      // On an exception the rank stops simulating but keeps arriving at the
      // barriers, so the team stays aligned and drains cleanly.
      const auto guarded = [&](auto&& fn) {
        if (abort.load(std::memory_order_relaxed)) return;
        try {
          fn();
        } catch (...) {
          std::lock_guard<std::mutex> lk(err_mu);
          if (!error) error = std::current_exception();
          abort.store(true, std::memory_order_relaxed);
        }
      };
      for (std::size_t c = 0; c < cycles; ++c) {
        const std::size_t cyc = cycle_ + c;
        guarded([&] { phase_arbitrate(begin, end, cyc); });
        barrier.wait();
        guarded([&] { phase_transfer(begin, end, cyc); });
        barrier.wait();
      }
    });
    if (error) std::rethrow_exception(error);
  }
  cycle_ += cycles;

  // Reduce the per-router counters in index order: exact integers, so the
  // result is bit-identical no matter how the routers were partitioned.
  SimStats s;
  for (std::size_t r = 0; r < n; ++r) {
    s.injected += injected_[r];
    s.delivered += delivered_[r];
    s.latency_cycles += latency_[r];
    s.max_queued = std::max<std::size_t>(s.max_queued, max_queued_[r]);
    s.ejection_digest = digest_mix(s.ejection_digest, digest_[r], delivered_[r]);
  }
  s.mean_latency = s.delivered > 0
                       ? static_cast<double>(s.latency_cycles) / static_cast<double>(s.delivered)
                       : 0.0;
  s.in_flight = in_flight();
  s.probe_busy_cycles = probe_busy_;
  s.probe_toggled_bits = probe_toggles_;
  s.link_flits = link_flits_;
  s.link_toggles = link_toggles_;
  s.link_coded_toggles = link_coded_toggles_;

  const std::uint64_t hops = total(link_flits_) - hops_before;
  if (span.traced()) {
    span.set_args("\"cycles\":" + std::to_string(cycles) + ",\"threads\":" + std::to_string(k) +
                  ",\"injected\":" + std::to_string(s.injected - injected_before) +
                  ",\"delivered\":" + std::to_string(s.delivered - delivered_before) +
                  ",\"flit_hops\":" + std::to_string(hops));
  }
  obs::profile_work("cycles", cycles);
  obs::profile_work("router_cycles", static_cast<std::uint64_t>(cycles) * n);
  obs::profile_work("flit_hops", hops);
  const auto record_nonzero = [](const char* name, std::uint64_t amount) {
    if (amount > 0) obs::profile_work(name, amount);
  };
  record_nonzero("injected", s.injected - injected_before);
  record_nonzero("delivered", s.delivered - delivered_before);
  record_nonzero("probe_toggled_bits", probe_toggles_ - probe_toggles_before);
  return s;
}

std::size_t NocSimulator::in_flight() const {
  std::size_t count = 0;
  for (const auto& router : routers_) count += router.queued();
  for (const std::uint8_t v : reg_valid_) count += v;
  return count;
}

std::vector<stats::SwitchingStats> NocSimulator::vertical_link_stats() const {
  if (!options_.track_vertical_stats) {
    throw std::logic_error(
        "NocSimulator::vertical_link_stats: SimOptions.track_vertical_stats is off");
  }
  std::vector<stats::SwitchingStats> out;
  out.reserve(vstats_.size());
  for (const auto& acc : vstats_) out.push_back(acc.finish());
  return out;
}

}  // namespace tsvcod::noc
