#include "noc/simulator.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <string>

#include "coding/popcount.hpp"
#include "obs/obs.hpp"
#include "obs/profile.hpp"
#include "opt/parallel.hpp"

namespace tsvcod::noc {

namespace {

constexpr std::uint32_t kNoLink = static_cast<std::uint32_t>(-1);

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
  injected_.assign(n, 0);
  delivered_.assign(n, 0);
  latency_.assign(n, 0);
  digest_.assign(n, 0);
  max_queued_.assign(n, 0);
  occ_.assign(n, 0);
  q_.assign(n, 0);
  vlinks_ = vertical_links(mesh);
  vlink_of_reg_.assign(slots, kNoLink);
  for (std::size_t i = 0; i < vlinks_.size(); ++i) {
    const std::size_t receiver = mesh.neighbor_index(mesh.index(vlinks_[i].from), vlinks_[i].out);
    vlink_of_reg_[link_slot(receiver, vlinks_[i].out)] = static_cast<std::uint32_t>(i);
  }
  vlink_latched_.assign(vlinks_.size(), 0);
  reset_vertical_stats();
}

void NocSimulator::reset_vertical_stats() {
  vstats_.clear();
  vstat_next_.clear();
  if (!options_.track_vertical_stats) return;
  vstats_.reserve(vlinks_.size());
  for (std::size_t i = 0; i < vlinks_.size(); ++i) vstats_.emplace_back(line_width_);
  vstat_next_.assign(vlinks_.size(), 0);
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
  const auto prototype = coding::make_codec(spec, flit_width_);
  const std::size_t width_out = prototype->width_out();
  for (std::size_t i = 0; i < assignments.size(); ++i) {
    if (assignments[i].size() != width_out) {
      throw std::invalid_argument("NocSimulator::attach_vertical_coding: assignments[" +
                                  std::to_string(i) + "] has " +
                                  std::to_string(assignments[i].size()) + " lines, but the " +
                                  spec.name + " codec drives " + std::to_string(width_out));
    }
  }
  prototype->reset();
  encoders_.clear();
  decoders_.clear();
  for (std::size_t i = 0; i < vlinks_.size(); ++i) {
    encoders_.push_back(prototype->clone());
    decoders_.push_back(prototype->clone());
    // Power-on lines read all zero; the codec-space latch holds their preimage.
    vlink_latched_[i] = assignments.empty() ? 0 : assignments[i].unapply_word(0);
  }
  assignments_.clear();
  if (options_.track_vertical_stats) assignments_.assign(assignments.begin(), assignments.end());
  line_width_ = width_out;
  coded_attached_ = true;
  // The tracked word changes domain (and possibly width): rebuild.
  reset_vertical_stats();
}

void NocSimulator::vertical_hop(std::uint32_t v, std::size_t slot, std::size_t reg,
                                std::uint64_t payload, std::size_t cycle) {
  std::uint64_t word = payload;
  const std::uint64_t held = vlink_latched_[v];
  if (coded_attached_) {
    // Codec space: the assignment's relabel would not change the toggles.
    word = encoders_[v]->encode(payload);
    link_coded_toggles_[slot] += static_cast<std::uint64_t>(coding::popcount64(held ^ word));
    reg_line_[reg] = word;
  }
  if (options_.track_vertical_stats) {
    // One latched-word sample per cycle, as the physical bundle shows it:
    // the idle cycles since the last flit in bulk, then this flit's word.
    vstats_[v].add_repeated(held, cycle - vstat_next_[v]);
    vstats_[v].add(word);
    vstat_next_[v] = cycle + 1;
  }
  vlink_latched_[v] = word;
}

void NocSimulator::phase_arbitrate(std::size_t begin, std::size_t end, std::size_t cycle) {
  const bool vertical_work = coded_attached_ || options_.track_vertical_stats;
  for (std::size_t r = begin; r < end; ++r) {
    bool probe_fresh = false;
    std::uint64_t probe_word = 0;
    if (occ_[r] != 0) {
      Router& router = routers_[r];
      const std::uint32_t* nb = &nbr_[r * 6];
      PackedFlit grants[kPortCount];
      const std::uint8_t granted = router.arbitrate(grants);
      occ_[r] = router.occupied_mask();
      q_[r] -= static_cast<std::uint32_t>(coding::popcount64(granted));
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
              static_cast<std::uint64_t>(coding::popcount64(link_last_word_[slot] ^ f.payload));
          link_last_word_[slot] = f.payload;
          if (vertical_work && Mesh3D::is_vertical(static_cast<Direction>(out))) {
            vertical_hop(vlink_of_reg_[reg], slot, reg, f.payload, cycle);
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
      probe_toggles_ += static_cast<std::uint64_t>(coding::popcount64(probe_last_lines_ ^ word));
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
      PackedFlit f;
      f.payload = coded_attached_ && Mesh3D::is_vertical(static_cast<Direction>(d))
                      ? decoders_[vlink_of_reg_[reg]]->decode(reg_line_[reg])
                      : reg_payload_[reg];
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

int NocSimulator::ranks() const {
  const std::size_t max_ranks = std::max<std::size_t>(1, mesh_.node_count() / kMinRoutersPerRank);
  return static_cast<int>(std::min(
      max_ranks, static_cast<std::size_t>(std::max(1, opt::resolve_threads(options_.threads)))));
}

SimStats NocSimulator::run(std::size_t cycles) {
  obs::Span span("noc.run");
  const std::size_t n = mesh_.node_count();
  const int k = ranks();
  const std::uint64_t hops_before = total(link_flits_);
  const std::uint64_t vertical_hops_before = vertical_hops();
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
  // Bring every tracked link up to date: the idle tail of each in bulk.
  for (std::size_t v = 0; v < vstats_.size(); ++v) {
    vstats_[v].add_repeated(vlink_latched_[v], cycle_ - vstat_next_[v]);
    vstat_next_[v] = cycle_;
  }

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
  obs::profile_work("cycles", cycles);
  obs::profile_work("router_cycles", static_cast<std::uint64_t>(cycles) * n);
  obs::profile_work("flit_hops", hops);
  const auto record_nonzero = [](const char* name, std::uint64_t amount) {
    if (amount > 0) obs::profile_work(name, amount);
  };
  record_nonzero("injected", s.injected - injected_before);
  record_nonzero("delivered", s.delivered - delivered_before);
  record_nonzero("probe_toggled_bits", probe_toggles_ - probe_toggles_before);
  if (options_.track_vertical_stats) {
    // Every tracked link takes one sample per cycle: a flit's word one at a
    // time, the idle cycles in bulk.
    const std::uint64_t single = vertical_hops() - vertical_hops_before;
    record_nonzero("vlink_samples", single);
    record_nonzero("vlink_samples_bulk",
                   static_cast<std::uint64_t>(cycles) * vlinks_.size() - single);
  }
  return s;
}

std::size_t NocSimulator::in_flight() const {
  std::size_t count = 0;
  for (const auto& router : routers_) count += router.queued();
  for (const std::uint8_t v : reg_valid_) count += v;
  return count;
}

std::uint64_t NocSimulator::vertical_hops() const {
  std::uint64_t sum = 0;
  for (const LinkId& link : vlinks_) sum += link_flits_[link_slot(mesh_.index(link.from), link.out)];
  return sum;
}

std::vector<stats::SwitchingStats> NocSimulator::vertical_link_stats() const {
  if (!options_.track_vertical_stats) {
    throw std::logic_error(
        "NocSimulator::vertical_link_stats: SimOptions.track_vertical_stats is off");
  }
  std::vector<stats::SwitchingStats> out;
  out.reserve(vstats_.size());
  for (std::size_t v = 0; v < vstats_.size(); ++v) {
    // Codec-space counts, relabeled onto the lines (T' = A T A^T) while
    // they are still exact integers.
    out.push_back(assignments_.empty() ? vstats_[v].finish()
                                       : assignments_[v].apply(vstats_[v].counts()).finalize());
  }
  return out;
}

}  // namespace tsvcod::noc
