#include "noc/router.hpp"

#include <bit>

namespace tsvcod::noc {

void FlitRing::grow() {
  // Re-linearize into a fresh buffer twice the size (head back at 0).
  const std::size_t old_cap = slots_.size();
  const std::size_t new_cap = old_cap == 0 ? 8 : old_cap * 2;
  std::vector<Slot> slots(new_cap);
  for (std::size_t i = 0; i < count_; ++i) {
    const std::size_t s = head_ + i < old_cap ? head_ + i : head_ + i - old_cap;
    slots[i] = slots_[s];
  }
  slots_ = std::move(slots);
  head_ = 0;
}

void FlitRing::push(const PackedFlit& flit, std::uint8_t out_port) {
  if (count_ == slots_.size()) grow();
  std::size_t tail = head_ + count_;
  if (tail >= slots_.size()) tail -= slots_.size();
  slots_[tail].flit = flit;
  slots_[tail].out = out_port;
  ++count_;
}

PackedFlit FlitRing::pop() {
  const PackedFlit f = slots_[head_].flit;
  --count_;
  if (++head_ == slots_.size()) head_ = 0;
  return f;
}

void Router::accept(Direction port, const PackedFlit& flit, Direction out_port) {
  const auto p = static_cast<std::size_t>(port);
  in_[p].push(flit, static_cast<std::uint8_t>(out_port));
  occupied_ |= static_cast<std::uint8_t>(1u << p);
}

std::size_t Router::queued() const {
  std::size_t total = 0;
  for (const auto& ring : in_) total += ring.size();
  return total;
}

std::uint8_t Router::arbitrate(PackedFlit grants[kPortCount]) {
  if (occupied_ == 0) return 0;
  std::uint8_t granted = 0;
  // Head output-port tags, gathered once per cycle; `wanted` marks the
  // outputs some head actually contends for, so the grant loop only visits
  // those instead of scanning all seven.
  std::uint8_t head_out[kPortCount];
  std::uint8_t wanted = 0;
  for (std::uint8_t occ = occupied_; occ != 0; occ &= static_cast<std::uint8_t>(occ - 1)) {
    const int p = std::countr_zero(occ);
    head_out[p] = in_[p].head_out();
    wanted |= static_cast<std::uint8_t>(1u << head_out[p]);
  }
  for (std::uint8_t w = wanted; w != 0; w &= static_cast<std::uint8_t>(w - 1)) {
    const int out = std::countr_zero(w);
    const int start = rr_[out];
    int winner = -1;
    for (int k = 0; k < kPortCount; ++k) {
      const int p = start + k < kPortCount ? start + k : start + k - kPortCount;
      if (!(occupied_ & (1u << p)) || head_out[p] != out) continue;
      winner = p;
      break;
    }
    if (winner < 0) continue;  // the only contender was granted to another output
    grants[out] = in_[static_cast<std::size_t>(winner)].pop();
    if (in_[static_cast<std::size_t>(winner)].empty()) {
      occupied_ &= static_cast<std::uint8_t>(~(1u << winner));
    }
    rr_[out] = static_cast<std::uint8_t>(winner + 1 == kPortCount ? 0 : winner + 1);
    granted |= static_cast<std::uint8_t>(1u << out);
  }
  return granted;
}

}  // namespace tsvcod::noc
