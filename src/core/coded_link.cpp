#include "core/coded_link.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>
#include <utility>

#include "streams/word_stream.hpp"

namespace tsvcod::core {

PermutationTable::PermutationTable(const SignedPermutation& p, bool inverse)
    : groups_((p.size() + kBits - 1) / kBits), table_(groups_ * kEntries, 0) {
  const auto map = [&](std::uint64_t x) { return inverse ? p.unapply_word(x) : p.apply_word(x); };
  zero_ = map(0);
  for (std::size_t g = 0; g < groups_; ++g) {
    std::uint64_t* t = &table_[g * kEntries];
    // Entries with top bit j are the entries below 2^j plus bit j's image
    // (none for bits above the width).
    for (unsigned j = 0; j < kBits; ++j) {
      const std::size_t bit = kBits * g + j;
      const std::uint64_t image = bit < p.size() ? map(std::uint64_t{1} << bit) ^ zero_ : 0;
      for (std::size_t v = 0; v < (std::size_t{1} << j); ++v) {
        t[(std::size_t{1} << j) | v] = t[v] ^ image;
      }
    }
  }
}

CodedLink::CodedLink(const SignedPermutation& assignment, std::unique_ptr<coding::Codec> codec)
    : apply_(PermutationTable::forward(assignment)),
      unapply_(PermutationTable::inverse(assignment)),
      line_width_(assignment.size()),
      tx_(std::move(codec)) {
  if (!tx_) throw std::invalid_argument("CodedLink: null codec");
  if (line_width_ != tx_->width_out()) {
    throw std::invalid_argument("CodedLink: assignment size " + std::to_string(line_width_) +
                                " does not match codec output width " +
                                std::to_string(tx_->width_out()));
  }
  // Both endpoints must start from the power-on state regardless of any
  // traffic the caller already pushed through the prototype.
  tx_->reset();
  rx_ = tx_->clone();
}

SignedPermutation CodedLink::assignment_snapshot() const {
  std::vector<std::size_t> line_of_bit(line_width_);
  std::vector<std::uint8_t> inverted(line_width_);
  {
    std::lock_guard<std::mutex> lk(*mu_);
    const std::uint64_t zero = apply_(0);
    for (std::size_t bit = 0; bit < line_width_; ++bit) {
      line_of_bit[bit] = static_cast<std::size_t>(std::countr_zero(apply_(1ull << bit) ^ zero));
      inverted[bit] = (zero >> line_of_bit[bit]) & 1u;
    }
  }
  return SignedPermutation(std::move(line_of_bit), std::move(inverted));
}

std::uint64_t CodedLink::roundtrip(std::uint64_t word) {
  // One critical section for both halves: a concurrent reset / hot-swap can
  // only land between whole words, never between a word's encode and decode.
  std::lock_guard<std::mutex> lk(*mu_);
  return rx_->decode(unapply_(apply_(tx_->encode(word))));
}

std::size_t CodedLink::roundtrip(std::span<const std::uint64_t> words) {
  const std::uint64_t mask = streams::width_mask(payload_width());
  // The chain runs stage by stage, one pass per link element: one virtual
  // codec call per stage and side instead of per word, and each table walk
  // a tight loop over the stage.
  constexpr std::size_t kStage = 256;
  std::uint64_t payload[kStage];
  std::uint64_t lines[kStage];
  std::size_t mismatches = 0;
  std::lock_guard<std::mutex> lk(*mu_);
  for (std::size_t begin = 0; begin < words.size(); begin += kStage) {
    const std::size_t n = std::min(kStage, words.size() - begin);
    const std::span<std::uint64_t> stage(lines, n);
    for (std::size_t k = 0; k < n; ++k) payload[k] = words[begin + k] & mask;
    tx_->encode(std::span<const std::uint64_t>(payload, n), stage);
    apply_.map(stage);
    unapply_.map(stage);
    rx_->decode(stage, stage);
    for (std::size_t k = 0; k < n; ++k) mismatches += lines[k] != payload[k];
  }
  return mismatches;
}

void CodedLink::reset() {
  std::lock_guard<std::mutex> lk(*mu_);
  tx_->reset();
  rx_->reset();
}

void CodedLink::reset(const SignedPermutation& next) {
  if (next.size() != line_width_) {
    throw std::invalid_argument("CodedLink::reset: new assignment size " +
                                std::to_string(next.size()) + " does not match line width " +
                                std::to_string(line_width_));
  }
  // Build the tables off the lock. The swaps hand the old buffers to the
  // locals, which free them after the lock is released.
  PermutationTable apply = PermutationTable::forward(next);
  PermutationTable unapply = PermutationTable::inverse(next);
  std::lock_guard<std::mutex> lk(*mu_);
  std::swap(apply_, apply);
  std::swap(unapply_, unapply);
  tx_->reset();
  rx_->reset();
}

}  // namespace tsvcod::core
