#pragma once
// Population count for the per-word hot loops: bus-invert's majority vote
// and the NoC's per-hop toggle counts. The default build targets baseline
// x86-64, which has no POPCNT instruction, and there std::popcount on a
// lone word compiles to a call into libgcc (__popcountdi2); this
// branch-free SWAR form inlines to a dozen ALU operations instead.

#include <cstdint>

namespace tsvcod::coding {

constexpr int popcount64(std::uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ull;
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0Full;
  return static_cast<int>((x * 0x0101010101010101ull) >> 56);
}

}  // namespace tsvcod::coding
