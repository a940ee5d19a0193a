#pragma once
// End-to-end coded transmission over an assigned TSV array.
//
// The paper's full chain is  encode -> assign -> TSV lines -> unassign ->
// decode; decodability of that chain is the correctness half of its central
// claim. Before this class existed, every bench and example wired the chain
// by hand from two independently constructed codec objects — and a stateful
// pair (bus-invert prev-word, correlator/T0 histories) silently desyncs if
// only one endpoint is ever reset. CodedLink owns both endpoints, builds the
// receiver by cloning the transmitter (parameters can never disagree), and
// propagates reset() to both sides atomically: there is no API to reset one
// endpoint without the other.
//
// Thread safety: roundtrip / reset are serialized by an internal mutex, so a
// reset (including the assignment hot-swap overload) lands only between
// whole words of roundtrip(word), or whole spans of
// roundtrip(span), and never splits the tx/rx pair — the swap mechanism the
// streaming service (src/serve) relies on. When one thread owns the link, as
// a serve session does, the lock is never contended, but it is not free: an
// uncontended lock/unlock is ~6 ns on a 4-vCPU Xeon, about twice what the
// rest of a width-8 round trip costs in roundtrip(span). Streaming callers
// therefore use roundtrip(span), one lock per chunk. Under that lock it runs
// in passes over a fixed stack stage: mask the payloads, encode the stage
// (one virtual call), map it through the assignment tables and back, decode
// it (one virtual call), count mismatches. At width 8 that is ~3.3 ns per
// word against ~11.4 ns for roundtrip(word). The link keeps its assignment
// only as lookup tables (PermutationTable); reset(next) builds the new ones
// before it takes the lock, so a swap holds it only to swap the tables in
// and reset the two codecs.

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "coding/codec.hpp"
#include "core/assignment.hpp"

namespace tsvcod::core {

/// A signed permutation's word map as lookup tables. The map is linear over
/// XOR once its image of zero (the inversions) is taken out, so
///   map(x) = map(0) ^ T_0[x & 255] ^ T_1[(x >> 8) & 255] ^ ...
/// with one 256-entry table per 8-bit group of the input width. Equal to
/// SignedPermutation::apply_word (forward) or unapply_word (inverse) for
/// every 64-bit input; bits above the width map to nothing.
///
/// Why 8-bit groups: a width-8 map is one lookup, and a serve session's
/// width-8 round trip is the hot caller. Measured against 2- and 4-bit
/// groups on that path and on per-word roundtrip(word) at widths 16 and 64,
/// 8-bit groups were fastest on each (DESIGN.md §5j). The 64-line worst
/// case is 16 KB per table.
class PermutationTable {
 public:
  static PermutationTable forward(const SignedPermutation& p) { return {p, false}; }
  static PermutationTable inverse(const SignedPermutation& p) { return {p, true}; }

  std::uint64_t operator()(std::uint64_t x) const {
    std::uint64_t out = zero_;
    const std::uint64_t* t = table_.data();
    for (std::size_t g = 0; g < groups_; ++g, t += kEntries, x >>= kBits) {
      out ^= t[x & (kEntries - 1)];
    }
    return out;
  }

  /// Maps every word of `words` in place, equal to operator() on each.
  /// Links of up to 8 lines (a width-8 serve session) take one lookup per
  /// word, with the table and zero image held in locals for the stage.
  void map(std::span<std::uint64_t> words) const {
    if (groups_ == 1) {
      const std::uint64_t* const t = table_.data();
      const std::uint64_t zero = zero_;
      for (std::uint64_t& word : words) word = zero ^ t[word & (kEntries - 1)];
      return;
    }
    for (std::uint64_t& word : words) word = (*this)(word);
  }

 private:
  static constexpr unsigned kBits = 8;
  static constexpr std::size_t kEntries = std::size_t{1} << kBits;

  PermutationTable(const SignedPermutation& p, bool inverse);

  std::size_t groups_ = 0;
  std::vector<std::uint64_t> table_;  ///< groups_ x kEntries, group-major
  std::uint64_t zero_ = 0;
};

class CodedLink {
 public:
  /// `assignment` maps the codec's output lines to TSVs; its size must equal
  /// the codec's output width. The receiver endpoint is a clone of `codec`
  /// taken before any traffic, so both endpoints start in the power-on state.
  CodedLink(const SignedPermutation& assignment, std::unique_ptr<coding::Codec> codec);

  std::size_t payload_width() const { return tx_->width_in(); }

  /// The live assignment, read back from the tables under the link lock.
  SignedPermutation assignment_snapshot() const;

  /// Full chain; equals the input for every codec when both endpoints stay
  /// in sync (the harness' first oracle). Atomic: the encode and decode
  /// halves happen under one lock acquisition, so a concurrent reset can
  /// never land between them.
  std::uint64_t roundtrip(std::uint64_t word);
  /// Full chain for every word of `words`, in order, under one lock
  /// acquisition. Returns how many words' payload bits (`word & payload
  /// mask`) did not come back; each word counts as it would through
  /// roundtrip(word & mask).
  std::size_t roundtrip(std::span<const std::uint64_t> words);

  /// Atomic pair reset: both endpoints return to the power-on state in one
  /// call. Resetting a single endpoint of a stateful pair desyncs the link;
  /// tests that need to *demonstrate* that failure mode use the transmitter
  /// accessor below.
  void reset();

  /// Atomic hot-swap: install `next` as the live assignment AND reset both
  /// endpoints, all inside one critical section. Traffic running
  /// concurrently through roundtrip() observes a clean cut — every word is
  /// encoded, assigned, unassigned and decoded under exactly one assignment
  /// and one consistent pair state, so the swap causes zero decode desyncs.
  /// `next.size()` must equal the line width. `next`'s tables are built
  /// before the lock is taken.
  void reset(const SignedPermutation& next);

  /// Transmitter access for desync experiments and statistics probes.
  /// Resetting through it bypasses the atomicity guarantee on purpose.
  coding::Codec& transmitter() { return *tx_; }

 private:
  PermutationTable apply_;    ///< the live assignment, bits -> lines
  PermutationTable unapply_;  ///< its inverse, lines -> bits
  std::size_t line_width_;    ///< fixed at construction; read without the lock
  std::unique_ptr<coding::Codec> tx_;
  std::unique_ptr<coding::Codec> rx_;
  // unique_ptr keeps the link movable (std::mutex is not); never null.
  std::unique_ptr<std::mutex> mu_ = std::make_unique<std::mutex>();
};

}  // namespace tsvcod::core
