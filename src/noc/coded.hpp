#pragma once
// Per-link adaptive coding for the vertical TSV bundles of a 3D mesh.
//
// The single-link flow (probe one bundle, measure, optimize one assignment)
// scales to the whole stack here: a warm-up simulation with per-vertical-link
// switching-statistics tracking measures every bundle's *own* traffic — the
// hotspot column under a memory controller sees very different words than a
// corner bundle — and the batch annealer (core::optimize_assignments) then
// derives an independently optimized bit-to-TSV assignment per bundle, in
// parallel over bundles through the shared pool. The resulting plan plugs
// straight into NocSimulator::attach_vertical_coding.
//
// The whole pipeline is deterministic: warm-up statistics are exact integers
// (bit-identical at every thread count), and each link's annealing chains are
// seeded from the link index.

#include <vector>

#include "core/optimize.hpp"
#include "noc/simulator.hpp"
#include "phys/tsv_geometry.hpp"

namespace tsvcod::noc {

/// The most-square rows x cols TSV array holding exactly `lines` bundles
/// (1 x lines when `lines` is prime), at the relaxed ITRS pitch. The shape
/// only matters through the coupling-capacitance pattern; squarer arrays
/// have richer neighbourhoods for the assignment to exploit.
phys::TsvArrayGeometry default_bundle_geometry(std::size_t lines);

struct VerticalCodingOptions {
  /// Codec attached to every vertical link (bus-invert by default: its
  /// keep-polarity option guarantees coded line toggles never exceed the
  /// uncoded payload toggles, at the cost of one extra TSV per bundle).
  coding::CodecSpec spec{.name = "bus-invert"};
  /// Warm-up simulation length used to measure per-link statistics.
  std::size_t warmup_cycles = 4096;
  /// Annealing knobs shared by all links (seeds are derived per link).
  core::OptimizeOptions optimize{};
  /// Worker threads for the warm-up simulation and the batch anneal
  /// (TSVCOD_THREADS convention; results are thread-count invariant).
  int threads = 0;

  /// Throws std::invalid_argument naming the offending field.
  void validate() const;
};

struct VerticalCodingPlan {
  std::vector<LinkId> links;  ///< vertical_links(mesh) order
  std::vector<core::SignedPermutation> assignments;
  std::vector<double> optimized_power;  ///< <T,C> per link, optimized assignment
  std::vector<double> identity_power;   ///< <T,C> per link, identity assignment
  std::size_t line_width = 0;           ///< coded lines per bundle
  std::size_t warmup_cycles = 0;

  double total_optimized_power() const;
  double total_identity_power() const;
};

/// Measure every vertical link under `traffic` (coded-line domain: the
/// warm-up runs with identity-assigned codecs attached) and return one
/// optimized assignment per link, priced on the default_bundle_geometry of
/// the coded line width. Feed `plan.assignments` to
/// NocSimulator::attach_vertical_coding(options.spec, plan.assignments).
VerticalCodingPlan plan_vertical_coding(const Mesh3D& mesh, const TrafficConfig& traffic,
                                        const VerticalCodingOptions& options = {});

}  // namespace tsvcod::noc
