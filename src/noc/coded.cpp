#include "noc/coded.hpp"

#include <numeric>
#include <stdexcept>
#include <string>

#include "core/link.hpp"
#include "obs/obs.hpp"
#include "obs/profile.hpp"

namespace tsvcod::noc {

phys::TsvArrayGeometry default_bundle_geometry(std::size_t lines) {
  if (lines == 0) {
    throw std::invalid_argument("default_bundle_geometry: lines must be >= 1 (got 0)");
  }
  std::size_t rows = 1;
  for (std::size_t r = 1; r * r <= lines; ++r) {
    if (lines % r == 0) rows = r;
  }
  return phys::TsvArrayGeometry::itrs2018_relaxed(rows, lines / rows);
}

void VerticalCodingOptions::validate() const {
  if (warmup_cycles < 2) {
    throw std::invalid_argument(
        "VerticalCodingOptions.warmup_cycles must be >= 2 (switching statistics need at least "
        "two samples; got " +
        std::to_string(warmup_cycles) + ")");
  }
  if (threads < 0) {
    throw std::invalid_argument("VerticalCodingOptions.threads must be >= 0 (got " +
                                std::to_string(threads) + ")");
  }
}

double VerticalCodingPlan::total_optimized_power() const {
  return std::accumulate(optimized_power.begin(), optimized_power.end(), 0.0);
}

double VerticalCodingPlan::total_identity_power() const {
  return std::accumulate(identity_power.begin(), identity_power.end(), 0.0);
}

VerticalCodingPlan plan_vertical_coding(const Mesh3D& mesh, const TrafficConfig& traffic,
                                        const VerticalCodingOptions& options) {
  options.validate();
  obs::Span span("noc.plan_vertical_coding");

  // Warm-up: simulate with identity-assigned codecs attached, so the tracked
  // per-link statistics live in the coded-line domain the assignment will
  // actually be applied to (the codec reshapes the word statistics).
  SimOptions sim_options;
  sim_options.threads = options.threads;
  sim_options.track_vertical_stats = true;
  NocSimulator warmup(mesh, traffic, sim_options);
  warmup.attach_vertical_coding(options.spec);
  warmup.run(options.warmup_cycles);
  const auto link_stats = warmup.vertical_link_stats();

  VerticalCodingPlan plan;
  plan.links = warmup.coded_links();
  plan.line_width = warmup.vertical_line_width();
  plan.warmup_cycles = options.warmup_cycles;

  phys::TsvArrayGeometry geom = options.geometry;
  if (geom.rows == 0) geom = default_bundle_geometry(plan.line_width);
  if (geom.count() != plan.line_width) {
    throw std::invalid_argument("VerticalCodingOptions.geometry: array holds " +
                                std::to_string(geom.count()) + " TSVs but the coded links are " +
                                std::to_string(plan.line_width) + " lines wide");
  }
  const core::Link bundle(geom);
  const tsv::LinearCapacitanceModel& model = bundle.model();

  auto results = core::optimize_assignments(link_stats, model, options.optimize, options.threads);
  plan.assignments.reserve(results.size());
  plan.optimized_power.reserve(results.size());
  plan.identity_power.reserve(results.size());
  const auto identity = core::SignedPermutation::identity(plan.line_width);
  for (std::size_t i = 0; i < results.size(); ++i) {
    plan.optimized_power.push_back(results[i].power);
    plan.identity_power.push_back(core::assignment_power(link_stats[i], identity, model));
    plan.assignments.push_back(std::move(results[i].assignment));
  }

  if (span.traced()) {
    span.set_args("\"links\":" + std::to_string(plan.links.size()) +
                  ",\"line_width\":" + std::to_string(plan.line_width) +
                  ",\"warmup_cycles\":" + std::to_string(options.warmup_cycles));
  }
  obs::profile_work("links", plan.links.size());
  return plan;
}

}  // namespace tsvcod::noc
