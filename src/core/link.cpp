#include "core/link.hpp"

#include <stdexcept>

#include "stats/switching_stats.hpp"

namespace tsvcod::core {

Link::Link(const phys::TsvArrayGeometry& geom)
    : geom_(geom), model_(tsv::fit_from_analytic(geom)) {}

Link::Link(const phys::TsvArrayGeometry& geom, tsv::LinearCapacitanceModel model)
    : geom_(geom), model_(std::move(model)) {
  if (model_.size() != geom_.count()) {
    throw std::invalid_argument("Link: model size does not match the array");
  }
}

stats::SwitchingStats Link::measure(streams::WordStream& stream, std::size_t samples) const {
  if (stream.width() != width()) {
    throw std::invalid_argument("Link::measure: stream width does not match the array");
  }
  // Streams generate sequentially, but the reduction does not have to:
  // materialize the trace and hand it to the chunked bit-plane kernel
  // (bit-identical to feeding an accumulator word by word).
  std::vector<std::uint64_t> words(samples);
  for (auto& w : words) w = stream.next();
  return stats::compute_stats(words, width());
}

double Link::power(const stats::SwitchingStats& bit_stats, const SignedPermutation& a) const {
  return assignment_power(bit_stats, a, model_);
}

CodedLink Link::coded(const coding::CodecSpec& spec, const SignedPermutation& assignment) const {
  if (assignment.size() != width()) {
    throw std::invalid_argument("Link::coded: assignment size does not match the array");
  }
  return CodedLink(assignment, coding::make_codec_for_lines(spec, width()));
}

AssignmentStudy study_assignments(const Link& link, const stats::SwitchingStats& bit_stats,
                                  const StudyOptions& options) {
  if (bit_stats.width != link.width()) {
    throw std::invalid_argument("study_assignments: stats width does not match the array");
  }
  AssignmentStudy out;
  const auto base = random_assignment_power(bit_stats, link.model(), options.random_samples, 99,
                                            options.optimize.threads);
  out.random_mean = base.mean;
  out.random_worst = base.worst;
  out.identity = link.power(bit_stats, SignedPermutation::identity(link.width()));

  auto opt = optimize_assignment(bit_stats, link.model(), options.optimize);
  out.optimal = opt.power;
  out.optimal_map = std::move(opt.assignment);

  out.spiral_map = spiral_assignment(link.geometry(), bit_stats);
  out.spiral = link.power(bit_stats, out.spiral_map);
  out.sawtooth_map = sawtooth_assignment(link.geometry(), bit_stats);
  out.sawtooth = link.power(bit_stats, out.sawtooth_map);
  return out;
}

}  // namespace tsvcod::core
