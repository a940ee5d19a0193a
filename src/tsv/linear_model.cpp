#include "tsv/linear_model.hpp"

#include <stdexcept>
#include <vector>

namespace tsvcod::tsv {

LinearCapacitanceModel::LinearCapacitanceModel(phys::Matrix c_ref, phys::Matrix delta_c)
    : c_ref_(std::move(c_ref)), delta_c_(std::move(delta_c)) {
  if (c_ref_.rows() != c_ref_.cols() || delta_c_.rows() != delta_c_.cols() ||
      c_ref_.rows() != delta_c_.rows()) {
    throw std::invalid_argument("LinearCapacitanceModel: square same-size matrices required");
  }
}

phys::Matrix LinearCapacitanceModel::evaluate_eps(std::span<const double> eps) const {
  const std::size_t n = size();
  if (eps.size() != n) throw std::invalid_argument("evaluate_eps: size mismatch");
  phys::Matrix out(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      out(i, j) = c_ref_(i, j) + delta_c_(i, j) * (eps[i] + eps[j]);
    }
  }
  return out;
}

LinearCapacitanceModel fit_linear_model(const CapacitanceBackend& backend, std::size_t n) {
  const std::vector<double> p0(n, 0.0);
  const std::vector<double> p1(n, 1.0);
  const phys::Matrix c0 = backend(p0);
  const phys::Matrix c1 = backend(p1);
  if (c0.rows() != n || c1.rows() != n) {
    throw std::invalid_argument("fit_linear_model: backend returned wrong size");
  }
  phys::Matrix c_ref(n, n);
  phys::Matrix delta(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      c_ref(i, j) = 0.5 * (c1(i, j) + c0(i, j));
      delta(i, j) = 0.5 * (c1(i, j) - c0(i, j));
    }
  }
  return LinearCapacitanceModel(std::move(c_ref), std::move(delta));
}

LinearCapacitanceModel fit_from_analytic(const phys::TsvArrayGeometry& geom) {
  return fit_linear_model(
      [&](std::span<const double> pr) { return analytic_capacitance(geom, pr); }, geom.count());
}

LinearCapacitanceModel fit_from_field(const phys::TsvArrayGeometry& geom,
                                      const field::ExtractionOptions& opts,
                                      FieldFitStats* stats) {
  // One extractor for both fit points: the second extraction reuses the
  // rasterized grid / field-problem setup and warm-starts every conductor's
  // solve from the first point's potentials.
  field::CapacitanceExtractor extractor(geom, opts);
  if (stats) *stats = FieldFitStats{};
  return fit_linear_model(
      [&](std::span<const double> pr) {
        auto res = extractor.extract(pr);
        if (stats) {
          for (const auto& s : res.stats) {
            if (s.image_of >= 0) {
              ++stats->mirrored;
              continue;
            }
            ++stats->solves;
            stats->iterations += s.iterations;
            if (s.trivial) ++stats->trivial;
            if (!s.converged) ++stats->nonconverged;
            if (!s.trivial) stats->preconditioner = s.preconditioner;
          }
        }
        return res.paper;
      },
      geom.count());
}

}  // namespace tsvcod::tsv
