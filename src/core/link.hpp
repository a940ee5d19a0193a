#pragma once
// High-level experiment API: a TSV link = array geometry + fitted
// capacitance model, with one-call assignment studies.
//
// This is the entry point a downstream user needs: build a Link for their
// array, measure a sample stream, and ask for the optimal / systematic
// assignments and the reductions versus a random hookup. All figure benches
// and examples are written against this API.

#include <cstddef>

#include "coding/factory.hpp"
#include "core/coded_link.hpp"
#include "core/mappings.hpp"
#include "core/optimize.hpp"
#include "streams/word_stream.hpp"
#include "tsv/linear_model.hpp"

namespace tsvcod::core {

class Link {
 public:
  /// Build with the fast analytic capacitance backend (default) or inject a
  /// pre-fitted model (e.g. from the finite-difference extractor).
  explicit Link(const phys::TsvArrayGeometry& geom);
  Link(const phys::TsvArrayGeometry& geom, tsv::LinearCapacitanceModel model);

  const phys::TsvArrayGeometry& geometry() const { return geom_; }
  const tsv::LinearCapacitanceModel& model() const { return model_; }
  std::size_t width() const { return geom_.count(); }

  /// Measure switching statistics of `samples` words from a stream whose
  /// width matches the array.
  stats::SwitchingStats measure(streams::WordStream& stream, std::size_t samples) const;

  /// Normalized power of a stream's statistics under an assignment.
  double power(const stats::SwitchingStats& bit_stats, const SignedPermutation& a) const;

  /// End-to-end coded transmission over this array: the codec named by `spec`
  /// is sized so its output occupies exactly the array's lines, and both
  /// endpoints live in one CodedLink so they can only be reset atomically.
  CodedLink coded(const coding::CodecSpec& spec, const SignedPermutation& assignment) const;

 private:
  phys::TsvArrayGeometry geom_;
  tsv::LinearCapacitanceModel model_;
};

struct StudyOptions {
  std::size_t random_samples = 200;  ///< Monte-Carlo size of the baseline
  OptimizeOptions optimize{};
};

/// All assignment variants evaluated on one statistics set. Powers are
/// normalized (<T,C>, units F); reductions are percentages versus the mean
/// random assignment, matching the paper's reporting.
struct AssignmentStudy {
  double random_mean = 0.0;
  double random_worst = 0.0;
  double identity = 0.0;
  double optimal = 0.0;
  double spiral = 0.0;
  double sawtooth = 0.0;
  SignedPermutation optimal_map{1};
  SignedPermutation spiral_map{1};
  SignedPermutation sawtooth_map{1};

  double reduction_optimal() const { return reduction_pct(random_mean, optimal); }
  double reduction_spiral() const { return reduction_pct(random_mean, spiral); }
  double reduction_sawtooth() const { return reduction_pct(random_mean, sawtooth); }
  double reduction_vs_worst(double value) const { return reduction_pct(random_worst, value); }
};

AssignmentStudy study_assignments(const Link& link, const stats::SwitchingStats& bit_stats,
                                  const StudyOptions& options = {});

}  // namespace tsvcod::core
