// Observability overhead study: the cost of the obs layer on the two hot
// paths it instruments (annealing and extraction), with obs disabled, with
// tracing enabled, and with profiling enabled — plus per-operation costs of
// the disabled fast path (one relaxed atomic load + branch). The acceptance
// criterion for the disabled configuration is <= 2% over a build that never
// calls into obs at all; compare the `disabled` rows against the enabled ones
// with --benchmark_format=json for the usual BENCH JSON.
#include <benchmark/benchmark.h>

#include <vector>

#include "core/link.hpp"
#include "field/extractor.hpp"
#include "obs/obs.hpp"
#include "obs/profile.hpp"
#include "streams/random_streams.hpp"

using namespace tsvcod;

namespace {

enum class Mode { disabled, tracing, profiling };

void apply(Mode mode) {
  obs::enable_tracing(mode == Mode::tracing);
  obs::enable_profiling(mode == Mode::profiling);
  obs::reset_trace();
  obs::reset_profile();
}

void teardown() {
  obs::enable_tracing(false);
  obs::enable_profiling(false);
  obs::reset_trace();
  obs::reset_profile();
}

// The annealing hot loop: the per-iteration instrumentation is two integer
// increments, recorded once per chain, so `disabled` must track a pre-obs
// build to within noise.
void BM_Annealing(benchmark::State& state, Mode mode) {
  const auto geom = phys::TsvArrayGeometry::itrs2018_relaxed(3, 3);
  const core::Link link(geom);
  streams::GaussianAr1Stream src(link.width(), 500.0, 0.4, 5);
  const auto st = link.measure(src, 20000);
  core::OptimizeOptions opts;
  opts.schedule.iterations = 20000;
  opts.chains = 2;
  opts.threads = 1;
  apply(mode);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::optimize_assignment(st, link.model(), opts));
    // Keep trace memory bounded across benchmark iterations.
    if (mode == Mode::tracing) obs::reset_trace();
  }
  state.counters["iterations_anneal"] =
      static_cast<double>(opts.schedule.iterations) * static_cast<double>(opts.chains);
  teardown();
}

// The extraction hot loop: obs records only at solve granularity, never
// per grid cell, so all three modes should be indistinguishable.
void BM_Extraction(benchmark::State& state, Mode mode) {
  const auto geom = phys::TsvArrayGeometry::itrs2018_min(2, 2);
  const std::vector<double> pr(geom.count(), 0.5);
  field::ExtractionOptions opts;
  opts.cell = 0.25e-6;
  opts.threads = 1;
  apply(mode);
  for (auto _ : state) {
    benchmark::DoNotOptimize(field::extract_capacitance(geom, pr, opts));
    if (mode == Mode::tracing) obs::reset_trace();
  }
  teardown();
}

// Per-operation cost of a *disabled* span: must compile down to one relaxed
// atomic load and a branch per constructor/destructor pair.
void BM_DisabledSpan(benchmark::State& state) {
  teardown();
  for (auto _ : state) {
    obs::Span span("bench.disabled");
    benchmark::DoNotOptimize(&span);
  }
}

// Per-operation cost of a work counter with both layers disabled: the same
// one relaxed load and a branch.
void BM_DisabledWork(benchmark::State& state) {
  teardown();
  for (auto _ : state) {
    obs::profile_work("bench.disabled.work", 1);
  }
}

// Per-operation cost of an *enabled* span on one thread (string build +
// buffer append under an uncontended mutex): the budget a caller pays for
// each traced region, so spans must wrap solves and chains, not iterations.
void BM_EnabledSpan(benchmark::State& state) {
  apply(Mode::tracing);
  for (auto _ : state) {
    {
      obs::Span span("bench.enabled");
      benchmark::DoNotOptimize(&span);
    }
    if ((state.iterations() & 0xFFFF) == 0) obs::reset_trace();
  }
  teardown();
}

// Per-operation cost of a work counter on an open profiled span: one
// name lookup under the tree mutex and an atomic add.
void BM_EnabledProfileWork(benchmark::State& state) {
  apply(Mode::profiling);
  {
    obs::Span span("bench.profiled");
    for (auto _ : state) {
      obs::profile_work("bench.enabled.work", 1);
    }
  }
  teardown();
}

// Per-operation cost of a *profiled* span: the child-node lookup under the
// tree mutex, two steady-clock reads and two thread-CPU-clock reads (the
// latter dominate). Spans stay at solve and chain granularity, so this
// budget is paid thousands — not millions — of times per run.
void BM_EnabledSpanProfiled(benchmark::State& state) {
  apply(Mode::profiling);
  for (auto _ : state) {
    obs::Span span("bench.profiled");
    benchmark::DoNotOptimize(&span);
  }
  teardown();
}

}  // namespace

BENCHMARK_CAPTURE(BM_Annealing, disabled, Mode::disabled)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Annealing, tracing, Mode::tracing)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Annealing, profiling, Mode::profiling)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Extraction, disabled, Mode::disabled)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Extraction, tracing, Mode::tracing)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Extraction, profiling, Mode::profiling)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DisabledSpan);
BENCHMARK(BM_DisabledWork);
BENCHMARK(BM_EnabledSpan);
BENCHMARK(BM_EnabledProfileWork);
BENCHMARK(BM_EnabledSpanProfiled);
