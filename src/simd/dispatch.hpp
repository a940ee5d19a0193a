#pragma once
// Shared runtime SIMD dispatch for the hot kernels (stats bit-plane blocks,
// PowerEvaluator move scoring, multigrid smoothers, the field operator and
// BiCGStab updates, the circuit transient's state-propagator product). The MT19937-64 engine of simd/mt19937_64.hpp lives
// beside it but does not dispatch: its branch-free twist needs no clones.
//
// Kernels are compiled as function multi-versions (`__attribute__((target))`
// clones) inside one portable binary; this utility decides, per call site,
// which clone runs (the evaluator resolves its clone once per reset()). The
// decision is
//
//     active_level() = min(detected_level(), override)
//
// where `detected_level()` is a one-time `__builtin_cpu_supports` probe and
// the override clamp comes from the `TSVCOD_SIMD` environment variable
// (scalar|popcnt|avx2|avx512, parsed once per process) or a programmatic
// `force_level()` call (used by the dispatch-equality tests and benches,
// which must compare several levels inside one process). The override can
// only ever *lower* the level: forcing avx512 on an sse-only host still runs
// the scalar clone, so a forced level is always safe to execute.
//
// Level requirements (what a host must support for the level to be detected):
//   popcnt  POPCNT
//   avx2    AVX2 + FMA
//   avx512  AVX-512 F + DQ + VPOPCNTDQ (Ice Lake / Zen 4 and newer)
//
// Determinism contract: each kernel clone uses a fixed lane width and a fixed
// lane-combining order, so results are bit-reproducible for a given (input,
// level). Across levels, integer kernels (stats) are bit-identical by
// construction, and so are the field operator, the BiCGStab updates and the
// transient propagator, which keep every scalar rounding (no FMA, sums in
// cell or column order); the other
// floating-point kernels (evaluator, smoothers) reassociate and may
// contract to FMA, so they agree only to eps-scale drift bounds — the
// `evaluator_drift` and `field_consistency` oracles pin those bounds.

#include <cstddef>
#include <new>
#include <optional>
#include <string_view>
#include <vector>

namespace tsvcod::simd {

/// Dispatch levels, ordered: a level implies every lower one.
enum class Level : int { scalar = 0, popcnt = 1, avx2 = 2, avx512 = 3 };

/// "scalar" | "popcnt" | "avx2" | "avx512".
const char* level_name(Level level) noexcept;

/// Parse a level name; throws std::invalid_argument naming the accepted
/// values (used for both TSVCOD_SIMD and the --simd CLI flag).
Level parse_level(std::string_view name);

/// Best level the host CPU supports (probed once, cached).
Level detected_level() noexcept;

/// The level kernels should dispatch on right now:
/// min(detected_level(), forced or TSVCOD_SIMD clamp). Throws
/// std::invalid_argument on a malformed TSVCOD_SIMD value (first call only;
/// the CLI front end calls this fail-fast at startup).
Level active_level();

/// Programmatic clamp (wins over TSVCOD_SIMD until cleared). Cheap atomic;
/// safe to flip between timed sections of a bench.
void force_level(Level level) noexcept;
void clear_forced_level() noexcept;

/// The current programmatic clamp, if any.
std::optional<Level> forced_level() noexcept;

/// RAII force/restore for tests that compare dispatch levels in-process.
class ScopedLevel {
 public:
  explicit ScopedLevel(Level level) : saved_(forced_level()) { force_level(level); }
  ~ScopedLevel() {
    if (saved_) {
      force_level(*saved_);
    } else {
      clear_forced_level();
    }
  }
  ScopedLevel(const ScopedLevel&) = delete;
  ScopedLevel& operator=(const ScopedLevel&) = delete;

 private:
  std::optional<Level> saved_;
};

/// Alignment for SIMD scratch buffers: one cache line, enough for 512-bit
/// aligned loads.
inline constexpr std::size_t kAlignment = 64;

/// Minimal C++17 allocator handing out kAlignment-aligned storage.
template <typename T>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), std::align_val_t{kAlignment}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kAlignment});
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
  template <typename U>
  bool operator!=(const AlignedAllocator<U>&) const noexcept {
    return false;
  }
};

/// Contiguous buffer whose data() is kAlignment-aligned (the vectorized
/// kernels still use unaligned loads for interior offsets; alignment buys
/// the aligned fast path on the common base-pointer case).
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

}  // namespace tsvcod::simd
