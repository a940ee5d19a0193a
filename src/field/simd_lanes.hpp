#pragma once
// Lane helpers shared by the AVX-512 stencil kernels of the field solver
// (multigrid.cpp, solver.cpp). Internal to src/field; x86-64 GCC/Clang only.

#include <immintrin.h>

#include <cstdint>
#include <cstring>

namespace tsvcod::field {

/// Store mask for four consecutive complex cells, two double lanes each:
/// selects the (re, im) lanes of every cell whose Dirichlet byte (0 or 1,
/// starting at `dir`) is 0.
__attribute__((target("avx512f"))) inline __mmask8 free_lanes4(const std::uint8_t* dir) {
  std::uint32_t bytes = 0;
  std::memcpy(&bytes, dir, sizeof bytes);
  const __m128i b = _mm_cvtsi32_si128(static_cast<int>(bytes));
  return _mm512_testn_epi64_mask(_mm512_cvtepu8_epi64(_mm_unpacklo_epi8(b, b)),
                                 _mm512_set1_epi64(0xff));
}

}  // namespace tsvcod::field
