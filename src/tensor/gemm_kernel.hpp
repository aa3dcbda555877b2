// Internal to src/tensor: the A-panel packer and the register-tiled
// micro-kernel shared by the GEMM (gemm.cpp) and the packed convolution
// (conv.cpp).  Both drive the *same* kernel over the same ascending KC
// panels, which is what keeps a convolution output bit-identical to
// im2col + gemm: each element is folded panel by panel from one register
// accumulator that sums its panel in ascending k.
#pragma once

#include <algorithm>
#include <cstddef>

#include "tensor/gemm.hpp"

namespace bprom::tensor::detail {

template <typename T>
constexpr std::size_t nr_of() {
  return sizeof(T) == sizeof(float) ? kGemmNrF32 : kGemmNrF64;
}

template <typename T>
T load(Trans t, const T* p, std::size_t ld, std::size_t row,
       std::size_t col) {
  return t == Trans::kNo ? p[row * ld + col] : p[col * ld + row];
}

/// Pack op_a(A)[i0 .. i0+mc, p0 .. p0+kc] as ceil(mc/MR) strips of
/// [kc][MR], rows beyond mc padded with zeros so the micro-kernel always
/// runs a full MR x NR tile (the pad contributes exact +0 terms to lanes
/// that are never stored).
template <typename T>
void pack_a(Trans ta, const T* a, std::size_t lda, std::size_t i0,
            std::size_t p0, std::size_t mc, std::size_t kc, T* out) {
  constexpr std::size_t kMr = kGemmMr;
  for (std::size_t ir = 0; ir < mc; ir += kMr) {
    const std::size_t mr = std::min(kMr, mc - ir);
    for (std::size_t p = 0; p < kc; ++p) {
      for (std::size_t r = 0; r < kMr; ++r) {
        *out++ = r < mr ? load(ta, a, lda, i0 + ir + r, p0 + p) : T(0);
      }
    }
  }
}

/// MR x NR register tile over one packed A strip ([kc][MR]) and one packed
/// B strip ([kc][NR]).  The fixed-width accumulator array has independent
/// lanes, so -O2/-O3 auto-vectorizes the NR loop without -ffast-math.
/// Folds into C (callers zero the tile first when not accumulating).
template <typename T>
void micro_kernel(const T* __restrict pa, const T* __restrict pb,
                  std::size_t kc, T* __restrict c, std::size_t ldc,
                  std::size_t mr, std::size_t nr) {
  constexpr std::size_t kMr = kGemmMr;
  constexpr std::size_t kNr = nr_of<T>();
  // Full unrolling turns acc[][] into distinct scalars the register
  // allocator can keep in SIMD registers; without it the accumulators
  // round-trip through the stack every k step.
  T acc[kMr][kNr] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    const T* __restrict ap = pa + p * kMr;
    const T* __restrict bp = pb + p * kNr;
#pragma GCC unroll 6
    for (std::size_t r = 0; r < kMr; ++r) {
      const T av = ap[r];
#pragma GCC unroll 32
      for (std::size_t j = 0; j < kNr; ++j) acc[r][j] += av * bp[j];
    }
  }
  if (mr == kMr && nr == kNr) {
    for (std::size_t r = 0; r < kMr; ++r) {
      T* __restrict cr = c + r * ldc;
      for (std::size_t j = 0; j < kNr; ++j) cr[j] += acc[r][j];
    }
  } else {
    for (std::size_t r = 0; r < mr; ++r) {
      T* cr = c + r * ldc;
      for (std::size_t j = 0; j < nr; ++j) cr[j] += acc[r][j];
    }
  }
}

}  // namespace bprom::tensor::detail
