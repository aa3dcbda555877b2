// Internal to src/tensor: the A-panel packer and the register-tiled
// micro-kernel shared by the GEMM (gemm.cpp) and the packed convolution
// (conv.cpp).  Both drive the *same* kernel over the same ascending KC
// panels, which is what keeps a convolution output bit-identical to
// im2col + gemm: each element is folded panel by panel from one register
// accumulator that sums its panel in ascending k.
//
// Width dispatch: everything here is a forced-inline template over the
// micro-tile width NR.  Each caller instantiates it inside one leaf per
// kernel ISA, and only that leaf carries a target attribute
// (BPROM_KERNEL_AVX2), so the AVX2 code exists only inlined into functions
// with internal linkage.  A per-file -mavx2 would instead compile the
// header and std:: inline code of the whole file for AVX2, and the linker
// could keep those copies for the rest of the program.  The target is
// "avx2" and never "fma": a fused multiply-add rounds once where the SSE2
// kernel and gemm_reference round twice, and gcc contracts a * b + c into
// one whenever the target has it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "tensor/gemm.hpp"

// Off x86 the kAvx2 leaf is the 16-float tiling on the baseline ISA; it is
// never dispatched to there (kernel_isa() is kSse2), but it compiles.
#if defined(__x86_64__) || defined(__i386__)
#define BPROM_KERNEL_AVX2 [[gnu::target("avx2")]]
#else
#define BPROM_KERNEL_AVX2
#endif
#define BPROM_KERNEL_INLINE [[gnu::always_inline]] inline

namespace bprom::tensor::detail {

template <typename T>
BPROM_KERNEL_INLINE T load(Trans t, const T* p, std::size_t ld,
                           std::size_t row, std::size_t col) {
  return t == Trans::kNo ? p[row * ld + col] : p[col * ld + row];
}

/// Pack op_a(A)[i0 .. i0+mc, p0 .. p0+kc] as ceil(mc/MR) strips of
/// [kc][MR], rows beyond mc padded with zeros so the micro-kernel always
/// runs a full MR x NR tile (the pad contributes exact +0 terms to lanes
/// that are never stored).
template <typename T>
BPROM_KERNEL_INLINE void pack_a(Trans ta, const T* a, std::size_t lda,
                                std::size_t i0, std::size_t p0, std::size_t mc,
                                std::size_t kc, T* out) {
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

/// MR x Nr register tile over one packed A strip ([kc][MR]) and one packed
/// B strip ([kc][Nr]).  Each accumulator row is two vectors of Nr/2 lanes
/// (12 vector registers in all); a lane multiplies and adds exactly as the
/// scalar `acc += a * b` would, so no lane sees a reassociated sum.  The
/// vectors are spelled out because gcc's own vectorization of a scalar Nr
/// loop permuted lanes and spilled accumulators at Nr = 16.  Folds into C
/// (callers zero the tile first when not accumulating).
template <typename T, std::size_t Nr>
BPROM_KERNEL_INLINE void micro_kernel(const T* __restrict pa,
                                      const T* __restrict pb, std::size_t kc,
                                      T* __restrict c, std::size_t ldc,
                                      std::size_t mr, std::size_t nr) {
  constexpr std::size_t kMr = kGemmMr;
  constexpr std::size_t kLanes = Nr / 2;
  typedef T Vec __attribute__((vector_size(kLanes * sizeof(T))));
  Vec acc[kMr][2] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    const T* __restrict ap = pa + p * kMr;
    Vec b0;
    Vec b1;
    std::memcpy(&b0, pb + p * Nr, sizeof(Vec));
    std::memcpy(&b1, pb + p * Nr + kLanes, sizeof(Vec));
#pragma GCC unroll 6
    for (std::size_t r = 0; r < kMr; ++r) {
      acc[r][0] += ap[r] * b0;
      acc[r][1] += ap[r] * b1;
    }
  }
  if (mr == kMr && nr == Nr) {
    for (std::size_t r = 0; r < kMr; ++r) {
      for (std::size_t h = 0; h < 2; ++h) {
        Vec cv;
        std::memcpy(&cv, c + r * ldc + h * kLanes, sizeof(Vec));
        cv += acc[r][h];
        std::memcpy(c + r * ldc + h * kLanes, &cv, sizeof(Vec));
      }
    }
  } else {
    for (std::size_t r = 0; r < mr; ++r) {
      T* cr = c + r * ldc;
      for (std::size_t j = 0; j < nr; ++j) {
        cr[j] += acc[r][j / kLanes][j % kLanes];
      }
    }
  }
}

}  // namespace bprom::tensor::detail
