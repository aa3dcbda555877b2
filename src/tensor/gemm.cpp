#include "tensor/gemm.hpp"

#include <algorithm>

#include "tensor/gemm_kernel.hpp"
#include "util/scratch.hpp"
#include "util/thread_pool.hpp"

namespace bprom::tensor {
namespace {

using detail::load;
using detail::micro_kernel;
using detail::pack_a;

// Below this many multiply-adds the pool dispatch overhead dominates and
// the serial tile walk wins.  The gate depends only on problem size, and
// serial vs parallel walks are bitwise identical anyway (disjoint tiles,
// same per-tile arithmetic), so this is a pure scheduling choice.
constexpr std::size_t kParallelMulAdds = std::size_t{1} << 21;

/// Pack op_b(B)[p0 .. p0+kc, j0 .. j0+nc] as ceil(nc/Nr) strips of
/// [kc][Nr], columns beyond nc padded with zeros.
template <typename T, std::size_t Nr>
BPROM_KERNEL_INLINE void pack_b(Trans tb, const T* b, std::size_t ldb,
                                std::size_t p0, std::size_t j0,
                                std::size_t kc, std::size_t nc, T* out) {
  for (std::size_t jr = 0; jr < nc; jr += Nr) {
    const std::size_t nr = std::min(Nr, nc - jr);
    for (std::size_t p = 0; p < kc; ++p) {
      for (std::size_t c = 0; c < Nr; ++c) {
        *out++ = c < nr ? load(tb, b, ldb, p0 + p, j0 + jr + c) : T(0);
      }
    }
  }
}

/// One gemm() call: its operands and its macro-tile grid.
template <typename T>
struct GemmCall {
  Trans ta, tb;
  std::size_t m, n, k;
  const T* a;
  std::size_t lda;
  const T* b;
  std::size_t ldb;
  T* c;
  std::size_t ldc;
  bool accumulate;
  std::size_t row_grain, col_tiles;
};

/// C macro-tile `idx`, computed start-to-finish by one task: zero (unless
/// accumulating), then fold every KC panel in ascending order.
template <typename T, std::size_t Nr>
BPROM_KERNEL_INLINE void gemm_tile(const GemmCall<T>& g, std::size_t idx) {
  constexpr std::size_t kMr = kGemmMr;
  const std::size_t i0 = (idx / g.col_tiles) * g.row_grain;
  const std::size_t j0 = (idx % g.col_tiles) * kGemmNc;
  const std::size_t mc = std::min(g.row_grain, g.m - i0);
  const std::size_t nc = std::min(kGemmNc, g.n - j0);
  if (!g.accumulate) {
    for (std::size_t r = 0; r < mc; ++r) {
      std::fill_n(g.c + (i0 + r) * g.ldc + j0, nc, T(0));
    }
  }
  if (g.k == 0) return;
  util::Scratch& scratch = util::Scratch::tls();
  T* pa = scratch.buffer<T>(util::Scratch::kGemmPackA, kGemmMc * kGemmKc);
  T* pb = scratch.buffer<T>(util::Scratch::kGemmPackB, kGemmKc * kGemmNc);
  for (std::size_t p0 = 0; p0 < g.k; p0 += kGemmKc) {
    const std::size_t kc = std::min(kGemmKc, g.k - p0);
    pack_a(g.ta, g.a, g.lda, i0, p0, mc, kc, pa);
    pack_b<T, Nr>(g.tb, g.b, g.ldb, p0, j0, kc, nc, pb);
    for (std::size_t jr = 0; jr < nc; jr += Nr) {
      const std::size_t nr = std::min(Nr, nc - jr);
      for (std::size_t ir = 0; ir < mc; ir += kMr) {
        micro_kernel<T, Nr>(pa + (ir / kMr) * kc * kMr,
                            pb + (jr / Nr) * kc * Nr, kc,
                            g.c + (i0 + ir) * g.ldc + j0 + jr, g.ldc,
                            std::min(kMr, mc - ir), nr);
      }
    }
  }
}

// One leaf per kernel ISA: the only functions the tile code is compiled
// into (gemm_kernel.hpp explains why the target sits here).
template <typename T>
void gemm_tile_sse2(const GemmCall<T>& g, std::size_t idx) {
  gemm_tile<T, gemm_nr<T>(KernelIsa::kSse2)>(g, idx);
}

template <typename T>
BPROM_KERNEL_AVX2 void gemm_tile_avx2(const GemmCall<T>& g, std::size_t idx) {
  gemm_tile<T, gemm_nr<T>(KernelIsa::kAvx2)>(g, idx);
}

template <typename T>
void gemm_impl(KernelIsa isa, Trans ta, Trans tb, std::size_t m,
               std::size_t n, std::size_t k, const T* a, std::size_t lda,
               const T* b, std::size_t ldb, T* c, std::size_t ldc,
               bool accumulate, bool allow_parallel) {
  if (m == 0 || n == 0) return;
  constexpr std::size_t kMr = kGemmMr;
  const std::size_t col_tiles = (n + kGemmNc - 1) / kGemmNc;

  // Row grain: MC normally, but when a parallel-eligible problem is too
  // skinny in N for the (MC, NC) grid to feed a typical pool (a narrow
  // Linear layer has col_tiles == 1), shrink the row tiles — to a multiple
  // of MR — until the grid has ~kTargetTiles tasks.  The grain depends
  // only on the problem shape, and the tile partition never changes any
  // element's summation order (each element folds its KC panels the same
  // way whichever tile owns it), so this is a pure scheduling choice.
  constexpr std::size_t kTargetTiles = 16;
  const bool parallel = allow_parallel && m * n * k >= kParallelMulAdds;
  std::size_t row_grain = kGemmMc;
  if (parallel && (m + row_grain - 1) / row_grain * col_tiles < kTargetTiles) {
    const std::size_t want_rows = (kTargetTiles + col_tiles - 1) / col_tiles;
    std::size_t grain = (m + want_rows - 1) / want_rows;
    grain = (grain + kMr - 1) / kMr * kMr;
    row_grain = std::min(kGemmMc, std::max(grain, kMr));
  }
  const std::size_t row_tiles = (m + row_grain - 1) / row_grain;

  const GemmCall<T> call{.ta = ta,
                         .tb = tb,
                         .m = m,
                         .n = n,
                         .k = k,
                         .a = a,
                         .lda = lda,
                         .b = b,
                         .ldb = ldb,
                         .c = c,
                         .ldc = ldc,
                         .accumulate = accumulate,
                         .row_grain = row_grain,
                         .col_tiles = col_tiles};
  const auto tile =
      isa == KernelIsa::kAvx2 ? &gemm_tile_avx2<T> : &gemm_tile_sse2<T>;
  const std::size_t tiles = row_tiles * col_tiles;
  if (parallel && tiles > 1) {
    util::parallel_for(tiles, [&](std::size_t t) { tile(call, t); });
  } else {
    for (std::size_t t = 0; t < tiles; ++t) tile(call, t);
  }
}

template <typename T>
void gemm_reference_impl(Trans ta, Trans tb, std::size_t m, std::size_t n,
                         std::size_t k, const T* a, std::size_t lda,
                         const T* b, std::size_t ldb, T* c, std::size_t ldc,
                         bool accumulate) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      T& out = c[i * ldc + j];
      if (!accumulate) out = T(0);
      // Same grouping as the kernel: per KC block, a local accumulator in
      // ascending k, folded into C — bitwise identical to gemm().
      for (std::size_t p0 = 0; p0 < k; p0 += kGemmKc) {
        const std::size_t hi = std::min(p0 + kGemmKc, k);
        T acc(0);
        for (std::size_t p = p0; p < hi; ++p) {
          acc += load(ta, a, lda, i, p) * load(tb, b, ldb, p, j);
        }
        out += acc;
      }
    }
  }
}

}  // namespace

KernelIsa kernel_isa() {
  static const KernelIsa isa = [] {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2")) return KernelIsa::kAvx2;
#endif
    return KernelIsa::kSse2;
  }();
  return isa;
}

const char* kernel_isa_name(KernelIsa isa) {
  return isa == KernelIsa::kAvx2 ? "avx2" : "sse2";
}

void gemm(Trans ta, Trans tb, std::size_t m, std::size_t n, std::size_t k,
          const float* a, std::size_t lda, const float* b, std::size_t ldb,
          float* c, std::size_t ldc, bool accumulate, bool allow_parallel) {
  gemm_impl(kernel_isa(), ta, tb, m, n, k, a, lda, b, ldb, c, ldc,
            accumulate, allow_parallel);
}

void gemm(Trans ta, Trans tb, std::size_t m, std::size_t n, std::size_t k,
          const double* a, std::size_t lda, const double* b, std::size_t ldb,
          double* c, std::size_t ldc, bool accumulate, bool allow_parallel) {
  gemm_impl(kernel_isa(), ta, tb, m, n, k, a, lda, b, ldb, c, ldc,
            accumulate, allow_parallel);
}

void gemm_reference(Trans ta, Trans tb, std::size_t m, std::size_t n,
                    std::size_t k, const float* a, std::size_t lda,
                    const float* b, std::size_t ldb, float* c,
                    std::size_t ldc, bool accumulate) {
  gemm_reference_impl(ta, tb, m, n, k, a, lda, b, ldb, c, ldc, accumulate);
}

void gemm_reference(Trans ta, Trans tb, std::size_t m, std::size_t n,
                    std::size_t k, const double* a, std::size_t lda,
                    const double* b, std::size_t ldb, double* c,
                    std::size_t ldc, bool accumulate) {
  gemm_reference_impl(ta, tb, m, n, k, a, lda, b, ldb, c, ldc, accumulate);
}

namespace detail {

void gemm(KernelIsa isa, Trans ta, Trans tb, std::size_t m, std::size_t n,
          std::size_t k, const float* a, std::size_t lda, const float* b,
          std::size_t ldb, float* c, std::size_t ldc, bool accumulate,
          bool allow_parallel) {
  gemm_impl(isa, ta, tb, m, n, k, a, lda, b, ldb, c, ldc, accumulate,
            allow_parallel);
}

void gemm(KernelIsa isa, Trans ta, Trans tb, std::size_t m, std::size_t n,
          std::size_t k, const double* a, std::size_t lda, const double* b,
          std::size_t ldb, double* c, std::size_t ldc, bool accumulate,
          bool allow_parallel) {
  gemm_impl(isa, ta, tb, m, n, k, a, lda, b, ldb, c, ldc, accumulate,
            allow_parallel);
}

}  // namespace detail

}  // namespace bprom::tensor
