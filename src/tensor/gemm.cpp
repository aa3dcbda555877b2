#include "tensor/gemm.hpp"

#include <algorithm>

#include "tensor/gemm_kernel.hpp"
#include "util/scratch.hpp"
#include "util/thread_pool.hpp"

namespace bprom::tensor {
namespace {

using detail::load;
using detail::micro_kernel;
using detail::nr_of;
using detail::pack_a;

// Below this many multiply-adds the pool dispatch overhead dominates and
// the serial tile walk wins.  The gate depends only on problem size, and
// serial vs parallel walks are bitwise identical anyway (disjoint tiles,
// same per-tile arithmetic), so this is a pure scheduling choice.
constexpr std::size_t kParallelMulAdds = std::size_t{1} << 21;

/// Pack op_b(B)[p0 .. p0+kc, j0 .. j0+nc] as ceil(nc/NR) strips of
/// [kc][NR], columns beyond nc padded with zeros.
template <typename T>
void pack_b(Trans tb, const T* b, std::size_t ldb, std::size_t p0,
            std::size_t j0, std::size_t kc, std::size_t nc, T* out) {
  constexpr std::size_t kNr = nr_of<T>();
  for (std::size_t jr = 0; jr < nc; jr += kNr) {
    const std::size_t nr = std::min(kNr, nc - jr);
    for (std::size_t p = 0; p < kc; ++p) {
      for (std::size_t c = 0; c < kNr; ++c) {
        *out++ = c < nr ? load(tb, b, ldb, p0 + p, j0 + jr + c) : T(0);
      }
    }
  }
}

template <typename T>
void gemm_impl(Trans ta, Trans tb, std::size_t m, std::size_t n,
               std::size_t k, const T* a, std::size_t lda, const T* b,
               std::size_t ldb, T* c, std::size_t ldc, bool accumulate,
               bool allow_parallel) {
  if (m == 0 || n == 0) return;
  constexpr std::size_t kMr = kGemmMr;
  constexpr std::size_t kNr = nr_of<T>();
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

  // One C macro-tile, computed start-to-finish by one task: zero (unless
  // accumulating), then fold every KC panel in ascending order.
  const auto tile_task = [&](std::size_t idx) {
    const std::size_t i0 = (idx / col_tiles) * row_grain;
    const std::size_t j0 = (idx % col_tiles) * kGemmNc;
    const std::size_t mc = std::min(row_grain, m - i0);
    const std::size_t nc = std::min(kGemmNc, n - j0);
    if (!accumulate) {
      for (std::size_t r = 0; r < mc; ++r) {
        std::fill_n(c + (i0 + r) * ldc + j0, nc, T(0));
      }
    }
    if (k == 0) return;
    util::Scratch& scratch = util::Scratch::tls();
    T* pa = scratch.buffer<T>(util::Scratch::kGemmPackA, kGemmMc * kGemmKc);
    T* pb = scratch.buffer<T>(util::Scratch::kGemmPackB, kGemmKc * kGemmNc);
    for (std::size_t p0 = 0; p0 < k; p0 += kGemmKc) {
      const std::size_t kc = std::min(kGemmKc, k - p0);
      pack_a(ta, a, lda, i0, p0, mc, kc, pa);
      pack_b(tb, b, ldb, p0, j0, kc, nc, pb);
      for (std::size_t jr = 0; jr < nc; jr += kNr) {
        const std::size_t nr = std::min(kNr, nc - jr);
        for (std::size_t ir = 0; ir < mc; ir += kMr) {
          micro_kernel(pa + (ir / kMr) * kc * kMr, pb + (jr / kNr) * kc * kNr,
                       kc, c + (i0 + ir) * ldc + j0 + jr, ldc,
                       std::min(kMr, mc - ir), nr);
        }
      }
    }
  };

  const std::size_t tiles = row_tiles * col_tiles;
  if (parallel && tiles > 1) {
    util::parallel_for(tiles, tile_task);
  } else {
    for (std::size_t t = 0; t < tiles; ++t) tile_task(t);
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

void gemm(Trans ta, Trans tb, std::size_t m, std::size_t n, std::size_t k,
          const float* a, std::size_t lda, const float* b, std::size_t ldb,
          float* c, std::size_t ldc, bool accumulate, bool allow_parallel) {
  gemm_impl(ta, tb, m, n, k, a, lda, b, ldb, c, ldc, accumulate,
            allow_parallel);
}

void gemm(Trans ta, Trans tb, std::size_t m, std::size_t n, std::size_t k,
          const double* a, std::size_t lda, const double* b, std::size_t ldb,
          double* c, std::size_t ldc, bool accumulate, bool allow_parallel) {
  gemm_impl(ta, tb, m, n, k, a, lda, b, ldb, c, ldc, accumulate,
            allow_parallel);
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

}  // namespace bprom::tensor
