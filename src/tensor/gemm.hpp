// Cache-blocked, register-tiled GEMM shared by every training/inspection
// hot path (Linear/Conv2d forward+backward, attention matmuls, and the
// double-precision analysis matrices in linalg).
//
// Kernel design (see README "Performance & parallelism"):
//   - BLIS-style blocking: C is partitioned into a *fixed* grid of
//     kGemmMc x kGemmNc macro-tiles; each macro-tile walks the K dimension
//     in kGemmKc panels, packing the A panel as [kc][MR] strips and the
//     B panel as [kc][NR] strips into the per-thread util::Scratch arena so
//     the micro-kernel streams contiguous, zero-padded memory.
//   - The micro-kernel keeps an MR x NR accumulator array in registers;
//     the NR lanes are independent, so the compiler vectorizes them into
//     SIMD lanes without any reassociation license.
//   - Two kernel widths are compiled into every x86 build and one is picked
//     at run time (kernel_isa()): AVX2 (NR = 16 floats / 8 doubles) on a
//     CPU that has it, else the SSE2 baseline (NR = 8 / 4).  The AVX2 code
//     is compiled for "avx2" alone, never "fma": each product and each add
//     rounds separately on both widths, which is what keeps them equal.
//   - Parallelism is over the macro-tile grid via util::parallel_for.  The
//     grid depends only on the problem shape and the detected kernel width
//     — never on the thread count (skinny-N problems get a finer row grain
//     so the grid still feeds a pool, but the grain is a pure function of
//     the shape) — and every tile is computed start-to-finish by one task.
//
// Determinism contract: for a fixed problem (shape + transposes +
// accumulate), every element of C is produced by the same floating-point
// addition sequence regardless of pool size *and* of kernel width.  The
// sequence is: per KC block in ascending order, a register accumulator
// sums the block's products in ascending k, then folds into C.  The width
// only moves tile boundaries, never the order in which an element is
// summed.  gemm_reference replicates exactly that grouping, so
// kernel-vs-reference comparisons are bitwise for every shape.
#pragma once

#include <cstddef>

namespace bprom::tensor {

/// Whether an operand is used as stored or transposed.  `lda`/`ldb` are
/// always the *storage* row strides (elements per stored row).
enum class Trans { kNo, kYes };

/// Instruction set a GEMM / convolution kernel is compiled for: kSse2 is
/// the baseline build with 16-byte vectors (the only one dispatched to off
/// x86), kAvx2 the 32-byte one.
enum class KernelIsa { kSse2, kAvx2 };

/// The kernel every gemm() and conv2d_forward() call of this process runs:
/// kAvx2 when the CPU supports AVX2, else kSse2.  Detected once.
[[nodiscard]] KernelIsa kernel_isa();

/// "sse2" or "avx2".
[[nodiscard]] const char* kernel_isa_name(KernelIsa isa);

// Blocking constants, exposed so tests can probe edge-tile shapes.  The
// 6 x NR accumulator block is two SIMD vectors per row, so it fits the 16
// vector registers of either ISA alongside one broadcast A value and the
// two B vectors.
inline constexpr std::size_t kGemmMr = 6;  // micro-tile rows

/// Micro-tile columns of the `isa` kernel: two vectors of T per row.
template <typename T>
constexpr std::size_t gemm_nr(KernelIsa isa) {
  return (isa == KernelIsa::kAvx2 ? 64 : 32) / sizeof(T);
}

inline constexpr std::size_t kGemmMc = 96;   // macro-tile rows
inline constexpr std::size_t kGemmKc = 256;  // K panel depth
inline constexpr std::size_t kGemmNc = 512;  // macro-tile cols

/// C (m x n, row stride ldc) = [accumulate ? C : 0] + op_a(A) . op_b(B)
/// where op_a(A) is m x k and op_b(B) is k x n.  `allow_parallel=false`
/// forces the serial tile walk — callers that already shard an outer loop
/// over the pool use it to keep the task count bounded; the choice must
/// depend only on problem shape so results stay thread-count invariant
/// (the serial walk visits tiles in the same order with the same
/// arithmetic, so it is bitwise identical to the parallel one anyway).
void gemm(Trans ta, Trans tb, std::size_t m, std::size_t n, std::size_t k,
          const float* a, std::size_t lda, const float* b, std::size_t ldb,
          float* c, std::size_t ldc, bool accumulate,
          bool allow_parallel = true);
void gemm(Trans ta, Trans tb, std::size_t m, std::size_t n, std::size_t k,
          const double* a, std::size_t lda, const double* b, std::size_t ldb,
          double* c, std::size_t ldc, bool accumulate,
          bool allow_parallel = true);

/// Naive single-thread reference with the kernel's summation grouping:
/// per KC block, a local accumulator sums products in ascending k, then
/// folds into C.  Bitwise-identical to gemm() for any shape (it replays the
/// same KC partition, and the KC partition is the same on both kernel
/// widths); kept scalar + unblocked so benches can measure the
/// blocked kernel against the pre-PR-5 style triple loop.
void gemm_reference(Trans ta, Trans tb, std::size_t m, std::size_t n,
                    std::size_t k, const float* a, std::size_t lda,
                    const float* b, std::size_t ldb, float* c,
                    std::size_t ldc, bool accumulate);
void gemm_reference(Trans ta, Trans tb, std::size_t m, std::size_t n,
                    std::size_t k, const double* a, std::size_t lda,
                    const double* b, std::size_t ldb, double* c,
                    std::size_t ldc, bool accumulate);

namespace detail {

/// gemm() on the `isa` kernel instead of the detected one, so tests can pin
/// both widths against gemm_reference.  `isa` must be one the CPU supports.
void gemm(KernelIsa isa, Trans ta, Trans tb, std::size_t m, std::size_t n,
          std::size_t k, const float* a, std::size_t lda, const float* b,
          std::size_t ldb, float* c, std::size_t ldc, bool accumulate,
          bool allow_parallel = true);
void gemm(KernelIsa isa, Trans ta, Trans tb, std::size_t m, std::size_t n,
          std::size_t k, const double* a, std::size_t lda, const double* b,
          std::size_t ldb, double* c, std::size_t ldc, bool accumulate,
          bool allow_parallel = true);

}  // namespace detail

}  // namespace bprom::tensor
