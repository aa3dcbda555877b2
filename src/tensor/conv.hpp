// Packed convolution forward: lowers a 2-D convolution onto the GEMM
// micro-kernel without materializing the im2col matrix.
//
// Each [kc][NR] B strip is gathered straight from one sample's NCHW planes
// through two shape-only offset tables (patch row k -> plane offset, output
// column j -> window offset), so the inner loop has no bounds check and no
// div/mod.  With pad > 0 the planes are first copied once per task into a
// zero-bordered buffer; with pad 0 they are read in place.  The weights are
// packed into [kc][MR] strips once per call, not once per sample.
//
// Determinism contract: every output element is the bias followed by one
// fold per KC panel in ascending order, each panel summed in ascending k
// by the GEMM micro-kernel — exactly the sequence of im2col + gemm with the
// bias prefilled and accumulate=true, so results are bit-identical to that
// lowering for every shape and either kernel width.  The task grid
// (samples, plus column blocks of whole NR strips of one sample when the
// batch is too small to feed a pool) depends only on the shape and the
// detected kernel width, never on the thread count.
#pragma once

#include <cstddef>

#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "tensor/tensor.hpp"

namespace bprom::tensor {

/// Below this many multiply-adds (n * out_h * out_w * out_c * patch) the
/// forward runs serially; exposed so tests can cross the gate.
inline constexpr std::size_t kConvParallelOps = std::size_t{1} << 21;

/// Floats of the packed weight panel conv2d_forward needs for `out_c`
/// filters of `g.patch_size()` taps (out_c rounded up to whole MR strips).
[[nodiscard]] std::size_t conv2d_packed_weight_size(const ConvGeometry& g,
                                                    std::size_t out_c);

/// y[n, out_c, out_h, out_w] = bias + weight . im2col(x)^T per sample.
/// `x` is [n, g.in_c, g.in_h, g.in_w]; `weight` is [out_c, patch] row-major;
/// `bias` has out_c entries.  `packed_weight` is caller-owned storage of
/// conv2d_packed_weight_size(g, out_c) floats: it is shared by every task
/// of the call, so it cannot live in the per-thread scratch arena.  Throws
/// std::invalid_argument when the geometry has no output (kernel larger
/// than the padded input, or stride 0).
Tensor conv2d_forward(const Tensor& x, const ConvGeometry& g,
                      const float* weight, const float* bias,
                      std::size_t out_c, float* packed_weight);

namespace detail {

/// conv2d_forward() on the `isa` kernel instead of the detected one, so
/// tests can pin both widths.  `isa` must be one the CPU supports.
Tensor conv2d_forward(KernelIsa isa, const Tensor& x, const ConvGeometry& g,
                      const float* weight, const float* bias,
                      std::size_t out_c, float* packed_weight);

}  // namespace detail

}  // namespace bprom::tensor
