// im2col / col2im for convolution lowering to matrix multiplication.
#pragma once

#include <cstddef>

#include "tensor/tensor.hpp"

namespace bprom::tensor {

struct ConvGeometry {
  std::size_t in_c = 0;
  std::size_t in_h = 0;
  std::size_t in_w = 0;
  std::size_t kernel = 3;
  std::size_t stride = 1;
  std::size_t pad = 1;

  /// Whether the kernel fits the padded input at least once; out_h() and
  /// out_w() underflow otherwise, so check this before calling them on a
  /// shape that came from outside the program.
  [[nodiscard]] bool valid() const {
    return kernel > 0 && stride > 0 && in_h + 2 * pad >= kernel &&
           in_w + 2 * pad >= kernel;
  }
  [[nodiscard]] std::size_t out_h() const {
    return (in_h + 2 * pad - kernel) / stride + 1;
  }
  [[nodiscard]] std::size_t out_w() const {
    return (in_w + 2 * pad - kernel) / stride + 1;
  }
  [[nodiscard]] std::size_t patch_size() const {
    return in_c * kernel * kernel;
  }
};

/// input:  [N, C, H, W]
/// output: [N * out_h * out_w, C * k * k]  (row per output location)
Tensor im2col(const Tensor& input, const ConvGeometry& g);

/// im2col into a caller-owned tensor, reusing its allocation when the
/// capacity suffices.  Reads each sample through the same zero-bordered
/// copy and patch-offset table as the packed forward, so the inner loop
/// has no bounds check.  Conv2d's forward does not lower through this
/// (see tensor/conv.hpp); its backward rebuilds one such buffer per layer
/// from the saved input, so only layers that backprop hold a column
/// matrix.
void im2col_into(const Tensor& input, const ConvGeometry& g, Tensor& cols);

/// Inverse scatter-add of im2col; returns [N, C, H, W].  Allocates its
/// result on purpose: the image-space gradient is handed back to the
/// caller, unlike the column matrices that stay layer-resident.
Tensor col2im(const Tensor& cols, const ConvGeometry& g, std::size_t batch);

}  // namespace bprom::tensor
