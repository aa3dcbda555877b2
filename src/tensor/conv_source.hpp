// Internal to src/tensor: how both convolution lowerings (the packed
// forward in conv.cpp and im2col in im2col.cpp) read one sample.  Every
// patch row (c, ky, kx) becomes one offset into a set of planes whose
// rows are in_w + 2*pad wide, so a window at output (oy, ox) reads tap k
// at `(oy * pw + ox) * stride + k_off[k]` with no bounds check.
#pragma once

#include <cstddef>

#include "tensor/im2col.hpp"

namespace bprom::tensor::detail {

/// The planes to read `sample` ([in_c, in_h, in_w]) through, with the
/// patch-row offsets written to `k_off` (g.patch_size() entries).  With
/// pad > 0 they are a zero-bordered copy in the calling thread's
/// util::Scratch kConvPadded slot, valid until the current leaf task
/// returns; with pad 0 they are `sample` itself.
const float* conv_source(const float* sample, const ConvGeometry& g,
                         std::size_t* k_off);

}  // namespace bprom::tensor::detail
