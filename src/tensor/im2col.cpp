#include "tensor/im2col.hpp"

#include <cassert>

#include "tensor/conv_source.hpp"
#include "util/scratch.hpp"
#include "util/thread_pool.hpp"

namespace bprom::tensor {
namespace {

// Minimum total element count before the batch loop is worth sharding over
// the pool; per-sample blocks are contiguous and disjoint, so the parallel
// result is bit-identical to the serial one.
constexpr std::size_t kParallelElems = std::size_t{1} << 20;

}  // namespace

Tensor im2col(const Tensor& input, const ConvGeometry& g) {
  Tensor cols;
  im2col_into(input, g, cols);
  return cols;
}

void im2col_into(const Tensor& input, const ConvGeometry& g, Tensor& cols) {
  assert(input.rank() == 4);
  const std::size_t n = input.dim(0);
  assert(input.dim(1) == g.in_c && input.dim(2) == g.in_h &&
         input.dim(3) == g.in_w && g.valid());
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  // Shapes the caller's column tensor — callers reuse one tensor across
  // batches, so in steady state this resize is a no-op.
  // bprom-lint: allow(hot-path-alloc)
  cols.resize({n * oh * ow, g.patch_size()});
  const std::size_t patch = g.patch_size();
  const std::size_t sample_elems = oh * ow * patch;
  const std::size_t sample_in = g.in_c * g.in_h * g.in_w;
  const std::size_t pw = g.in_w + 2 * g.pad;
  const auto fill_sample = [&](std::size_t b) {
    std::size_t* k_off = util::Scratch::tls().buffer<std::size_t>(
        util::Scratch::kConvOffsets, patch);
    const float* src =
        detail::conv_source(input.data() + b * sample_in, g, k_off);
    float* out = cols.data() + b * sample_elems;
    for (std::size_t y = 0; y < oh; ++y) {
      for (std::size_t x = 0; x < ow; ++x) {
        const float* window = src + (y * pw + x) * g.stride;
        for (std::size_t k = 0; k < patch; ++k) out[k] = window[k_off[k]];
        out += patch;
      }
    }
  };
  if (n > 1 && n * sample_elems >= kParallelElems) {
    util::parallel_for(n, fill_sample);
  } else {
    for (std::size_t b = 0; b < n; ++b) fill_sample(b);
  }
}

Tensor col2im(const Tensor& cols, const ConvGeometry& g, std::size_t batch) {
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  assert(cols.dim(0) == batch * oh * ow && cols.dim(1) == g.patch_size());
  Tensor img({batch, g.in_c, g.in_h, g.in_w});
  const std::size_t sample_elems = oh * ow * g.patch_size();
  const auto scatter_sample = [&](std::size_t b) {
    const float* in = cols.data() + b * sample_elems;
    for (std::size_t y = 0; y < oh; ++y) {
      for (std::size_t x = 0; x < ow; ++x) {
        for (std::size_t c = 0; c < g.in_c; ++c) {
          for (std::size_t ky = 0; ky < g.kernel; ++ky) {
            const long iy =
                static_cast<long>(y * g.stride + ky) - static_cast<long>(g.pad);
            for (std::size_t kx = 0; kx < g.kernel; ++kx) {
              const long ix = static_cast<long>(x * g.stride + kx) -
                              static_cast<long>(g.pad);
              const float v = *in++;
              if (iy >= 0 && iy < static_cast<long>(g.in_h) && ix >= 0 &&
                  ix < static_cast<long>(g.in_w)) {
                img.at4(b, c, static_cast<std::size_t>(iy),
                        static_cast<std::size_t>(ix)) += v;
              }
            }
          }
        }
      }
    }
  };
  if (batch > 1 && batch * sample_elems >= kParallelElems) {
    util::parallel_for(batch, scatter_sample);
  } else {
    for (std::size_t b = 0; b < batch; ++b) scatter_sample(b);
  }
  return img;
}

}  // namespace bprom::tensor
