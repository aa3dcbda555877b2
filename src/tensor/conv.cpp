#include "tensor/conv.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <string>

#include "tensor/conv_source.hpp"
#include "tensor/gemm_kernel.hpp"
#include "util/scratch.hpp"
#include "util/thread_pool.hpp"

namespace bprom::tensor {
namespace {

constexpr std::size_t kMr = kGemmMr;

// Task count a parallel call aims for when the batch alone is too small to
// feed a pool; the shortfall is made up with column blocks of each sample.
constexpr std::size_t kTargetTasks = 16;

constexpr std::size_t ceil_div(std::size_t a, std::size_t b) {
  return (a + b - 1) / b;
}

/// Gather one [kc][Nr] B strip: row p is source row `k_off[p]` read at the
/// strip's window offsets `j_off[0 .. nr)`; columns beyond nr are zero.
/// `contiguous` means the Nr windows are adjacent, so each row is one copy.
template <std::size_t Nr>
BPROM_KERNEL_INLINE void pack_strip(const float* src, const std::size_t* k_off,
                                    const std::size_t* j_off, std::size_t kc,
                                    std::size_t nr, bool contiguous,
                                    float* out) {
  if (contiguous) {
    const float* base = src + j_off[0];
    for (std::size_t p = 0; p < kc; ++p) {
      std::memcpy(out + p * Nr, base + k_off[p], Nr * sizeof(float));
    }
    return;
  }
  if (nr == Nr) {
    std::size_t off[Nr];
    std::copy_n(j_off, Nr, off);
    for (std::size_t p = 0; p < kc; ++p) {
      const float* row = src + k_off[p];
      float* o = out + p * Nr;
#pragma GCC unroll 16
      for (std::size_t c = 0; c < Nr; ++c) o[c] = row[off[c]];
    }
    return;
  }
  for (std::size_t p = 0; p < kc; ++p) {
    const float* row = src + k_off[p];
    float* o = out + p * Nr;
    for (std::size_t c = 0; c < Nr; ++c) o[c] = c < nr ? row[j_off[c]] : 0.0F;
  }
}

/// One conv2d_forward() call: its operands and its task grid, whose column
/// blocks are whole strips of the kernel's width.
struct ConvCall {
  const ConvGeometry& g;
  const float* x;
  const float* bias;
  const float* packed_weight;
  float* y;
  std::size_t out_c, m_pad, blocks, block_cols;
};

/// Task `t`: sample t / blocks, output columns of its block t % blocks.
template <std::size_t Nr>
BPROM_KERNEL_INLINE void conv_task(const ConvCall& call, std::size_t t) {
  const ConvGeometry& g = call.g;
  const std::size_t out_c = call.out_c;
  const std::size_t ow = g.out_w();
  const std::size_t hw = g.out_h() * ow;
  const std::size_t patch = g.patch_size();
  const std::size_t pw = g.in_w + 2 * g.pad;
  const std::size_t b = t / call.blocks;
  const std::size_t j0 = (t % call.blocks) * call.block_cols;
  const std::size_t j1 = std::min(hw, j0 + call.block_cols);
  util::Scratch& scratch = util::Scratch::tls();
  // Offset tables: patch row -> its tap (conv_source), and output column
  // (oy, ox) -> its window's top-left.  Window offsets strictly increase
  // with j (pw >= ow), so a strip whose last offset is Nr-1 past its
  // first is one contiguous run.
  std::size_t* k_off = scratch.buffer<std::size_t>(
      util::Scratch::kConvOffsets, patch + (j1 - j0));
  std::size_t* j_off = k_off + patch;
  const float* src = detail::conv_source(
      call.x + b * g.in_c * g.in_h * g.in_w, g, k_off);
  for (std::size_t j = j0; j < j1; ++j) {
    j_off[j - j0] = (j / ow) * g.stride * pw + (j % ow) * g.stride;
  }
  // The B strip is the only GEMM-shaped buffer a conv task needs, and a
  // conv task never calls gemm(), so it borrows the GEMM's B slot.
  float* pb = scratch.buffer<float>(util::Scratch::kGemmPackB, kGemmKc * Nr);
  float* yb = call.y + b * out_c * hw;
  for (std::size_t oc = 0; oc < out_c; ++oc) {
    std::fill(yb + oc * hw + j0, yb + oc * hw + j1, call.bias[oc]);
  }
  for (std::size_t jr = j0; jr < j1; jr += Nr) {
    const std::size_t nr = std::min(Nr, j1 - jr);
    const std::size_t* jo = j_off + (jr - j0);
    const bool contiguous = nr == Nr && jo[Nr - 1] - jo[0] == Nr - 1;
    for (std::size_t p0 = 0; p0 < patch; p0 += kGemmKc) {
      const std::size_t kc = std::min(kGemmKc, patch - p0);
      pack_strip<Nr>(src, k_off + p0, jo, kc, nr, contiguous, pb);
      const float* pa = call.packed_weight + p0 * call.m_pad;
      for (std::size_t ir = 0; ir < out_c; ir += kMr) {
        detail::micro_kernel<float, Nr>(pa + ir * kc, pb, kc,
                                        yb + ir * hw + jr, hw,
                                        std::min(kMr, out_c - ir), nr);
      }
    }
  }
}

// One leaf per kernel ISA, as in gemm.cpp.
void conv_task_sse2(const ConvCall& call, std::size_t t) {
  conv_task<gemm_nr<float>(KernelIsa::kSse2)>(call, t);
}

BPROM_KERNEL_AVX2 void conv_task_avx2(const ConvCall& call, std::size_t t) {
  conv_task<gemm_nr<float>(KernelIsa::kAvx2)>(call, t);
}

}  // namespace

namespace detail {

const float* conv_source(const float* sample, const ConvGeometry& g,
                         std::size_t* k_off) {
  const std::size_t ph = g.in_h + 2 * g.pad;
  const std::size_t pw = g.in_w + 2 * g.pad;
  for (std::size_t c = 0; c < g.in_c; ++c) {
    for (std::size_t ky = 0; ky < g.kernel; ++ky) {
      for (std::size_t kx = 0; kx < g.kernel; ++kx) {
        *k_off++ = (c * ph + ky) * pw + kx;
      }
    }
  }
  if (g.pad == 0) return sample;
  float* padded = util::Scratch::tls().buffer<float>(
      util::Scratch::kConvPadded, g.in_c * ph * pw);
  const std::size_t border = g.pad * pw;  // one plane's top (or bottom) rows
  float* out = padded;
  for (std::size_t c = 0; c < g.in_c; ++c) {
    std::fill_n(out, border, 0.0F);
    out += border;
    for (std::size_t iy = 0; iy < g.in_h; ++iy) {
      std::fill_n(out, g.pad, 0.0F);
      std::memcpy(out + g.pad, sample, g.in_w * sizeof(float));
      std::fill_n(out + g.pad + g.in_w, g.pad, 0.0F);
      out += pw;
      sample += g.in_w;
    }
    std::fill_n(out, border, 0.0F);
    out += border;
  }
  return padded;
}

}  // namespace detail

std::size_t conv2d_packed_weight_size(const ConvGeometry& g,
                                      std::size_t out_c) {
  return ceil_div(out_c, kMr) * kMr * g.patch_size();
}

namespace detail {

Tensor conv2d_forward(KernelIsa isa, const Tensor& x, const ConvGeometry& g,
                      const float* weight, const float* bias,
                      std::size_t out_c, float* packed_weight) {
  if (!g.valid()) {
    throw std::invalid_argument(
        "conv2d_forward: " + std::to_string(g.kernel) + "x" +
        std::to_string(g.kernel) + "/stride " + std::to_string(g.stride) +
        " kernel has no output on a " + std::to_string(g.in_h) + "x" +
        std::to_string(g.in_w) + " plane with pad " + std::to_string(g.pad));
  }
  assert(x.rank() == 4 && x.dim(1) == g.in_c && x.dim(2) == g.in_h &&
         x.dim(3) == g.in_w);
  const std::size_t n = x.dim(0);
  const std::size_t hw = g.out_h() * g.out_w();
  const std::size_t patch = g.patch_size();
  Tensor y({n, out_c, g.out_h(), g.out_w()});
  if (n == 0 || out_c == 0) return y;

  // Weights, once per call: panel p0 holds ceil(out_c/MR) [kc][MR] strips
  // and starts at p0 * m_pad (every earlier panel is a full KC deep).
  const std::size_t m_pad = ceil_div(out_c, kMr) * kMr;
  for (std::size_t p0 = 0; p0 < patch; p0 += kGemmKc) {
    pack_a(Trans::kNo, weight, patch, 0, p0, out_c,
           std::min(kGemmKc, patch - p0), packed_weight + p0 * m_pad);
  }

  // Task grid: samples, split into column blocks of whole NR strips when
  // the batch is smaller than kTargetTasks.  A function of the shape and
  // the kernel width only.
  const std::size_t nr = gemm_nr<float>(isa);
  const std::size_t strips = ceil_div(hw, nr);
  const bool parallel = n * hw * out_c * patch >= kConvParallelOps;
  std::size_t blocks = 1;
  if (parallel && n < kTargetTasks) {
    blocks = std::min(strips, ceil_div(kTargetTasks, n));
  }
  const std::size_t block_strips = ceil_div(strips, blocks);
  blocks = ceil_div(strips, block_strips);

  const ConvCall call{.g = g,
                      .x = x.data(),
                      .bias = bias,
                      .packed_weight = packed_weight,
                      .y = y.data(),
                      .out_c = out_c,
                      .m_pad = m_pad,
                      .blocks = blocks,
                      .block_cols = block_strips * nr};
  const auto task =
      isa == KernelIsa::kAvx2 ? &conv_task_avx2 : &conv_task_sse2;
  const std::size_t tasks = n * blocks;
  if (parallel && tasks > 1) {
    util::parallel_for(tasks, [&](std::size_t t) { task(call, t); });
  } else {
    for (std::size_t t = 0; t < tasks; ++t) task(call, t);
  }
  return y;
}

}  // namespace detail

Tensor conv2d_forward(const Tensor& x, const ConvGeometry& g,
                      const float* weight, const float* bias,
                      std::size_t out_c, float* packed_weight) {
  return detail::conv2d_forward(kernel_isa(), x, g, weight, bias, out_c,
                                packed_weight);
}

}  // namespace bprom::tensor
