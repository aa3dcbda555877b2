// GEMM kernel microbenchmark: blocked kernel vs the naive single-thread
// reference across the shapes the framework's nets actually run, plus the
// large square shapes the acceptance gate tracks; then Conv2d forward
// lowered through im2col + one GEMM per sample against the packed
// convolution that gathers its GEMM panels straight from the input.
// Emits BENCH_gemm.json via BenchReport:
//   gemm/<shape>/naive        seconds, scalar reference, 1 thread
//   gemm/<shape>/blocked_1t   seconds, blocked kernel under a 1-thread pool
//   gemm/<shape>/blocked      seconds, blocked kernel on the default pool
//   gemm/<shape>/speedup_1t   naive / blocked_1t ratio (dimensionless)
//   conv/<shape>/im2col_gemm_1t  seconds, im2col + per-sample GEMM, 1 thread
//   conv/<shape>/packed_1t       seconds, tensor::conv2d_forward, 1 thread
//   conv/<shape>/speedup_1t      im2col_gemm_1t / packed_1t ratio
// The first line printed names the kernel ISA gemm() and conv2d_forward()
// dispatched to on this CPU (tensor::kernel_isa()).  The bench exits
// nonzero if the two conv lowerings disagree in any bit.
#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common.hpp"
#include "tensor/conv.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace {

using bprom::tensor::Trans;

struct Shape {
  const char* id;
  std::size_t m, n, k;
  Trans ta, tb;
};

// The first rows are the framework's hot shapes: Linear forward (x . W^T),
// Linear dW (G^T . X), Conv2d forward over im2col (W . cols^T), attention
// scores (Q . K^T).  The "large*" rows are the acceptance-gate shapes.
const Shape kShapes[] = {
    {"linear_fwd_b128", 128, 256, 192, Trans::kNo, Trans::kYes},
    {"linear_dw_b128", 256, 192, 128, Trans::kYes, Trans::kNo},
    {"conv_fwd_c64", 64, 256, 288, Trans::kNo, Trans::kYes},
    {"attn_scores_t256", 256, 256, 64, Trans::kNo, Trans::kYes},
    {"large_384", 384, 384, 384, Trans::kNo, Trans::kNo},
    {"large_512", 512, 512, 512, Trans::kNo, Trans::kNo},
};

struct ConvShape {
  const char* id;
  std::size_t batch, in_c, in_hw, kernel, stride, pad, out_c;
};

// ResNet18Mini's seven convolutions (nn/arch.cpp: stem, two residual
// blocks with 1x1 projections) on one 48-image query batch of the 3x16x16
// images the audits use, then the four 3x3 shapes the lowering was first
// profiled at (batch 32, c = 3/16/32/64 at 32/32/16/8 px).
const ConvShape kConvShapes[] = {
    {"r18_stem", 48, 3, 16, 3, 1, 1, 4},
    {"r18_b1_conv1", 48, 4, 16, 3, 2, 1, 8},
    {"r18_b1_conv2", 48, 8, 8, 3, 1, 1, 8},
    {"r18_b1_proj", 48, 4, 16, 1, 2, 0, 8},
    {"r18_b2_conv1", 48, 8, 8, 3, 2, 1, 16},
    {"r18_b2_conv2", 48, 16, 4, 3, 1, 1, 16},
    {"r18_b2_proj", 48, 8, 8, 1, 2, 0, 16},
    {"c3_32px", 32, 3, 32, 3, 1, 1, 16},
    {"c16_32px", 32, 16, 32, 3, 1, 1, 16},
    {"c32_16px", 32, 32, 16, 3, 1, 1, 32},
    {"c64_8px", 32, 64, 8, 3, 1, 1, 64},
};

double time_reps(std::size_t reps, const std::function<void()>& body) {
  bprom::util::Stopwatch watch;
  for (std::size_t r = 0; r < reps; ++r) body();
  return watch.seconds() / static_cast<double>(reps);
}

/// The forward Conv2d ran before the packed lowering: im2col over the whole
/// batch, then per sample the bias broadcast and one accumulating GEMM.
void conv_im2col_gemm(const bprom::tensor::Tensor& x,
                      const bprom::tensor::ConvGeometry& g, const float* w,
                      const float* bias, std::size_t out_c,
                      bprom::tensor::Tensor& cols, bprom::tensor::Tensor& y) {
  bprom::tensor::im2col_into(x, g, cols);
  const std::size_t hw = g.out_h() * g.out_w();
  const std::size_t patch = g.patch_size();
  for (std::size_t b = 0; b < x.dim(0); ++b) {
    float* yb = y.data() + b * out_c * hw;
    for (std::size_t oc = 0; oc < out_c; ++oc) {
      std::fill_n(yb + oc * hw, hw, bias[oc]);
    }
    bprom::tensor::gemm(Trans::kNo, Trans::kYes, out_c, hw, patch, w, patch,
                        cols.data() + b * hw * patch, patch, yb, hw,
                        /*accumulate=*/true);
  }
}

/// Times both conv lowerings on the current pool; returns false on any bit
/// of disagreement between their outputs.
bool bench_conv(const ConvShape& s, bench::BenchReport& report) {
  namespace tensor = bprom::tensor;
  bprom::util::Rng rng(211);
  const tensor::ConvGeometry g{s.in_c, s.in_hw, s.in_hw,
                               s.kernel, s.stride, s.pad};
  const tensor::Tensor x =
      tensor::Tensor::randn({s.batch, s.in_c, s.in_hw, s.in_hw}, rng);
  const tensor::Tensor w =
      tensor::Tensor::randn({s.out_c, g.patch_size()}, rng, 0.1F);
  const tensor::Tensor bias = tensor::Tensor::randn({s.out_c}, rng);
  tensor::Tensor cols;
  tensor::Tensor y_old({s.batch, s.out_c, g.out_h(), g.out_w()});
  tensor::Tensor y_new;
  std::vector<float> packed(tensor::conv2d_packed_weight_size(g, s.out_c));

  const std::size_t muladds =
      s.batch * s.out_c * g.out_h() * g.out_w() * g.patch_size();
  const std::size_t reps =
      std::max<std::size_t>(3, (std::size_t{1} << 27) / muladds);
  // Alternating rounds, median of each side, so drift on a shared host
  // lands on both lowerings alike.
  constexpr std::size_t kRounds = 5;
  std::vector<double> old_rounds;
  std::vector<double> new_rounds;
  for (std::size_t r = 0; r < kRounds; ++r) {
    old_rounds.push_back(time_reps(reps, [&] {
      conv_im2col_gemm(x, g, w.data(), bias.data(), s.out_c, cols, y_old);
    }));
    new_rounds.push_back(time_reps(reps, [&] {
      y_new = tensor::conv2d_forward(x, g, w.data(), bias.data(), s.out_c,
                                     packed.data());
    }));
  }
  std::sort(old_rounds.begin(), old_rounds.end());
  std::sort(new_rounds.begin(), new_rounds.end());
  const double old_s = old_rounds[kRounds / 2];
  const double new_s = new_rounds[kRounds / 2];
  const double speedup = old_s / new_s;
  const bool same = y_old.vec() == y_new.vec();
  std::printf("%-18s %12.3f %12.3f %8.2fx %s\n", s.id, old_s * 1e3,
              new_s * 1e3, speedup, same ? "bitwise-equal" : "MISMATCH");
  const std::string prefix = std::string("conv/") + s.id + "/";
  report.add_cell(prefix + "im2col_gemm_1t", old_s);
  report.add_cell(prefix + "packed_1t", new_s);
  report.add_cell(prefix + "speedup_1t", speedup);
  return same;
}

}  // namespace

int main() {
  bench::BenchReport report("gemm");
  bprom::util::ThreadPool one(1);
  std::printf("kernel isa: %s\n\n", bprom::tensor::kernel_isa_name(
                                       bprom::tensor::kernel_isa()));

  std::printf("%-18s %10s %12s %12s %9s %9s\n", "shape", "naive_ms",
              "blocked1t_ms", "blocked_ms", "x1t", "xpool");
  bool large_ok = true;
  for (const Shape& s : kShapes) {
    bprom::util::Rng rng(101);
    std::vector<float> a(s.m * s.k);
    std::vector<float> b(s.k * s.n);
    std::vector<float> c(s.m * s.n);
    for (auto& x : a) x = static_cast<float>(rng.normal());
    for (auto& x : b) x = static_cast<float>(rng.normal());
    const std::size_t lda = s.ta == Trans::kNo ? s.k : s.m;
    const std::size_t ldb = s.tb == Trans::kNo ? s.n : s.k;

    // Enough repetitions that each measurement spans tens of milliseconds.
    const std::size_t muladds = s.m * s.n * s.k;
    const std::size_t reps =
        std::max<std::size_t>(1, (std::size_t{1} << 27) / muladds);

    const double naive = time_reps(reps, [&] {
      bprom::tensor::gemm_reference(s.ta, s.tb, s.m, s.n, s.k, a.data(), lda,
                                    b.data(), ldb, c.data(), s.n, false);
    });
    double blocked_1t = 0.0;
    {
      bprom::util::ScopedPoolOverride serial(one);
      blocked_1t = time_reps(reps, [&] {
        bprom::tensor::gemm(s.ta, s.tb, s.m, s.n, s.k, a.data(), lda,
                            b.data(), ldb, c.data(), s.n, false);
      });
    }
    const double blocked = time_reps(reps, [&] {
      bprom::tensor::gemm(s.ta, s.tb, s.m, s.n, s.k, a.data(), lda, b.data(),
                          ldb, c.data(), s.n, false);
    });

    const double x1t = naive / blocked_1t;
    const double xpool = naive / blocked;
    std::printf("%-18s %10.3f %12.3f %12.3f %8.2fx %8.2fx\n", s.id,
                naive * 1e3, blocked_1t * 1e3, blocked * 1e3, x1t, xpool);
    const std::string prefix = std::string("gemm/") + s.id + "/";
    report.add_cell(prefix + "naive", naive);
    report.add_cell(prefix + "blocked_1t", blocked_1t);
    report.add_cell(prefix + "blocked", blocked);
    report.add_cell(prefix + "speedup_1t", x1t);
    if (std::string(s.id).rfind("large", 0) == 0 && x1t < 2.0) {
      large_ok = false;
    }
  }
  std::printf("large shapes >= 2x single-thread: %s\n",
              large_ok ? "yes" : "NO");

  std::printf("\n%-18s %12s %12s %9s\n", "conv forward", "im2col_ms",
              "packed_ms", "x1t");
  bool conv_equal = true;
  {
    bprom::util::ScopedPoolOverride serial(one);
    for (const ConvShape& s : kConvShapes) {
      conv_equal = bench_conv(s, report) && conv_equal;
    }
  }
  report.write();
  return conv_equal ? 0 : 1;
}
