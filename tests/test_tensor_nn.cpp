// Training framework tests: tensor ops, im2col, gradient checks via finite
// differences, loss, optimizers, architecture factory, training convergence.
#include <gtest/gtest.h>
#include <cmath>
#include <string>
#include "nn/arch.hpp"
#include "nn/blocks.hpp"
#include "nn/attention.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/trainer.hpp"
#include "tensor/conv.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "util/thread_pool.hpp"
namespace bprom::nn {
namespace {

TEST(Tensor, ShapeAndAccessors) {
  Tensor t({2, 3, 4, 4});
  EXPECT_EQ(t.size(), 96u);
  t.at4(1, 2, 3, 3) = 7.0F;
  EXPECT_FLOAT_EQ(t[95], 7.0F);
}

TEST(Tensor, StackAndSlice) {
  Tensor a({2, 2}, 1.0F);
  Tensor b({2, 2}, 2.0F);
  Tensor s = Tensor::stack({a, b});
  EXPECT_EQ(s.dim(0), 2u);
  Tensor back = s.slice_sample(1);
  EXPECT_FLOAT_EQ(back[0], 2.0F);
}

TEST(Im2Col, IdentityKernelGeometry) {
  tensor::ConvGeometry g{1, 3, 3, 3, 1, 1};
  EXPECT_EQ(g.out_h(), 3u);
  Tensor x({1, 1, 3, 3});
  for (std::size_t i = 0; i < 9; ++i) x[i] = static_cast<float>(i);
  Tensor cols = tensor::im2col(x, g);
  EXPECT_EQ(cols.dim(0), 9u);
  EXPECT_EQ(cols.dim(1), 9u);
  // Center output position sees the whole image.
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_FLOAT_EQ(cols.at2(4, i), static_cast<float>(i));
  }
}

TEST(Im2Col, Col2ImAdjoint) {
  // <im2col(x), y> == <x, col2im(y)> (adjoint property).
  util::Rng rng(3);
  tensor::ConvGeometry g{2, 4, 4, 3, 2, 1};
  Tensor x = Tensor::randn({1, 2, 4, 4}, rng);
  Tensor y = Tensor::randn({g.out_h() * g.out_w(), g.patch_size()}, rng);
  Tensor cols = tensor::im2col(x, g);
  double lhs = 0;
  for (std::size_t i = 0; i < cols.size(); ++i) lhs += cols[i] * y[i];
  Tensor xt = tensor::col2im(y, g, 1);
  double rhs = 0;
  for (std::size_t i = 0; i < x.size(); ++i) rhs += x[i] * xt[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

// Conv2d::forward packs its GEMM panels straight from the input; every
// output must still equal im2col + gemm_reference with the bias prefilled
// and accumulate=true, bit for bit, on 1 and 4 threads, on the `isa`
// kernel (and through Conv2d::forward when that is the detected one).
void expect_conv_matches_im2col_gemm(tensor::KernelIsa isa, std::size_t in_c,
                                     std::size_t in_h, std::size_t in_w,
                                     std::size_t kernel, std::size_t stride,
                                     std::size_t pad, std::size_t out_c,
                                     std::size_t batch) {
  util::Rng rng(in_c * 1000 + kernel * 100 + stride * 10 + pad + out_c);
  Conv2d conv(in_c, out_c, kernel, stride, pad, rng);
  for (float& b : conv.parameters()[1]->value.vec()) {
    b = static_cast<float>(rng.normal());
  }
  const Tensor x = Tensor::randn({batch, in_c, in_h, in_w}, rng);
  const tensor::ConvGeometry g{in_c, in_h, in_w, kernel, stride, pad};
  const std::size_t hw = g.out_h() * g.out_w();
  const std::size_t patch = g.patch_size();
  Tensor cols;
  tensor::im2col_into(x, g, cols);
  std::vector<float> want(batch * out_c * hw);
  const float* w = conv.parameters()[0]->value.data();
  const float* bias = conv.parameters()[1]->value.data();
  for (std::size_t b = 0; b < batch; ++b) {
    float* yb = want.data() + b * out_c * hw;
    for (std::size_t oc = 0; oc < out_c; ++oc) {
      std::fill_n(yb + oc * hw, hw, bias[oc]);
    }
    tensor::gemm_reference(tensor::Trans::kNo, tensor::Trans::kYes, out_c, hw,
                           patch, w, patch, cols.data() + b * hw * patch,
                           patch, yb, hw, /*accumulate=*/true);
  }
  std::vector<float> packed(tensor::conv2d_packed_weight_size(g, out_c));
  for (const std::size_t threads : {1UL, 4UL}) {
    util::ThreadPool pool(threads);
    util::ScopedPoolOverride overridden(pool);
    const Tensor y = tensor::detail::conv2d_forward(isa, x, g, w, bias, out_c,
                                                    packed.data());
    ASSERT_EQ(y.vec(), want)
        << "in_c=" << in_c << " " << in_h << "x" << in_w << " k=" << kernel
        << " s=" << stride << " p=" << pad << " out_c=" << out_c
        << " batch=" << batch << " threads=" << threads;
    if (isa == tensor::kernel_isa()) {
      ASSERT_EQ(conv.forward(x, /*train=*/false).vec(), want);
    }
  }
}

class Conv2dWidth : public ::testing::TestWithParam<tensor::KernelIsa> {
 protected:
  void SetUp() override {
    if (GetParam() == tensor::KernelIsa::kAvx2 &&
        tensor::kernel_isa() != tensor::KernelIsa::kAvx2) {
      GTEST_SKIP() << "CPU lacks AVX2";
    }
  }
};

TEST_P(Conv2dWidth, PackedForwardMatchesIm2colGemmBitwise) {
  // in_c 32 at 3x3 gives patch 288 > kGemmKc; the 9x7 input gives output
  // planes whose size is not a multiple of NR; out_c 4/8/16/32 leave
  // partial MR strips.  Each shape runs at batch 1 and at the smallest
  // batch that crosses the parallel gate.
  static_assert(32 * 3 * 3 > tensor::kGemmKc);
  const tensor::KernelIsa isa = GetParam();
  for (const std::size_t kernel : {1UL, 2UL, 3UL}) {
    for (const std::size_t stride : {1UL, 2UL}) {
      for (const std::size_t pad : {0UL, 1UL}) {
        for (const std::size_t in_c : {3UL, 32UL}) {
          for (const std::size_t out_c : {4UL, 8UL, 16UL, 32UL}) {
            const tensor::ConvGeometry g{in_c, 9, 7, kernel, stride, pad};
            const std::size_t ops =
                g.out_h() * g.out_w() * out_c * g.patch_size();
            const std::size_t parallel_batch =
                tensor::kConvParallelOps / ops + 1;
            for (const std::size_t batch : {1UL, parallel_batch}) {
              expect_conv_matches_im2col_gemm(isa, in_c, 9, 7, kernel, stride,
                                              pad, out_c, batch);
            }
          }
        }
      }
    }
  }
  // Batch 1 above the gate: the sample splits into column blocks.
  expect_conv_matches_im2col_gemm(isa, 32, 17, 15, 3, 1, 1, 32, 1);
  expect_conv_matches_im2col_gemm(isa, 32, 33, 31, 3, 2, 0, 32, 1);
}

INSTANTIATE_TEST_SUITE_P(
    BothWidths, Conv2dWidth,
    ::testing::Values(tensor::KernelIsa::kSse2, tensor::KernelIsa::kAvx2),
    [](const ::testing::TestParamInfo<tensor::KernelIsa>& info) {
      return std::string(tensor::kernel_isa_name(info.param));
    });

TEST(Conv2d, RejectsKernelLargerThanPaddedInput) {
  util::Rng rng(5);
  Conv2d conv(3, 4, 2, 2, 0, rng);
  EXPECT_THROW(conv.forward(Tensor({1, 3, 1, 1}), false),
               std::invalid_argument);
  EXPECT_EQ(conv.forward(Tensor({1, 3, 2, 2}), false).shape(),
            (std::vector<std::size_t>{1, 4, 1, 1}));
}

// Finite-difference gradient check through a whole model.
void check_input_gradient(Model& model, double tol) {
  util::Rng rng(11);
  Tensor x = Tensor::randn({2, model.input_shape().channels,
                            model.input_shape().height,
                            model.input_shape().width}, rng, 0.5F);
  std::vector<int> labels{0, 1};
  Tensor logits = model.logits(x, false);
  LossResult loss = cross_entropy(logits, labels);
  Tensor dx = model.backward(loss.dlogits);

  const float eps = 1e-2F;
  util::Rng pick(13);
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t i = pick.uniform_index(x.size());
    Tensor xp = x;
    xp[i] += eps;
    double lp = cross_entropy(model.logits(xp, false), labels).loss;
    Tensor xm = x;
    xm[i] -= eps;
    double lm = cross_entropy(model.logits(xm, false), labels).loss;
    const double numeric = (lp - lm) / (2.0 * eps);
    EXPECT_NEAR(dx[i], numeric, tol) << "input index " << i;
  }
}

TEST(Gradients, MlpInputGradientMatchesFiniteDifference) {
  util::Rng rng(1);
  auto model = make_model(ArchKind::kMlp, ImageShape{3, 8, 8}, 4, rng);
  check_input_gradient(*model, 2e-3);
}

TEST(Gradients, ResNetInputGradientMatchesFiniteDifference) {
  util::Rng rng(2);
  auto model = make_model(ArchKind::kResNet18Mini, ImageShape{3, 8, 8}, 4, rng);
  check_input_gradient(*model, 5e-3);
}

TEST(Gradients, MobileNetInputGradientMatchesFiniteDifference) {
  util::Rng rng(3);
  auto model = make_model(ArchKind::kMobileNetV2Mini, ImageShape{3, 8, 8}, 4, rng);
  check_input_gradient(*model, 5e-3);
}

TEST(Gradients, AttentionInputGradientMatchesFiniteDifference) {
  util::Rng rng(4);
  auto model = make_model(ArchKind::kSwinMini, ImageShape{3, 8, 8}, 4, rng);
  check_input_gradient(*model, 8e-3);
}

TEST(Gradients, ParameterGradientMatchesFiniteDifference) {
  util::Rng rng(5);
  auto model = make_model(ArchKind::kMlp, ImageShape{3, 8, 8}, 4, rng);
  Tensor x = Tensor::randn({2, 3, 8, 8}, rng, 0.5F);
  std::vector<int> labels{1, 3};
  for (auto* p : model->parameters()) p->zero_grad();
  LossResult loss = cross_entropy(model->logits(x, false), labels);
  model->backward(loss.dlogits);
  auto params = model->parameters();
  Parameter* w = params[0];
  const float eps = 1e-2F;
  util::Rng pick(17);
  for (int trial = 0; trial < 5; ++trial) {
    const std::size_t i = pick.uniform_index(w->value.size());
    const float orig = w->value[i];
    w->value[i] = orig + eps;
    double lp = cross_entropy(model->logits(x, false), labels).loss;
    w->value[i] = orig - eps;
    double lm = cross_entropy(model->logits(x, false), labels).loss;
    w->value[i] = orig;
    EXPECT_NEAR(w->grad[i], (lp - lm) / (2.0 * eps), 2e-3);
  }
}

// Regression for the g == 0 fast path in Linear::backward: rows whose
// output gradient is entirely zero contribute nothing, and dx must come
// back exactly zero there — freshly zero-initialized, never stale values
// from an earlier backward through the same layer.
TEST(Gradients, LinearZeroGradRowsYieldExactZeroDx) {
  util::Rng rng(6);
  Linear fc(8, 4, rng);
  Tensor x = Tensor::randn({3, 8}, rng);

  // First pass with dense gradients dirties any internal accumulation.
  (void)fc.forward(x, true);
  Tensor g1 = Tensor::randn({3, 4}, rng);
  (void)fc.backward(g1);

  // Second pass: the middle sample's gradient row is all zero.
  (void)fc.forward(x, true);
  Tensor g2 = Tensor::randn({3, 4}, rng);
  for (std::size_t o = 0; o < 4; ++o) g2.at2(1, o) = 0.0F;
  Tensor dx = fc.backward(g2);

  const Tensor& w = fc.parameters()[0]->value;
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t k = 0; k < 8; ++k) {
      // Reference accumulated in the same order (ascending o, zero rows
      // skipped) so the comparison is bit-exact.
      float ref = 0.0F;
      for (std::size_t o = 0; o < 4; ++o) {
        const float g = g2.at2(i, o);
        if (g == 0.0F) continue;
        ref += g * w.at2(o, k);
      }
      EXPECT_EQ(dx.at2(i, k), ref) << "dx[" << i << "][" << k << "]";
    }
  }
  for (std::size_t k = 0; k < 8; ++k) {
    EXPECT_EQ(dx.at2(1, k), 0.0F) << "stale value leaked into zero row";
  }
}

// Regression for the old -1e30F pooling sentinel: windows whose inputs are
// all below it must still return their true maximum (and route the
// backward gradient to the argmax, not to index 0).
TEST(MaxPool, PoolsWindowsBelowOldSentinel) {
  MaxPool2d pool(2);
  Tensor x({1, 1, 2, 2}, -2e30F);
  x.at4(0, 0, 1, 1) = -1.5e30F;  // the true maximum, still below -1e30
  Tensor y = pool.forward(x, false);
  ASSERT_EQ(y.size(), 1u);
  EXPECT_FLOAT_EQ(y[0], -1.5e30F);

  Tensor g({1, 1, 1, 1}, 1.0F);
  Tensor dx = pool.backward(g);
  EXPECT_FLOAT_EQ(dx.at4(0, 0, 1, 1), 1.0F);
  EXPECT_FLOAT_EQ(dx.at4(0, 0, 0, 0), 0.0F);
}

// Flatten must reshape the moved activation buffer, not deep-copy it.
TEST(Flatten, MovedForwardAndBackwardReuseTheBuffer) {
  Flatten flat;
  Tensor x({2, 3, 4, 4});
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = static_cast<float>(i);
  const float* px = x.data();
  Tensor y = flat.forward(std::move(x), false);
  EXPECT_EQ(y.data(), px) << "forward deep-copied the activation";
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{2, 48}));

  const float* py = y.data();
  Tensor dx = flat.backward(std::move(y));
  EXPECT_EQ(dx.data(), py) << "backward deep-copied the gradient";
  EXPECT_EQ(dx.shape(), (std::vector<std::size_t>{2, 3, 4, 4}));
  EXPECT_FLOAT_EQ(dx[95], 95.0F);

  // The const-ref overloads still behave like value semantics.
  Tensor x2({2, 3, 4, 4}, 1.0F);
  Tensor y2 = flat.forward(x2, false);
  EXPECT_NE(y2.data(), x2.data());
  EXPECT_EQ(x2.shape(), (std::vector<std::size_t>{2, 3, 4, 4}));
}

TEST(Loss, SoftmaxRowsSumToOne) {
  util::Rng rng(6);
  Tensor logits = Tensor::randn({4, 5}, rng, 2.0F);
  Tensor p = softmax(logits);
  for (std::size_t i = 0; i < 4; ++i) {
    float sum = 0;
    for (std::size_t j = 0; j < 5; ++j) sum += p.at2(i, j);
    EXPECT_NEAR(sum, 1.0F, 1e-5);
  }
}

TEST(Loss, CrossEntropyOfUniformIsLogK) {
  Tensor logits({2, 4}, 0.0F);
  LossResult loss = cross_entropy(logits, {0, 3});
  EXPECT_NEAR(loss.loss, std::log(4.0), 1e-6);
}

TEST(Optimizer, SgdConvergesOnQuadratic) {
  // Minimize (w - 3)^2 via Parameter machinery.
  Parameter w(Tensor({1}, 0.0F));
  Sgd opt({&w}, 0.1F, 0.0F);
  for (int i = 0; i < 200; ++i) {
    opt.zero_grad();
    w.grad[0] = 2.0F * (w.value[0] - 3.0F);
    opt.step();
  }
  EXPECT_NEAR(w.value[0], 3.0F, 1e-3);
}

TEST(Optimizer, AdamConvergesOnQuadratic) {
  Parameter w(Tensor({1}, 0.0F));
  Adam opt({&w}, 0.1F);
  for (int i = 0; i < 300; ++i) {
    opt.zero_grad();
    w.grad[0] = 2.0F * (w.value[0] - 3.0F);
    opt.step();
  }
  EXPECT_NEAR(w.value[0], 3.0F, 1e-2);
}

class ArchTest : public ::testing::TestWithParam<ArchKind> {};

TEST_P(ArchTest, OutputShapeAndProbabilities) {
  util::Rng rng(9);
  auto model = make_model(GetParam(), ImageShape{3, 16, 16}, 7, rng);
  Tensor x = Tensor::randn({3, 3, 16, 16}, rng, 0.3F);
  Tensor probs = model->predict_proba(x);
  EXPECT_EQ(probs.dim(0), 3u);
  EXPECT_EQ(probs.dim(1), 7u);
  for (std::size_t i = 0; i < probs.size(); ++i) {
    EXPECT_GE(probs[i], 0.0F);
    EXPECT_LE(probs[i], 1.0F);
  }
}

TEST_P(ArchTest, SaveLoadRoundTrip) {
  util::Rng rng(10);
  auto model = make_model(GetParam(), ImageShape{3, 16, 16}, 5, rng);
  auto blob = model->save_parameters();
  util::Rng rng2(999);
  auto other = make_model(GetParam(), ImageShape{3, 16, 16}, 5, rng2);
  other->load_parameters(blob);
  Tensor x = Tensor::randn({2, 3, 16, 16}, rng, 0.3F);
  Tensor a = model->logits(x, false);
  Tensor b = other->logits(x, false);
  // BatchNorm running stats are not serialized, but fresh models share the
  // init defaults, so eval outputs match.
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_FLOAT_EQ(a[i], b[i]);
}

INSTANTIATE_TEST_SUITE_P(
    AllArchitectures, ArchTest,
    ::testing::Values(ArchKind::kResNet18Mini, ArchKind::kMobileNetV2Mini,
                      ArchKind::kMobileViTMini, ArchKind::kSwinMini,
                      ArchKind::kMlp));

TEST(Trainer, LearnsLinearlySeparableTask) {
  util::Rng rng(20);
  LabeledData data;
  data.images = Tensor({80, 3, 8, 8});
  data.labels.resize(80);
  for (std::size_t i = 0; i < 80; ++i) {
    const int cls = static_cast<int>(i % 2);
    data.labels[i] = cls;
    for (std::size_t p = 0; p < 192; ++p) {
      data.images[i * 192 + p] =
          static_cast<float>(0.5 + (cls == 0 ? -0.3 : 0.3) + 0.05 * rng.normal());
    }
  }
  auto model = make_model(ArchKind::kMlp, ImageShape{3, 8, 8}, 2, rng);
  TrainConfig tc;
  tc.epochs = 10;
  auto history = train_classifier(*model, data, tc);
  EXPECT_LT(history.epoch_loss.back(), history.epoch_loss.front());
  EXPECT_GT(evaluate_accuracy(*model, data), 0.95);
}

}  // namespace
}  // namespace bprom::nn
