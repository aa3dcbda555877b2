// Blocked GEMM kernel tests: bitwise agreement with the reference over
// edge-tile shapes and every transpose/accumulate variant, double-precision
// sanity on K spans beyond one KC panel, and bitwise thread-count
// invariance under ScopedPoolOverride pools — each on both kernel widths
// (SSE2 and, where the CPU has it, AVX2).
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "tensor/gemm.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace bprom::tensor {
namespace {

std::vector<float> randn(std::size_t count, util::Rng& rng) {
  std::vector<float> v(count);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

constexpr std::size_t kNrSse2 = gemm_nr<float>(KernelIsa::kSse2);
constexpr std::size_t kNrAvx2 = gemm_nr<float>(KernelIsa::kAvx2);

// Shapes that straddle every tile boundary of both widths: scalar,
// sub-tile, MR-1/MR/MR+1, NR-1/NR/NR+1 for NR = 8 and 16, and one spilling
// past the MC/NC macro-tile edges.
const std::size_t kEdgeSizes[] = {1,           3,           kGemmMr - 1,
                                  kGemmMr,     kGemmMr + 1, kNrSse2 - 1,
                                  kNrSse2,     kNrSse2 + 1, kNrAvx2 - 1,
                                  kNrAvx2,     kNrAvx2 + 1, kGemmMc + 5};

// Each case below runs on the kernel width named by the parameter, through
// detail::gemm; the AVX2 instantiation is skipped on a CPU without AVX2.
class GemmWidth : public ::testing::TestWithParam<KernelIsa> {
 protected:
  void SetUp() override {
    if (GetParam() == KernelIsa::kAvx2 && kernel_isa() != KernelIsa::kAvx2) {
      GTEST_SKIP() << "CPU lacks AVX2";
    }
  }
};

TEST_P(GemmWidth, MatchesReferenceBitwiseOverEdgeTileShapes) {
  util::Rng rng(17);
  for (const std::size_t m : kEdgeSizes) {
    for (const std::size_t n : kEdgeSizes) {
      for (const std::size_t k : kEdgeSizes) {
        for (const Trans ta : {Trans::kNo, Trans::kYes}) {
          for (const Trans tb : {Trans::kNo, Trans::kYes}) {
            const std::size_t lda = ta == Trans::kNo ? k : m;
            const std::size_t ldb = tb == Trans::kNo ? n : k;
            const auto a = randn(m * k, rng);
            const auto b = randn(k * n, rng);
            std::vector<float> c(m * n);
            std::vector<float> want(m * n);
            detail::gemm(GetParam(), ta, tb, m, n, k, a.data(), lda, b.data(),
                         ldb, c.data(), n, /*accumulate=*/false);
            gemm_reference(ta, tb, m, n, k, a.data(), lda, b.data(), ldb,
                           want.data(), n, /*accumulate=*/false);
            ASSERT_EQ(c, want) << "m=" << m << " n=" << n << " k=" << k
                               << " ta=" << (ta == Trans::kYes)
                               << " tb=" << (tb == Trans::kYes);
          }
        }
      }
    }
  }
}

TEST_P(GemmWidth, AccumulateVariantFoldsOntoExistingC) {
  util::Rng rng(23);
  const std::size_t m = kGemmMr + 2;
  const std::size_t n = kNrAvx2 + 3;
  const std::size_t k = 29;
  const auto a = randn(m * k, rng);
  const auto b = randn(k * n, rng);
  const auto seed = randn(m * n, rng);
  std::vector<float> c = seed;
  std::vector<float> want = seed;
  detail::gemm(GetParam(), Trans::kNo, Trans::kNo, m, n, k, a.data(), k,
               b.data(), n, c.data(), n, /*accumulate=*/true);
  gemm_reference(Trans::kNo, Trans::kNo, m, n, k, a.data(), k, b.data(), n,
                 want.data(), n, /*accumulate=*/true);
  EXPECT_EQ(c, want);
  // And the non-accumulating call overwrites the seeded garbage entirely.
  std::vector<float> fresh(m * n, 0.0F);
  gemm_reference(Trans::kNo, Trans::kNo, m, n, k, a.data(), k, b.data(), n,
                 fresh.data(), n, /*accumulate=*/false);
  detail::gemm(GetParam(), Trans::kNo, Trans::kNo, m, n, k, a.data(), k,
               b.data(), n, c.data(), n, /*accumulate=*/false);
  EXPECT_EQ(c, fresh);
}

TEST_P(GemmWidth, MultiPanelKMatchesReferenceBitwise) {
  // K > kGemmKc exercises the per-panel fold into C; the reference replays
  // the same panel grouping, so agreement stays bitwise.
  util::Rng rng(29);
  const std::size_t m = 7;
  const std::size_t n = 19;
  const std::size_t k = kGemmKc + kGemmKc / 2;
  const auto a = randn(m * k, rng);
  const auto b = randn(k * n, rng);
  std::vector<float> c(m * n);
  std::vector<float> want(m * n);
  detail::gemm(GetParam(), Trans::kNo, Trans::kNo, m, n, k, a.data(), k,
               b.data(), n, c.data(), n, false);
  gemm_reference(Trans::kNo, Trans::kNo, m, n, k, a.data(), k, b.data(), n,
                 want.data(), n, false);
  EXPECT_EQ(c, want);
}

TEST_P(GemmWidth, DoubleKernelMatchesReferenceBitwise) {
  util::Rng rng(31);
  const std::size_t m = kGemmMr + 1;
  const std::size_t n = gemm_nr<double>(GetParam()) + 1;
  const std::size_t k = 43;
  std::vector<double> a(m * k);
  std::vector<double> b(k * n);
  for (auto& x : a) x = rng.normal();
  for (auto& x : b) x = rng.normal();
  for (const Trans ta : {Trans::kNo, Trans::kYes}) {
    for (const Trans tb : {Trans::kNo, Trans::kYes}) {
      const std::size_t lda = ta == Trans::kNo ? k : m;
      const std::size_t ldb = tb == Trans::kNo ? n : k;
      std::vector<double> c(m * n);
      std::vector<double> want(m * n);
      detail::gemm(GetParam(), ta, tb, m, n, k, a.data(), lda, b.data(), ldb,
                   c.data(), n, false);
      gemm_reference(ta, tb, m, n, k, a.data(), lda, b.data(), ldb,
                     want.data(), n, false);
      ASSERT_EQ(c, want) << "ta=" << (ta == Trans::kYes)
                         << " tb=" << (tb == Trans::kYes);
    }
  }
}

TEST(Gemm, ZeroKZeroesOrPreservesC) {
  std::vector<float> c = {1.0F, 2.0F, 3.0F, 4.0F};
  gemm(Trans::kNo, Trans::kNo, 2, 2, 0, nullptr, 1, nullptr, 2, c.data(), 2,
       /*accumulate=*/true);
  EXPECT_EQ(c, (std::vector<float>{1.0F, 2.0F, 3.0F, 4.0F}));
  gemm(Trans::kNo, Trans::kNo, 2, 2, 0, nullptr, 1, nullptr, 2, c.data(), 2,
       /*accumulate=*/false);
  EXPECT_EQ(c, (std::vector<float>{0.0F, 0.0F, 0.0F, 0.0F}));
}

TEST_P(GemmWidth, BitIdenticalAcrossThreadCounts) {
  // Large enough that the macro-tile grid actually fans out over the pool
  // (several row and column tiles, multi-panel K).
  util::Rng rng(37);
  const std::size_t m = 2 * kGemmMc + 7;
  const std::size_t n = kGemmNc + 11;
  const std::size_t k = kGemmKc + 33;
  const auto a = randn(m * k, rng);
  const auto b = randn(k * n, rng);

  std::vector<std::vector<float>> runs;
  for (const std::size_t threads : {1UL, 2UL, 8UL}) {
    util::ThreadPool pool(threads);
    util::ScopedPoolOverride overridden(pool);
    std::vector<float> c(m * n);
    detail::gemm(GetParam(), Trans::kNo, Trans::kYes, m, n, k, a.data(), k,
                 b.data(), k, c.data(), n, /*accumulate=*/false);
    runs.push_back(std::move(c));
  }
  EXPECT_EQ(runs[0], runs[1]) << "1 vs 2 threads";
  EXPECT_EQ(runs[0], runs[2]) << "1 vs 8 threads";

  // The parallel tile walk also matches the single-thread reference.
  std::vector<float> want(m * n);
  gemm_reference(Trans::kNo, Trans::kYes, m, n, k, a.data(), k, b.data(), k,
                 want.data(), n, false);
  EXPECT_EQ(runs[0], want);
}

TEST(Gemm, PublicEntryRunsTheDetectedKernel) {
  util::Rng rng(41);
  const std::size_t m = 13;
  const std::size_t n = 2 * kNrAvx2 + 5;
  const std::size_t k = 37;
  const auto a = randn(m * k, rng);
  const auto b = randn(k * n, rng);
  std::vector<float> c(m * n);
  std::vector<float> want(m * n);
  gemm(Trans::kNo, Trans::kNo, m, n, k, a.data(), k, b.data(), n, c.data(),
       n, false);
  detail::gemm(kernel_isa(), Trans::kNo, Trans::kNo, m, n, k, a.data(), k,
               b.data(), n, want.data(), n, false);
  EXPECT_EQ(c, want);
}

INSTANTIATE_TEST_SUITE_P(BothWidths, GemmWidth,
                         ::testing::Values(KernelIsa::kSse2, KernelIsa::kAvx2),
                         [](const ::testing::TestParamInfo<KernelIsa>& info) {
                           return std::string(kernel_isa_name(info.param));
                         });

}  // namespace
}  // namespace bprom::tensor
