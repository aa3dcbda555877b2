// Meta-classifier tests: CART tree and random forest.
#include <gtest/gtest.h>
#include "meta/random_forest.hpp"
#include "util/rng.hpp"
namespace bprom::meta {
namespace {

struct Toy {
  std::vector<std::vector<float>> x;
  std::vector<int> y;
};

Toy separable(std::size_t n, util::Rng& rng) {
  Toy t;
  for (std::size_t i = 0; i < n; ++i) {
    const int label = static_cast<int>(i % 2);
    t.x.push_back({static_cast<float>(rng.normal(label == 0 ? -1.0 : 1.0, 0.3)),
                   static_cast<float>(rng.normal(0.0, 1.0))});
    t.y.push_back(label);
  }
  return t;
}

Toy xor_data(std::size_t n, util::Rng& rng) {
  Toy t;
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.bernoulli(0.5) ? 1.0 : -1.0;
    const double b = rng.bernoulli(0.5) ? 1.0 : -1.0;
    t.x.push_back({static_cast<float>(a + rng.normal(0, 0.1)),
                   static_cast<float>(b + rng.normal(0, 0.1))});
    t.y.push_back(a * b > 0 ? 1 : 0);
  }
  return t;
}

TEST(DecisionTree, FitsSeparableData) {
  util::Rng rng(1);
  auto data = separable(200, rng);
  DecisionTree tree;
  std::vector<std::size_t> idx(data.x.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  TreeConfig cfg;
  cfg.feature_subsample = 2;
  tree.fit(data.x, data.y, idx, cfg, rng);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < data.x.size(); ++i) {
    correct += (tree.predict_proba(data.x[i]) >= 0.5) == (data.y[i] == 1);
  }
  EXPECT_GT(correct, 190u);
}

TEST(RandomForest, SolvesXor) {
  util::Rng rng(2);
  auto data = xor_data(300, rng);
  ForestConfig cfg;
  cfg.trees = 50;
  RandomForest forest(cfg);
  forest.fit(data.x, data.y);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < data.x.size(); ++i) {
    correct += forest.predict(data.x[i]) == data.y[i];
  }
  EXPECT_GT(static_cast<double>(correct) / data.x.size(), 0.95);
}

TEST(RandomForest, ProbabilitiesInRange) {
  util::Rng rng(3);
  auto data = separable(100, rng);
  RandomForest forest;
  forest.fit(data.x, data.y);
  for (const auto& x : data.x) {
    const double p = forest.predict_proba(x);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(RandomForest, DeterministicForSeed) {
  util::Rng rng(4);
  auto data = separable(100, rng);
  ForestConfig cfg;
  cfg.trees = 20;
  cfg.seed = 7;
  RandomForest a(cfg);
  a.fit(data.x, data.y);
  RandomForest b(cfg);
  b.fit(data.x, data.y);
  EXPECT_DOUBLE_EQ(a.predict_proba(data.x[0]), b.predict_proba(data.x[0]));
}

}  // namespace
}  // namespace bprom::meta
