// Unit tests of the benchmark's own measuring parts: the nearest-rank
// percentile, the span recorder's interval arithmetic, and the timing
// decorator's transparency (verdicts and query counts unchanged).
//
//   ctest --test-dir .bench_build        (after building perfbench/)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "bench.hpp"
#include "core/experiment.hpp"
#include "data/ops.hpp"
#include "percentile.hpp"
#include "spans.hpp"
#include "timed_box.hpp"
#include "util/rng.hpp"

namespace {

using namespace perfbench;

int failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,    \
                   __LINE__, #cond);                                 \
      ++failures;                                                    \
    }                                                                \
  } while (0)

void test_percentile_matches_exact_sort() {
  bprom::util::Rng rng(11);
  const int percents[] = {1, 10, 25, 50, 75, 90, 95, 99, 100};
  for (std::size_t n = 1; n <= 10; ++n) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<double> values(n);
      for (double& v : values) v = std::floor(rng.uniform(0.0, 50.0));
      std::vector<double> sorted = values;
      std::sort(sorted.begin(), sorted.end());
      for (int p : percents) {
        // Exact nearest rank in integers: the smallest k with k/n >= p/100.
        const std::size_t rank =
            std::max<std::size_t>(1, (static_cast<std::size_t>(p) * n + 99) / 100);
        CHECK(nearest_rank(p / 100.0, n) == rank);
        CHECK(percentile(values, p / 100.0) == sorted[rank - 1]);
      }
      CHECK(percentile(values, 0.9) <= sorted.back());
      CHECK(percentile(values, 0.5) == median(values));
    }
  }
  // Products that are integers in exact arithmetic must not round up a rank.
  CHECK(nearest_rank(0.9, 30) == 27);
  CHECK(nearest_rank(0.9, 100) == 90);
  CHECK(nearest_rank(0.7, 10) == 7);
  CHECK(percentile({}, 0.5) == 0.0);
}

void test_tail_mean() {
  std::vector<double> values;
  for (int i = 1; i <= 20; ++i) values.push_back(i);
  CHECK(tail_mean(values, 0.9) == (19.0 + 20.0) / 2.0);  // slowest 2 of 20
  values.push_back(0.0);  // 21 samples: ceil(2.1) = 3 slowest
  CHECK(tail_mean(values, 0.9) == (18.0 + 19.0 + 20.0) / 3.0);
  CHECK(tail_mean({4.0, 1.0, 3.0}, 0.9) == 4.0);  // at least the maximum
  CHECK(tail_mean({2.0, 6.0}, 0.0) == 4.0);       // q = 0: every sample
  CHECK(tail_mean({}, 0.9) == 0.0);
}

void test_interval_arithmetic() {
  // Overlapping, nested, touching and empty intervals.
  CHECK(union_length({{0, 10}, {5, 15}, {20, 30}}) == 25);
  CHECK(union_length({{0, 100}, {10, 20}, {30, 40}}) == 100);
  CHECK(union_length({{0, 10}, {10, 20}}) == 20);
  CHECK(union_length({{5, 5}, {7, 3}}) == 0);
  CHECK(union_length({{20, 30}, {0, 10}, {5, 25}}) == 30);
  CHECK(union_length({}) == 0);

  // Clipping to a window, and self time as its complement.
  const Interval parent{10, 50};
  const std::vector<Interval> children = {
      {0, 15}, {12, 20}, {30, 40}, {35, 60}, {70, 80}};
  CHECK(covered_length(children, parent) == 10 + 20);
  CHECK(self_time(parent, children) == 40 - 30);
  CHECK(self_time(parent, children) + covered_length(children, parent) ==
        parent.end - parent.start);
  CHECK(self_time(parent, {}) == 40);
  CHECK(self_time(parent, {{0, 100}}) == 0);
}

void test_recorder() {
  SpanRecorder recorder;
  const std::int64_t reserved = recorder.reserve();
  Span child;
  child.name = "nn.forward";
  child.start = 20;
  child.end = 30;
  child.parent = reserved;
  child.items = 48;
  CHECK(recorder.record(child) == reserved + 1);
  Span parent;
  parent.name = "api.request";
  parent.start = 10;
  parent.end = 40;
  recorder.fill(reserved, parent);
  const std::vector<Span> spans = recorder.spans();
  CHECK(spans.size() == 2);
  CHECK(std::string(spans[0].name) == "api.request");
  CHECK(spans[1].parent == 0);
  CHECK(self_time(spans[0].interval(), {spans[1].interval()}) == 20);

  const std::string path =
      (std::filesystem::current_path() / "perfbench_spans.jsonl")
          .string();
  CHECK(recorder.write_jsonl(path, "{\"header\":1}"));
  std::ifstream in(path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) ++lines;
  CHECK(lines == 3);
  std::filesystem::remove(path);
}

/// Audits through TimedBox must be bit-identical to undecorated audits,
/// with exact query accounting across the replicas inspect() fans out to.
void test_decorator_is_transparent() {
  using namespace bprom;
  auto source = data::make_dataset(data::DatasetKind::kCifar10, 3, 200, 200);
  auto target = data::make_dataset(data::DatasetKind::kStl10, 4, 120, 60);
  core::ExperimentScale scale;
  scale.suspicious_train = 120;
  scale.suspicious_epochs = 1;
  scale.shadows_per_side = 1;
  scale.shadow_epochs = 1;
  scale.prompt_epochs = 1;
  scale.blackbox_evals = 12;
  scale.query_samples = 4;
  scale.forest_trees = 5;
  core::BpromDetector detector = core::fit_detector(
      source, target, 0.2, nn::ArchKind::kResNet18Mini, 5, scale);
  CHECK(detector.config().prompt_ensemble > 1);  // replicas are exercised

  const auto attack =
      attacks::AttackConfig::defaults(attacks::AttackKind::kBadNets, 0);
  auto population = core::build_population(
      source, attack, nn::ArchKind::kResNet18Mini, 1, 9, scale);

  const std::string store =
      (std::filesystem::current_path() / "perfbench_test_store")
          .string();
  std::filesystem::remove_all(store);
  api::AuditEngine engine({.store_dir = store});
  CHECK(engine.publish("t", detector).ok());

  for (std::size_t i = 0; i < population.size(); ++i) {
    nn::Model& model = *population[i].model;
    nn::BlackBoxAdapter plain(model);
    SpanRecorder recorder;
    TimedBox timed(std::make_unique<nn::BlackBoxAdapter>(model), &recorder, 7,
                   42, arch_tag(nn::ArchKind::kResNet18Mini));

    const core::Verdict direct_plain = detector.inspect(plain);
    const core::Verdict direct_timed = detector.inspect(timed);
    CHECK(same_verdict(direct_plain, direct_timed));
    CHECK(direct_plain.queries > 0);
    CHECK(timed.query_count() == plain.query_count());

    std::uint64_t images = 0;
    for (const Span& s : recorder.spans()) {
      CHECK(s.parent == 7 && s.request == 42);
      CHECK(s.end >= s.start);
      images += s.items;
    }
    CHECK(images == direct_timed.queries);

    auto replica = timed.replicate();
    CHECK(dynamic_cast<TimedBox*>(replica.get()) != nullptr);
    CHECK(replica->query_count() == 0);

    api::AuditRequest request;
    request.detector = "t";
    request.model = &plain;
    const api::AuditResponse via_plain = engine.audit({request}).at(0);
    request.model = &timed;
    const api::AuditResponse via_timed = engine.audit({request}).at(0);
    CHECK(via_plain.status.ok() && via_timed.status.ok());
    CHECK(same_verdict(via_plain.verdict, via_timed.verdict));

    // Without a recorder the decorator only forwards.
    TimedBox silent(std::make_unique<nn::BlackBoxAdapter>(model), nullptr, -1,
                    0, "resnet18mini");
    CHECK(same_verdict(detector.inspect(silent), direct_plain));
  }
  std::filesystem::remove_all(store);
}

}  // namespace

int main() {
  test_percentile_matches_exact_sort();
  test_tail_mean();
  test_interval_arithmetic();
  test_recorder();
  test_decorator_is_transparent();
  if (failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_test: all checks passed\n");
  return 0;
}
