#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <map>
#include <string>

#include "attacks/attack.hpp"
#include "bench.hpp"
#include "core/experiment.hpp"
#include "data/ops.hpp"
#include "percentile.hpp"

namespace perfbench {

using namespace bprom;

core::BpromConfig pinned_detector_config(std::uint64_t seed) {
  core::ExperimentScale scale;
  scale.shadows_per_side = Pinned::kShadowsPerSide;
  scale.shadow_epochs = Pinned::kShadowEpochs;
  scale.prompt_epochs = 2;
  scale.blackbox_evals = Pinned::kBlackboxEvals;
  scale.query_samples = Pinned::kQuerySamples;
  scale.forest_trees = Pinned::kForestTrees;
  core::BpromConfig config =
      core::default_bprom_config(scale, nn::ArchKind::kResNet18Mini, seed);
  config.prompt_ensemble = Pinned::kPromptEnsemble;
  return config;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  in.source = data::make_dataset(data::DatasetKind::kCifar10,
                                 derive_seed(seed, 1), 600, 1000);
  in.target = data::make_dataset(data::DatasetKind::kStl10,
                                 derive_seed(seed, 2), 300, 200);
  util::Rng rng(derive_seed(seed, 3));
  in.reserved = data::sample_fraction(in.source.test, 0.10, rng);
  const std::size_t prompt_n =
      std::min<std::size_t>(256, in.target.train.size());
  in.target_train = data::subset(
      in.target.train,
      rng.sample_without_replacement(in.target.train.size(), prompt_n));
  return in;
}

std::vector<std::unique_ptr<nn::Model>> Population::clones() const {
  std::vector<std::unique_ptr<nn::Model>> out;
  out.reserve(models.size());
  for (const auto& model : models) out.push_back(model->clone());
  return out;
}

Population make_population(const Inputs& inputs,
                           const std::vector<nn::ArchKind>& archs,
                           std::size_t per_side, std::uint64_t seed) {
  core::ExperimentScale scale;
  scale.suspicious_train = 300;
  scale.suspicious_epochs = 3;
  const auto attack =
      attacks::AttackConfig::defaults(attacks::AttackKind::kBadNets, 0);
  Population population;
  for (std::size_t a = 0; a < archs.size(); ++a) {
    auto trained =
        core::build_population(inputs.source, attack, archs[a], per_side,
                               derive_seed(seed, 100 + a) % 100000, scale);
    for (auto& t : trained) {
      population.models.push_back(std::move(t.model));
      population.archs.push_back(archs[a]);
    }
  }
  return population;
}

bool same_verdict(const core::Verdict& a, const core::Verdict& b) {
  return std::memcmp(&a.score, &b.score, sizeof(double)) == 0 &&
         a.backdoored == b.backdoored &&
         std::memcmp(&a.prompted_accuracy, &b.prompted_accuracy,
                     sizeof(double)) == 0 &&
         a.queries == b.queries && a.budget_exhausted == b.budget_exhausted &&
         a.deadline_exceeded == b.deadline_exceeded;
}

void Outcome::fail(const std::string& message) {
  correct = false;
  ++failed;
  if (errors.size() < 20) errors.push_back(message);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

double trace_overhead(const std::vector<double>& traced_seconds,
                      const std::vector<double>& untraced_seconds) {
  const double untraced = median(untraced_seconds);
  if (traced_seconds.empty() || untraced <= 0.0) return 0.0;
  return median(traced_seconds) / untraced - 1.0;
}

void add_audit_layer_metrics(const std::vector<AuditRecord>& records,
                             SpanRecorder& recorder, Outcome& outcome) {
  // Lay out each traced audit's span tree around the calls already
  // recorded: the audit root [due, done] splits into api.queue_wait and
  // api.request, and the request span — end-anchored at the verdict, with
  // the engine's own length — parents the nn.forward spans.
  struct Tree {
    const AuditRecord* record;
    std::int64_t root;
    std::int64_t wait;
    std::int64_t lag;
  };
  std::vector<Tree> trees;
  for (const AuditRecord& r : records) {
    if (!r.traced) continue;
    const Nanos request_ns = std::llround(r.seconds * 1e9);
    Span root;
    root.name = "audit";
    root.start = r.due;
    root.end = r.done;
    root.request = r.request;
    root.thread = r.thread;
    const std::int64_t root_index = recorder.record(root);
    Span wait = root;
    wait.name = "api.queue_wait";
    wait.end = r.done - request_ns;
    wait.parent = root_index;
    const std::int64_t wait_index = recorder.record(wait);
    Span request = root;
    request.name = "api.request";
    request.start = r.done - request_ns;
    request.parent = root_index;
    recorder.fill(r.request_span, request);
    Span lag = root;
    lag.name = "loadgen.lag";
    lag.end = r.sent;
    lag.parent = wait_index;
    const std::int64_t lag_index = recorder.record(lag);
    trees.push_back({&r, root_index, wait_index, lag_index});
  }

  // Re-read the tree from the recorder so the identities below check the
  // recorded spans and their parent links, not the inputs they came from.
  const std::vector<Span> spans = recorder.spans();
  std::map<std::int64_t, std::vector<Interval>> forwards_of;
  std::map<std::int64_t, std::uint64_t> images_of;
  std::map<std::int64_t, std::size_t> calls_of;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, "nn.forward") != 0) continue;
    forwards_of[s.parent].push_back(s.interval());
    images_of[s.parent] += s.items;
    ++calls_of[s.parent];
  }

  std::vector<double> wait_ms, request_ms, lag_ms, self_ms;
  double busy_total = 0.0;
  double covered_total = 0.0;
  double calls_total = 0.0;
  double images_total = 0.0;
  std::size_t audits = 0;
  for (const Tree& t : trees) {
    const AuditRecord& r = *t.record;
    const Span& root = spans[static_cast<std::size_t>(t.root)];
    const Span& wait = spans[static_cast<std::size_t>(t.wait)];
    const Span& lag = spans[static_cast<std::size_t>(t.lag)];
    const Span& request = spans[static_cast<std::size_t>(r.request_span)];
    const std::string id = "request " + std::to_string(r.request);
    if (wait.duration() + request.duration() != root.duration()) {
      outcome.fail(id + ": api.queue_wait + api.request != latency");
    }
    if (wait.duration() < -1000) {
      outcome.fail(id + ": engine time exceeds the caller's latency");
    }
    wait_ms.push_back(to_ms(wait.duration()));
    request_ms.push_back(to_ms(request.duration()));
    lag_ms.push_back(to_ms(lag.duration()));

    const std::vector<Interval>& forwards = forwards_of[r.request_span];
    for (const Interval& f : forwards) {
      if (f.start < r.sent || f.end > r.done) {
        outcome.fail(id + ": forward span outside the caller's span");
        break;
      }
    }
    const Nanos covered = covered_length(forwards, request.interval());
    const Nanos self = self_time(request.interval(), forwards);
    if (covered + self != request.duration()) {
      outcome.fail(id + ": nn.forward_covered + core.inspect_self != "
                        "api.request");
    }
    if (union_length(forwards) > request.duration() + 1000) {
      outcome.fail(id + ": forward passes cover more than the request");
    }
    if (images_of[r.request_span] != r.queries) {
      outcome.fail(id + ": images through the decorator (" +
                   std::to_string(images_of[r.request_span]) +
                   ") != verdict queries (" + std::to_string(r.queries) +
                   ")");
    }
    Nanos busy = 0;
    for (const Interval& f : forwards) busy += f.end - f.start;
    busy_total += to_ms(busy);
    covered_total += to_ms(covered);
    calls_total += static_cast<double>(calls_of[r.request_span]);
    images_total += static_cast<double>(images_of[r.request_span]);
    self_ms.push_back(to_ms(self));
    ++audits;
  }
  if (audits == 0) {
    outcome.fail("traced run recorded no complete audit");
    return;
  }
  const double n = static_cast<double>(audits);
  outcome.add("api.queue_wait_p50_ms", median(wait_ms), "ms");
  outcome.add("api.request_p50_ms", median(request_ms), "ms");
  outcome.add("core.inspect_self_p50_ms", median(self_ms), "ms");
  outcome.add("nn.forward_busy_ms_per_audit", busy_total / n, "ms");
  outcome.add("nn.forward_covered_ms_per_audit", covered_total / n, "ms");
  outcome.add("nn.forward_parallelism",
              covered_total > 0.0 ? busy_total / covered_total : 0.0,
              "ratio");
  outcome.add("nn.calls_per_audit", calls_total / n, "count");
  outcome.add("nn.images_per_audit", images_total / n, "count");
  outcome.add("loadgen.lag_p90_ms", percentile(lag_ms, 0.9), "ms");
}

}  // namespace perfbench
