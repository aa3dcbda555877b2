// The workloads.  Each one sets up from the seed (timed as setup_s),
// runs its measured loop for the requested seconds, checks every output
// against the correctness gate, and fills either the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "core/experiment.hpp"
#include "percentile.hpp"
#include "timed_box.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace bprom;

namespace {

std::string expected_version(std::uint32_t version) {
  return api::versioned_name(kDetectorName, version);
}

/// Thread-safe collector of the failures seen by worker threads.
class Failures {
 public:
  void add(std::string message) {
    std::lock_guard<std::mutex> lock(mu_);
    messages_.push_back(std::move(message));
  }
  void drain_into(Outcome& outcome) {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::string& m : messages_) outcome.fail(m);
    messages_.clear();
  }

 private:
  std::mutex mu_;
  std::vector<std::string> messages_;
};

/// Check one audit response against the gate; returns the failure message
/// or an empty string.
std::string check_audit(const api::AuditResponse& response,
                        const std::string& version,
                        const core::Verdict* golden) {
  if (!response.status.ok()) {
    return response.model_id + ": " + response.status.to_string();
  }
  if (response.detector_version != version) {
    return response.model_id + ": served by " + response.detector_version +
           ", expected " + version;
  }
  if (golden != nullptr && !same_verdict(response.verdict, *golden)) {
    return response.model_id + ": verdict differs from its golden verdict";
  }
  return {};
}

api::AuditRequest audit_request(const nn::BlackBoxModel* box,
                                std::uint64_t request) {
  api::AuditRequest r;
  r.model_id = "req-" + std::to_string(request);
  r.detector = kDetectorName;
  r.model = box;
  return r;
}

/// A TimedBox over a borrowed model; spans go to `recorder` when non-null,
/// under a freshly reserved api.request span whose index lands in `record`.
std::unique_ptr<TimedBox> timed_box(nn::Model& model, nn::ArchKind arch,
                                    SpanRecorder* recorder,
                                    AuditRecord& record) {
  record.traced = recorder != nullptr;
  record.request_span = recorder != nullptr ? recorder->reserve() : -1;
  return std::make_unique<TimedBox>(
      std::make_unique<nn::BlackBoxAdapter>(model), recorder,
      record.request_span, record.request, arch_tag(arch));
}

/// The end-to-end metrics every workload reports from its untraced run.
void add_end_to_end(Outcome& outcome, double setup_s, double ops_per_s,
                    const std::vector<double>& latency_ms,
                    double queries_per_audit) {
  outcome.add("setup_s", setup_s, "s");
  outcome.add("ops_per_s", ops_per_s, "1/s");
  outcome.add("latency_p50_ms", percentile(latency_ms, 0.5), "ms");
  outcome.add("latency_top25_ms", tail_mean(latency_ms, 0.75), "ms");
  std::printf("latency ms: p50 %.1f  p90 %.1f  mean of slowest 25%% %.1f  "
              "(%zu samples)\n",
              percentile(latency_ms, 0.5), percentile(latency_ms, 0.9),
              tail_mean(latency_ms, 0.75), latency_ms.size());
  outcome.add("queries_per_audit", queries_per_audit, "count");
  outcome.add("peak_rss_mb", peak_rss_mb(), "MiB");
}

double mean_queries(const std::vector<AuditRecord>& records) {
  std::vector<double> q;
  for (const AuditRecord& r : records) {
    q.push_back(static_cast<double>(r.queries));
  }
  return mean(q);
}

/// Tracing cost from the engine times of traced and untraced audits.
double audit_trace_overhead(const std::vector<AuditRecord>& records) {
  std::vector<double> on;
  std::vector<double> off;
  for (const AuditRecord& r : records) {
    (r.traced ? on : off).push_back(r.seconds);
  }
  return trace_overhead(on, off);
}

void print_progress(const char* workload, const char* what, double seconds) {
  std::printf("[%s] %s: %.3f s (peak rss %.1f MiB)\n", workload, what, seconds,
              peak_rss_mb());
  std::fflush(stdout);
}

}  // namespace

Outcome run_audit_closed(const Options& options, SpanRecorder& recorder) {
  constexpr std::size_t kCallers = 2;
  Outcome outcome;
  const Nanos setup_start = now_ns();
  Inputs inputs = make_inputs(options.seed);
  Population population =
      make_population(inputs, {nn::ArchKind::kResNet18Mini}, /*per_side=*/3,
                      derive_seed(options.seed, 4));

  core::BpromDetector detector(
      pinned_detector_config(derive_seed(options.seed, 5) % 1000000));
  const Nanos fit_start = now_ns();
  detector.fit(inputs.reserved, inputs.source.profile.classes,
               inputs.target_train, inputs.target.test);
  const double core_fit_s = to_s(now_ns() - fit_start);

  api::EngineConfig config;
  config.store_dir = options.workdir + "/store";
  api::AuditEngine engine(config);
  if (!engine.status().ok()) {
    outcome.fail("engine: " + engine.status().to_string());
    return outcome;
  }
  auto published = engine.publish(kDetectorName, std::move(detector));
  if (!published.ok() || published.value().version != 1) {
    outcome.fail("publish did not create version 1");
    return outcome;
  }

  // One synchronous golden audit per population model.  Single-request
  // batches, like every later audit, so all of them see the same salt.
  const std::size_t n = population.size();
  std::vector<core::Verdict> golden(n);
  Failures failures;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kCallers; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t m = t; m < n; m += kCallers) {
        nn::BlackBoxAdapter box(*population.models[m]);
        const api::AuditResponse response =
            engine.audit({audit_request(&box, 1000000 + m)}).at(0);
        if (std::string e = check_audit(response, expected_version(1), nullptr);
            !e.empty()) {
          failures.add("golden " + e);
        }
        golden[m] = response.verdict;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  failures.drain_into(outcome);
  if (!outcome.correct) return outcome;

  std::vector<std::vector<std::unique_ptr<nn::Model>>> clones;
  for (std::size_t c = 0; c < kCallers; ++c) {
    clones.push_back(population.clones());
  }
  const Nanos start = now_ns();
  const double setup_s = to_s(start - setup_start);
  print_progress("audit_closed", "setup", setup_s);

  // Closed loop: each caller submits one single-request batch through
  // audit_async, waits for the verdict, checks it against the golden verdict
  // of its model, and submits the next until the measured time is over.
  const Nanos deadline = start + std::llround(options.seconds * 1e9);
  std::atomic<std::uint64_t> next_request{1};
  std::vector<std::vector<AuditRecord>> per_caller(kCallers);
  threads.clear();
  for (std::size_t c = 0; c < kCallers; ++c) {
    threads.emplace_back([&, c] {
      // Seeded rotation: the caller walks successive seeded permutations of
      // the population, so every model gets an equal share of its audits.
      util::Rng rotation(derive_seed(options.seed, 200 + c));
      std::vector<std::size_t> order;
      std::size_t next_in_order = 0;
      Nanos ready = start;
      while (ready < deadline) {
        if (next_in_order == order.size()) {
          order = rotation.permutation(n);
          next_in_order = 0;
        }
        AuditRecord rec;
        rec.model = order[next_in_order++];
        rec.request = next_request.fetch_add(1);
        rec.thread = thread_index();
        rec.due = ready;
        // Every other audit of a caller is traced, starting with its first,
        // so the traced run also measures itself untraced.
        SpanRecorder* spans =
            options.trace && per_caller[c].size() % 2 == 0 ? &recorder
                                                           : nullptr;
        auto box = timed_box(*clones[c][rec.model], population.archs[rec.model],
                             spans, rec);
        rec.sent = now_ns();
        auto future =
            engine.audit_async({audit_request(box.get(), rec.request)});
        const api::AuditResponse response = future.get().at(0);
        rec.done = now_ns();
        ready = rec.done;
        if (std::string e = check_audit(response, expected_version(1),
                                        &golden[rec.model]);
            !e.empty()) {
          failures.add(e);
        }
        rec.seconds = response.seconds;
        rec.queries = response.verdict.queries;
        per_caller[c].push_back(rec);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  failures.drain_into(outcome);

  std::vector<AuditRecord> records;
  for (auto& recs : per_caller) {
    records.insert(records.end(), recs.begin(), recs.end());
  }
  outcome.attempted = records.size();
  Nanos last = start;
  std::vector<double> latency_ms;
  for (const AuditRecord& r : records) {
    last = std::max(last, r.done);
    latency_ms.push_back(to_ms(r.done - r.due));
  }
  std::printf("[audit_closed] %zu audits in %.3f s\n", records.size(),
              to_s(last - start));

  if (!options.trace) {
    add_end_to_end(outcome, setup_s,
                   static_cast<double>(records.size()) / to_s(last - start),
                   latency_ms, mean_queries(records));
    return outcome;
  }
  add_audit_layer_metrics(records, recorder, outcome);
  outcome.add("core.fit_s", core_fit_s, "s");
  outcome.add("trace.overhead_frac", audit_trace_overhead(records), "ratio");
  ProbeInputs probe;
  probe.inputs = &inputs;
  probe.engine = &engine;
  for (std::size_t m = 0; m < n; ++m) {
    probe.wire_models.push_back(population.models[m].get());
    probe.wire_golden.push_back(&golden[m]);
  }
  probe.wire_version = expected_version(1);
  probe.wire_rounds = 1;
  probe.seed = options.seed;
  probe.workdir = options.workdir;
  add_probe_metrics(probe, outcome);
  return outcome;
}

Outcome run_fit(const Options& options, SpanRecorder& recorder) {
  constexpr std::size_t kSeedRotation = 3;
  Outcome outcome;
  const Nanos setup_start = now_ns();
  Inputs inputs = make_inputs(options.seed);
  // The canary: one backdoored model audited against every version a fit
  // publishes, so each fit is shown to serve.
  Population canary = make_population(inputs, {nn::ArchKind::kResNet18Mini},
                                      /*per_side=*/1,
                                      derive_seed(options.seed, 4));
  nn::Model& canary_model = *canary.models.back();

  std::vector<std::uint64_t> fit_seeds(kSeedRotation);
  for (std::size_t k = 0; k < kSeedRotation; ++k) {
    fit_seeds[k] = derive_seed(options.seed, 400 + k) % 1000000;
  }

  api::EngineConfig config;
  config.store_dir = options.workdir + "/store";
  api::AuditEngine engine(config);
  if (!engine.status().ok()) {
    outcome.fail("engine: " + engine.status().to_string());
    return outcome;
  }

  api::FitRequest request;
  request.name = kDetectorName;
  request.source_classes = inputs.source.profile.classes;
  request.reserved_clean = &inputs.reserved;
  request.target_train = &inputs.target_train;
  request.target_test = &inputs.target.test;

  // Warm-up: the first fit, made through BpromDetector::fit directly so
  // its fit alone is timed (core.fit_s), then published as version 1.
  core::BpromDetector warm(pinned_detector_config(fit_seeds[0]));
  const Nanos fit_start = now_ns();
  warm.fit(inputs.reserved, request.source_classes, inputs.target_train,
           inputs.target.test);
  const double core_fit_s = to_s(now_ns() - fit_start);
  auto published = engine.publish(kDetectorName, std::move(warm));
  if (!published.ok() || published.value().version != 1) {
    outcome.fail("warm-up publish did not create version 1");
    return outcome;
  }

  // Golden canary verdict per fit seed: the first fit with a seed sets it
  // and every later fit with the same seed must reproduce it bit for bit.
  std::map<std::uint64_t, core::Verdict> golden;
  std::uint64_t next_request = 1;
  const auto canary_audit = [&](std::uint32_t version, std::uint64_t seed,
                                SpanRecorder* spans, Nanos due) {
    AuditRecord rec;
    rec.request = next_request++;
    rec.thread = thread_index();
    rec.due = due;
    auto box = timed_box(canary_model, nn::ArchKind::kResNet18Mini, spans, rec);
    rec.sent = now_ns();
    auto responses = engine.audit({audit_request(box.get(), rec.request)});
    rec.done = now_ns();
    const api::AuditResponse& response = responses.at(0);
    const auto it = golden.find(seed);
    if (std::string e = check_audit(response, expected_version(version),
                                    it == golden.end() ? nullptr : &it->second);
        !e.empty()) {
      outcome.fail("canary " + e);
    } else if (it == golden.end()) {
      golden.emplace(seed, response.verdict);
    }
    rec.seconds = response.seconds;
    rec.queries = response.verdict.queries;
    return rec;
  };
  canary_audit(1, fit_seeds[0], nullptr, now_ns());
  if (!outcome.correct) return outcome;

  const Nanos start = now_ns();
  const double setup_s = to_s(start - setup_start);
  print_progress("fit", "setup", setup_s);

  // Sequential fits, each publishing the next version of one name, each
  // followed by the canary audit against the version it published.
  const Nanos deadline = start + std::llround(options.seconds * 1e9);
  std::vector<AuditRecord> canaries;
  std::vector<double> fit_ms;
  std::vector<double> traced_fit_s;
  std::vector<double> untraced_fit_s;
  std::uint32_t version = 1;
  std::uint64_t last_seed = fit_seeds[0];
  Nanos ready = start;
  Nanos last = start;
  for (std::size_t k = 1; ready < deadline; ++k) {
    const std::uint64_t seed = fit_seeds[k % kSeedRotation];
    last_seed = seed;
    // Every other fit is traced, starting with the first.
    const bool traced = options.trace && k % 2 == 1;
    request.config = pinned_detector_config(seed);
    ++outcome.attempted;
    const Nanos sent = now_ns();
    auto fitted = engine.fit(request);
    const Nanos done = now_ns();
    last = done;
    if (!fitted.ok()) {
      outcome.fail("fit " + std::to_string(k) + ": " +
                   fitted.status().to_string());
      break;
    }
    if (fitted.value().version != version + 1) {
      outcome.fail("fit " + std::to_string(k) + " published version " +
                   std::to_string(fitted.value().version) + ", expected " +
                   std::to_string(version + 1));
      break;
    }
    ++version;
    fit_ms.push_back(to_ms(done - sent));
    (traced ? traced_fit_s : untraced_fit_s).push_back(to_s(done - sent));
    canaries.push_back(
        canary_audit(version, seed, traced ? &recorder : nullptr, done));
    ready = now_ns();
  }
  print_progress("fit", "measured", to_s(ready - start));
  std::printf("[fit] %zu fits\n", fit_ms.size());

  if (!options.trace) {
    add_end_to_end(outcome, setup_s,
                   static_cast<double>(fit_ms.size()) / to_s(last - start),
                   fit_ms, mean_queries(canaries));
    return outcome;
  }
  add_audit_layer_metrics(canaries, recorder, outcome);
  outcome.add("core.fit_s", core_fit_s, "s");
  outcome.add("trace.overhead_frac",
              trace_overhead(traced_fit_s, untraced_fit_s), "ratio");
  ProbeInputs probe;
  probe.inputs = &inputs;
  probe.engine = &engine;
  probe.wire_models.push_back(&canary_model);
  probe.wire_golden.push_back(&golden.at(last_seed));
  probe.wire_version = expected_version(version);
  probe.wire_rounds = 3;
  probe.seed = options.seed;
  probe.workdir = options.workdir;
  add_probe_metrics(probe, outcome);
  return outcome;
}

}  // namespace perfbench
