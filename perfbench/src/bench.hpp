// Shared pieces of the BPROM benchmark program: run options, the pinned
// detector configuration, seeded inputs, the result being assembled, and
// the per-operation records the traced run turns into per-layer metrics.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "core/bprom.hpp"
#include "data/generator.hpp"
#include "nn/model.hpp"
#include "spans.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for the detector stores (created, not cleaned).
  std::string workdir = ".";
  /// Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string trace_out;
};

/// The detector configuration every workload fits, independent of
/// BPROM_SCALE: 8 shadows per side, 4 shadow epochs, 60 black-box
/// evaluations, q = 8, 60 trees, a prompt ensemble of 2.
struct Pinned {
  static constexpr std::size_t kShadowsPerSide = 8;
  static constexpr std::size_t kShadowEpochs = 4;
  static constexpr std::size_t kBlackboxEvals = 60;
  static constexpr std::size_t kQuerySamples = 8;
  static constexpr std::size_t kForestTrees = 60;
  static constexpr std::size_t kPromptEnsemble = 2;
};

bprom::core::BpromConfig pinned_detector_config(std::uint64_t seed);

/// Name every workload publishes its detector under.
inline constexpr const char* kDetectorName = "bench";

/// splitmix64 step: derives independent sub-seeds from the workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// The datasets one run works on, all generated from the workload seed.
struct Inputs {
  bprom::data::Dataset source;  // the suspicious models' task
  bprom::data::Dataset target;  // D_T, the external clean dataset
  bprom::nn::LabeledData reserved;      // D_S
  bprom::nn::LabeledData target_train;  // D_T train slice
};

Inputs make_inputs(std::uint64_t seed);

/// Clean and backdoored suspicious models of one or more architectures.
struct Population {
  std::vector<std::unique_ptr<bprom::nn::Model>> models;
  std::vector<bprom::nn::ArchKind> archs;

  [[nodiscard]] std::size_t size() const { return models.size(); }
  /// A deep copy of every model (each caller thread queries its own).
  [[nodiscard]] std::vector<std::unique_ptr<bprom::nn::Model>> clones() const;
};

/// `per_side` clean plus `per_side` BadNets-backdoored models per arch.
Population make_population(const Inputs& inputs,
                           const std::vector<bprom::nn::ArchKind>& archs,
                           std::size_t per_side, std::uint64_t seed);

/// Bitwise equality of everything an audit verdict reports.
bool same_verdict(const bprom::core::Verdict& a, const bprom::core::Verdict& b);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result of one run: the correctness gate's tally and the metrics.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;

  /// Count a failed operation (or a failed check) and keep its message.
  void fail(const std::string& message);
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

/// One audit as the caller saw it.  `due` is when the request was due to
/// be sent (when its caller became ready), `sent` when it was handed to the
/// engine, and `done` when the verdict was back.
struct AuditRecord {
  std::size_t model = 0;
  std::uint64_t request = 0;
  Nanos due = 0;
  Nanos sent = 0;
  Nanos done = 0;
  /// AuditResponse::seconds, the engine's own time on the request.
  double seconds = 0.0;
  std::size_t queries = 0;
  /// Thread that issued it.
  std::uint32_t thread = 0;
  /// Its spans were recorded (its model was queried through a recording
  /// TimedBox).
  bool traced = false;
  /// Reserved index of its api.request span (traced records only).
  std::int64_t request_span = -1;
};

/// Per-layer metrics derived from traced audit records and their spans;
/// also records the api.queue_wait / api.request / loadgen.lag spans and
/// checks the additive identities, failing `outcome` on any violation.
void add_audit_layer_metrics(const std::vector<AuditRecord>& records,
                             SpanRecorder& recorder, Outcome& outcome);

/// Inputs of the per-layer probes that time single public functions.
struct ProbeInputs {
  const Inputs* inputs = nullptr;
  bprom::api::AuditEngine* engine = nullptr;
  /// Models the net probes encode, decode and audit over loopback TCP,
  /// with the in-process verdict each must reproduce over the wire against
  /// detector version `wire_version`, `wire_rounds` times each.
  std::vector<bprom::nn::Model*> wire_models;
  std::vector<const bprom::core::Verdict*> wire_golden;
  std::string wire_version;
  std::size_t wire_rounds = 1;
  std::uint64_t seed = 1;
  std::string workdir;
};

void add_probe_metrics(const ProbeInputs& probe, Outcome& outcome);

/// Peak resident set size of this process in MiB (VmHWM).
double peak_rss_mb();

/// Relative change of the median service time of traced operations over
/// untraced ones in the same run (the cost of tracing).
double trace_overhead(const std::vector<double>& traced_seconds,
                      const std::vector<double>& untraced_seconds);

Outcome run_audit_closed(const Options& options, SpanRecorder& recorder);
Outcome run_fit(const Options& options, SpanRecorder& recorder);

}  // namespace perfbench
