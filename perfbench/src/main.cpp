// perfbench — the BPROM benchmark program.
//
//   perfbench --workload <audit_closed|fit> --seed <n>
//             --seconds <s> --trace <0|1> [--workdir <dir>] [--trace-out <f>]
//
// Runs one workload on inputs generated from the seed, checks every output
// against the correctness gate, and prints as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics in
// an untraced run, the per-layer metrics in a traced one.  A line before it
// carries the machine and configuration fingerprint.  Exit status is 0 only
// when every check passed.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <set>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "fingerprint.hpp"

namespace {

using namespace perfbench;

const char* const kEndToEnd[] = {
    "setup_s",           "ops_per_s",        "latency_p50_ms",
    "latency_top25_ms",  "queries_per_audit", "peak_rss_mb",
};

const char* const kPerLayer[] = {
    "api.queue_wait_p50_ms",
    "api.request_p50_ms",
    "core.inspect_self_p50_ms",
    "core.fit_s",
    "nn.forward_busy_ms_per_audit",
    "nn.forward_covered_ms_per_audit",
    "nn.forward_parallelism",
    "nn.forward_us_per_image.resnet18mini",
    "nn.forward_us_per_image.mobilenetv2mini",
    "nn.forward_us_per_image.swinmini",
    "nn.calls_per_audit",
    "nn.images_per_audit",
    "nn.train_shadow_ms",
    "tensor.im2col_ms",
    "tensor.gemm_ms",
    "tensor.gemm_gflops",
    "vp.prompt_apply_us_per_image",
    "opt.spsa_us_per_eval",
    "meta.forest_fit_ms",
    "meta.forest_predict_us",
    "serve.publish_ms",
    "io.detector_bytes",
    "net.encode_request_us",
    "net.decode_request_us",
    "net.request_bytes",
    "net.server_overhead_p50_ms",
    "loadgen.lag_p90_ms",
    "trace.overhead_frac",
};

int usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<audit_closed|fit> --seed <n> --seconds <s> "
               "--trace <0|1> [--workdir <dir>] [--trace-out <file>]\n",
               message);
  return 2;
}

bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::stoull(value);
    } else if (key == "--seconds") {
      options.seconds = std::stod(value);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--workdir") {
      options.workdir = value;
    } else if (key == "--trace-out") {
      options.trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options.workload.empty() && options.seconds > 0.0;
}

std::string fingerprint_json(const Options& options) {
  const Fingerprint fp = machine_fingerprint();
  std::ostringstream out;
  out << "{\"cpu_model\":\"" << json_escape(fp.cpu_model)
      << "\",\"nproc\":" << fp.nproc << ",\"compiler\":\""
      << json_escape(fp.compiler) << "\",\"flags\":\""
      << json_escape(fp.flags) << "\",\"build_type\":\""
      << json_escape(fp.build_type) << "\",\"bprom_threads\":\""
      << json_escape(fp.bprom_threads)
      << "\",\"pool_threads\":" << fp.pool_threads << ",\"workload\":\""
      << json_escape(options.workload) << "\",\"seed\":" << options.seed
      << ",\"seconds\":" << options.seconds
      << ",\"trace\":" << (options.trace ? 1 : 0)
      << ",\"detector\":{\"shadows_per_side\":" << Pinned::kShadowsPerSide
      << ",\"shadow_epochs\":" << Pinned::kShadowEpochs
      << ",\"blackbox_evals\":" << Pinned::kBlackboxEvals
      << ",\"query_samples\":" << Pinned::kQuerySamples
      << ",\"forest_trees\":" << Pinned::kForestTrees
      << ",\"prompt_ensemble\":" << Pinned::kPromptEnsemble << "}}";
  return out.str();
}

/// Fail the outcome unless it carries exactly the expected metric names,
/// each once and each finite.
template <std::size_t N>
void check_metric_names(Outcome& outcome, const char* const (&expected)[N]) {
  std::set<std::string> want(std::begin(expected), std::end(expected));
  std::set<std::string> seen;
  for (const Metric& m : outcome.metrics) {
    if (!want.count(m.name)) outcome.fail("unexpected metric " + m.name);
    if (!seen.insert(m.name).second) outcome.fail("duplicate metric " + m.name);
    if (!std::isfinite(m.value)) outcome.fail("non-finite metric " + m.name);
  }
  for (const std::string& name : want) {
    if (!seen.count(name)) outcome.fail("missing metric " + name);
  }
}

std::string result_json(const Outcome& outcome) {
  std::ostringstream out;
  out << "{\"correct\": " << (outcome.correct ? "true" : "false")
      << ", \"attempted\": " << outcome.attempted
      << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out << (i == 0 ? "" : ", ") << '"' << json_escape(m.name)
        << "\": {\"value\": " << value << ", \"unit\": \""
        << json_escape(m.unit) << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    if (!parse(argc, argv, options)) return usage("bad arguments");
  } catch (const std::exception&) {
    return usage("bad argument value");
  }
  const std::string fingerprint = fingerprint_json(options);
  std::printf("fingerprint %s\n", fingerprint.c_str());
  std::fflush(stdout);

  SpanRecorder recorder;
  Outcome outcome;
  try {
    std::filesystem::create_directories(options.workdir);
    if (options.workload == "audit_closed") {
      outcome = run_audit_closed(options, recorder);
    } else if (options.workload == "fit") {
      outcome = run_fit(options, recorder);
    } else {
      return usage("unknown workload");
    }
  } catch (const std::exception& e) {
    outcome.fail(std::string("exception: ") + e.what());
  }

  if (outcome.correct) {
    if (options.trace) {
      check_metric_names(outcome, kPerLayer);
    } else {
      check_metric_names(outcome, kEndToEnd);
    }
  }
  if (options.trace && !options.trace_out.empty() &&
      !recorder.write_jsonl(options.trace_out, fingerprint)) {
    outcome.fail("cannot write spans to " + options.trace_out);
  }
  for (const std::string& e : outcome.errors) {
    std::fprintf(stderr, "perfbench: FAIL %s\n", e.c_str());
  }
  if (outcome.attempted > 0) {
    std::printf("error_rate %.6f (%llu failed of %llu attempted)\n",
                static_cast<double>(outcome.failed) /
                    static_cast<double>(outcome.attempted),
                static_cast<unsigned long long>(outcome.failed),
                static_cast<unsigned long long>(outcome.attempted));
  }
  std::printf("%s\n", result_json(outcome).c_str());
  return outcome.correct ? 0 : 1;
}
