// Serving-path load bench: drives N concurrent async batches through
// api::AuditEngine's MPMC ring and reports tail latency.  Emits
// BENCH_serve.json with end-to-end throughput, per-request p50/p95/p99, and
// the engine profiler's per-stage counters (resolve / inspect / request /
// queue_wait / queue_depth / batch) — the SLO telemetry of the audit
// service, tracked per PR like the table benches track accuracy.
//
// `--socket` switches to the network front end: N concurrent client
// connections pipeline audit bursts at a net::Server whose admission layer
// is deliberately undersized, so the bench measures BOTH halves of the
// overload contract — admitted requests complete with real verdicts, excess
// requests bounce as typed kBudgetExhausted rejections — and emits
// BENCH_net.json (throughput, p50/p95/p99, per-cause rejection counts).
// The bench exits nonzero if any rejection is untyped or no rejection
// happens at all (then it measured nothing).
//
// The detector is fitted at micro scale on synthetic data: this bench
// measures the serving internals (ring hand-off, queueing, per-request
// overhead), not inspection quality, so the fit only needs to be real
// enough to exercise the full inspect path.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/engine.hpp"
#include "common.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "nn/blackbox.hpp"
#include "util/env.hpp"

namespace {

using namespace bprom;

core::ExperimentScale micro_scale() {
  core::ExperimentScale s;
  s.suspicious_train = 120;
  s.suspicious_epochs = 2;
  s.population_per_side = 1;
  s.shadows_per_side = 2;
  s.shadow_epochs = 2;
  s.prompt_epochs = 1;
  s.blackbox_evals = 40;
  s.query_samples = 4;
  s.forest_trees = 20;
  return s;
}

/// Nearest-rank percentile of an ascending vector: its ceil(p·n)-th
/// smallest element.  The tolerance keeps a product that is mathematically
/// an integer but lands a hair above it in floating point on its rank.
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(sorted.size()) - 1e-9));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

void write_report(std::size_t batches, std::size_t batch_size,
                  double wall_seconds, double throughput,
                  const std::vector<double>& sorted_ms,
                  const api::EngineStats& stats) {
  bench::write_bench_json("serve", [&](std::ostream& out) {
    out << "{\n  \"bench\": \"serve\",\n"
        << "  \"threads\": " << util::default_pool().size() << ",\n"
        << "  \"batches\": " << batches << ",\n"
        << "  \"batch_size\": " << batch_size << ",\n"
        << "  \"requests\": " << batches * batch_size << ",\n"
        << "  \"wall_seconds\": " << wall_seconds << ",\n"
        << "  \"throughput_rps\": " << throughput << ",\n"
        << "  \"latency_ms\": {\"p50\": " << percentile(sorted_ms, 0.50)
        << ", \"p95\": " << percentile(sorted_ms, 0.95)
        << ", \"p99\": " << percentile(sorted_ms, 0.99) << "},\n"
        << "  \"stages\": [";
    for (std::size_t s = 0; s < util::kProfileStages; ++s) {
      const auto stage = static_cast<util::ProfileStage>(s);
      const util::ProfileStageStats& st = stats.profile[stage];
      out << (s == 0 ? "" : ",") << "\n    {\"stage\": \""
          << util::profile_stage_name(stage) << "\", \"count\": "
          << st.count << ", \"avg\": " << st.avg() << ", \"min\": "
          << st.min << ", \"max\": " << st.max << ", \"p50\": " << st.p50
          << ", \"p95\": " << st.p95 << ", \"p99\": " << st.p99 << "}";
    }
    out << "\n  ]\n}\n";
  });
}

/// --socket mode: concurrent connections against the epoll front end.
int run_socket_mode(api::AuditEngine& engine,
                    const core::TrainedSuspicious& suspicious,
                    util::Stopwatch& total) {
  const std::size_t clients = util::by_scale<std::size_t>(3, 6, 12);
  const std::size_t rounds = util::by_scale<std::size_t>(2, 3, 4);
  const std::size_t burst = 3;  // pipelined audits per round per client

  // Undersized on purpose: one in-flight audit per connection means every
  // pipelined burst offers `burst` requests and the admission layer must
  // reject `burst - 1` of them typed while the first one completes.
  net::ServerConfig server_config;
  server_config.io_threads = 2;
  server_config.admission.max_in_flight_per_connection = 1;
  net::Server server(engine, server_config);
  if (!server.start().ok()) {
    std::fprintf(stderr, "server start failed\n");
    return 1;
  }

  // Serialization walks mutable layer state, so each client thread uploads
  // its own clone of the suspicious model.
  std::vector<std::unique_ptr<nn::Model>> models;
  models.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    models.push_back(suspicious.model->clone());
  }

  struct ClientTally {
    std::vector<double> latency_ms;  // server-reported seconds, ok only
    std::size_t completed = 0;
    std::size_t rejected = 0;
    std::size_t failed = 0;  // anything that was not ok/kBudgetExhausted
  };
  std::vector<ClientTally> tallies(clients);

  util::Stopwatch wall;
  {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        ClientTally& tally = tallies[c];
        auto client = net::Client::connect({.port = server.port()});
        if (!client.ok()) {
          tally.failed += rounds * burst;
          return;
        }
        for (std::size_t r = 0; r < rounds; ++r) {
          std::vector<net::ClientAuditRequest> requests(burst);
          for (std::size_t i = 0; i < burst; ++i) {
            // Built by appending to a new string, not `"c" + std::string`
            // or assigning "c": gcc 12 inlines either into a false
            // -Wrestrict.
            std::string id = "c";
            id += std::to_string(c) + "_r" + std::to_string(r) + "_" +
                  std::to_string(i);
            requests[i].model_id = std::move(id);
            requests[i].detector = "aud";
            requests[i].model = models[c].get();
          }
          auto responses = client.value().audit_batch(requests);
          if (!responses.ok()) {
            tally.failed += burst;
            continue;
          }
          for (const api::AuditResponse& response : responses.value()) {
            if (response.status.ok()) {
              ++tally.completed;
              tally.latency_ms.push_back(response.seconds * 1e3);
            } else if (response.status.code() ==
                       api::StatusCode::kBudgetExhausted) {
              ++tally.rejected;  // the typed overload rejection under test
            } else {
              ++tally.failed;
            }
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  const double wall_seconds = wall.seconds();
  bench::print_elapsed(total, "socket load");

  std::vector<double> latency_ms;
  std::size_t completed = 0;
  std::size_t rejected = 0;
  std::size_t failed = 0;
  for (const ClientTally& tally : tallies) {
    latency_ms.insert(latency_ms.end(), tally.latency_ms.begin(),
                      tally.latency_ms.end());
    completed += tally.completed;
    rejected += tally.rejected;
    failed += tally.failed;
  }
  std::sort(latency_ms.begin(), latency_ms.end());
  const double throughput = static_cast<double>(completed) / wall_seconds;

  // Pull the server's own view over the wire — the stats frame is part of
  // what this bench exercises.
  net::ServerCounters counters;
  if (auto probe = net::Client::connect({.port = server.port()});
      probe.ok()) {
    if (auto stats = probe.value().stats(); stats.ok()) {
      counters = stats.value().server;
    }
  }
  server.stop();

  const std::size_t offered = clients * rounds * burst;
  std::printf("%zu clients x %zu rounds x %zu pipelined in %.2fs\n", clients,
              rounds, burst, wall_seconds);
  std::printf(
      "offered %zu: completed %zu (%.1f req/s), rejected typed %zu, "
      "failed %zu\n",
      offered, completed, throughput, rejected, failed);
  std::printf("ok-request latency ms: p50 %.1f  p95 %.1f  p99 %.1f\n",
              percentile(latency_ms, 0.50), percentile(latency_ms, 0.95),
              percentile(latency_ms, 0.99));

  bench::write_bench_json("net", [&](std::ostream& out) {
    out << "{\n  \"bench\": \"net\",\n"
        << "  \"threads\": " << util::default_pool().size() << ",\n"
        << "  \"clients\": " << clients << ",\n"
        << "  \"rounds\": " << rounds << ",\n"
        << "  \"burst\": " << burst << ",\n"
        << "  \"offered\": " << offered << ",\n"
        << "  \"completed\": " << completed << ",\n"
        << "  \"failed\": " << failed << ",\n"
        << "  \"wall_seconds\": " << wall_seconds << ",\n"
        << "  \"throughput_rps\": " << throughput << ",\n"
        << "  \"latency_ms\": {\"p50\": " << percentile(latency_ms, 0.50)
        << ", \"p95\": " << percentile(latency_ms, 0.95)
        << ", \"p99\": " << percentile(latency_ms, 0.99) << "},\n"
        << "  \"rejected\": {\"client_observed\": " << rejected
        << ", \"in_flight\": " << counters.rejected_in_flight
        << ", \"total_in_flight\": " << counters.rejected_total_in_flight
        << ", \"request_budget\": " << counters.rejected_request_budget
        << ", \"byte_budget\": " << counters.rejected_byte_budget
        << ", \"protocol\": " << counters.rejected_protocol << "},\n"
        << "  \"connections_accepted\": " << counters.connections_accepted
        << ",\n"
        << "  \"bytes_received\": " << counters.bytes_received << ",\n"
        << "  \"bytes_sent\": " << counters.bytes_sent << "\n}\n";
  });

  // The acceptance bar: overload degrades into typed rejection, nothing
  // fails untyped, and admitted work still completes.
  if (failed > 0) {
    std::fprintf(stderr, "%zu requests failed with untyped errors\n", failed);
    return 1;
  }
  if (completed == 0 || rejected == 0) {
    std::fprintf(stderr,
                 "expected both completions and typed rejections under "
                 "overload (completed %zu, rejected %zu)\n",
                 completed, rejected);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool socket_mode =
      argc > 1 && std::strcmp(argv[1], "--socket") == 0;
  util::Stopwatch total;
  const std::size_t batches = util::by_scale<std::size_t>(4, 12, 32);
  const std::size_t batch_size = util::by_scale<std::size_t>(2, 4, 8);

  // One fitted detector, one clean suspicious model; every request audits
  // its own clone so concurrent inspections never share mutable layers.
  data::Dataset src = data::make_dataset(data::DatasetKind::kCifar10, 61,
                                         400, 160);
  data::Dataset tgt = data::make_dataset(data::DatasetKind::kStl10, 62, 300,
                                         160);
  core::BpromDetector detector = core::fit_detector(
      src, tgt, 0.10, nn::ArchKind::kResNet18Mini, 7, micro_scale());
  core::TrainedSuspicious suspicious = core::train_clean_model(
      src, nn::ArchKind::kResNet18Mini, 50, micro_scale());
  bench::print_elapsed(total, "fit detector + suspicious model");

  const std::string store =
      (std::filesystem::temp_directory_path() / "bprom_bench_serve").string();
  std::filesystem::remove_all(store);
  api::AuditEngine engine({.store_dir = store});
  if (!engine.publish("aud", std::move(detector)).ok()) {
    std::fprintf(stderr, "publish failed\n");
    return 1;
  }

  if (socket_mode) return run_socket_mode(engine, suspicious, total);

  std::vector<std::unique_ptr<nn::BlackBoxAdapter>> boxes;
  boxes.reserve(batches * batch_size);
  for (std::size_t i = 0; i < batches * batch_size; ++i) {
    boxes.push_back(
        std::make_unique<nn::BlackBoxAdapter>(suspicious.model->clone()));
  }

  // The measured section: submit every batch up front (the ring absorbs
  // them; overflow blocks, which is the backpressure under test), then
  // drain the futures.
  util::Stopwatch wall;
  std::vector<std::future<std::vector<api::AuditResponse>>> futures;
  futures.reserve(batches);
  for (std::size_t b = 0; b < batches; ++b) {
    std::vector<api::AuditRequest> batch(batch_size);
    for (std::size_t i = 0; i < batch_size; ++i) {
      std::string id = "m";  // appended: see run_socket_mode
      id += std::to_string(b * batch_size + i);
      batch[i].model_id = std::move(id);
      batch[i].detector = "aud";
      batch[i].model = boxes[b * batch_size + i].get();
    }
    futures.push_back(engine.audit_async(std::move(batch)));
  }

  std::vector<double> latency_ms;
  std::size_t failed = 0;
  for (auto& future : futures) {
    for (const api::AuditResponse& response : future.get()) {
      if (!response.status.ok()) ++failed;
      latency_ms.push_back(response.seconds * 1e3);
    }
  }
  const double wall_seconds = wall.seconds();
  bench::print_elapsed(total, "serve load");
  if (failed > 0) {
    std::fprintf(stderr, "%zu of %zu requests failed\n", failed,
                 latency_ms.size());
    return 1;
  }

  std::sort(latency_ms.begin(), latency_ms.end());
  const double throughput =
      static_cast<double>(latency_ms.size()) / wall_seconds;
  const api::EngineStats stats = engine.stats();

  std::printf("%zu batches x %zu requests in %.2fs  (%.1f req/s)\n", batches,
              batch_size, wall_seconds, throughput);
  std::printf("request latency ms: p50 %.1f  p95 %.1f  p99 %.1f\n",
              percentile(latency_ms, 0.50), percentile(latency_ms, 0.95),
              percentile(latency_ms, 0.99));
  std::printf("%-12s %8s %12s %12s %12s\n", "stage", "count", "avg", "p95",
              "max");
  for (std::size_t s = 0; s < util::kProfileStages; ++s) {
    const auto stage = static_cast<util::ProfileStage>(s);
    const util::ProfileStageStats& st = stats.profile[stage];
    std::printf("%-12s %8llu %12.0f %12.0f %12llu\n",
                util::profile_stage_name(stage),
                static_cast<unsigned long long>(st.count), st.avg(), st.p95,
                static_cast<unsigned long long>(st.max));
  }

  write_report(batches, batch_size, wall_seconds, throughput, latency_ms,
               stats);
  return 0;
}
