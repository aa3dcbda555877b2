// Per-layer probes of the traced run.  Each one times calls into a single
// layer's public function, on the run's own inputs and fitted detector,
// and reports the median over repetitions.
#include <filesystem>
#include <numeric>

#include "bench.hpp"
#include "data/ops.hpp"
#include "io/binary.hpp"
#include "meta/random_forest.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/messages.hpp"
#include "net/server.hpp"
#include "nn/arch.hpp"
#include "nn/trainer.hpp"
#include "opt/spsa.hpp"
#include "percentile.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "timed_box.hpp"
#include "util/rng.hpp"
#include "vp/prompt.hpp"

namespace perfbench {

using namespace bprom;

namespace {

/// Images in one black-box query batch of prompt learning
/// (vp::BlackBoxPromptConfig::eval_samples).
constexpr std::size_t kQueryBatch = 48;

template <class Body>
double median_ms(std::size_t reps, Body&& body) {
  std::vector<double> times;
  for (std::size_t r = 0; r < reps; ++r) {
    const Nanos start = now_ns();
    body();
    times.push_back(to_ms(now_ns() - start));
  }
  return median(times);
}

nn::Tensor first_images(const nn::LabeledData& data, std::size_t n) {
  std::vector<std::size_t> idx(std::min(n, data.size()));
  std::iota(idx.begin(), idx.end(), 0);
  return data::subset(data, idx).images;
}

/// One 48-image query batch per architecture through a recording TimedBox.
void probe_forward(const ProbeInputs& p, Outcome& out) {
  const Inputs& in = *p.inputs;
  const nn::Tensor batch = first_images(in.source.test, kQueryBatch);
  const nn::ArchKind archs[] = {nn::ArchKind::kResNet18Mini,
                                nn::ArchKind::kMobileNetV2Mini,
                                nn::ArchKind::kSwinMini};
  for (std::size_t a = 0; a < std::size(archs); ++a) {
    util::Rng rng(derive_seed(p.seed, 500 + a));
    auto model = nn::make_model(archs[a], in.source.profile.shape,
                                in.source.profile.classes, rng);
    SpanRecorder spans;
    TimedBox box(std::make_unique<nn::BlackBoxAdapter>(*model), &spans, -1, 0,
                 arch_tag(archs[a]));
    for (int warm = 0; warm < 2; ++warm) (void)box.predict_proba(batch);
    const std::size_t warm_spans = spans.spans().size();
    for (int r = 0; r < 20; ++r) (void)box.predict_proba(batch);
    std::vector<double> us_per_image;
    const std::vector<Span> recorded = spans.spans();
    for (std::size_t i = warm_spans; i < recorded.size(); ++i) {
      us_per_image.push_back(to_ms(recorded[i].duration()) * 1e3 /
                             static_cast<double>(recorded[i].items));
    }
    out.add(std::string("nn.forward_us_per_image.") + arch_tag(archs[a]),
            median(us_per_image), "us");
  }
}

/// One shadow's training run at the detector's shadow config on D_S.
void probe_train_shadow(const ProbeInputs& p,
                        const core::BpromDetector& detector, Outcome& out) {
  const Inputs& in = *p.inputs;
  std::size_t rep = 0;
  const double ms = median_ms(3, [&] {
    util::Rng rng(derive_seed(p.seed, 600 + rep++));
    auto model = nn::make_model(nn::ArchKind::kResNet18Mini,
                                in.source.profile.shape,
                                in.source.profile.classes, rng);
    nn::train_classifier(*model, in.reserved, detector.config().shadow_train);
  });
  out.add("nn.train_shadow_ms", ms, "ms");
}

/// Replay of one query batch through every convolution of ResNet18Mini
/// (nn/arch.cpp: stem, two residual blocks with 1x1 projections), lowered
/// the way Conv2d::forward lowers it: im2col_into over the batch, then one
/// GEMM per sample.
void probe_tensor(const ProbeInputs& p, Outcome& out) {
  const std::size_t h = p.inputs->source.profile.shape.height;
  const std::size_t c = p.inputs->source.profile.shape.channels;
  struct Conv {
    std::size_t in_c, in_hw, kernel, stride, pad, out_c;
  };
  const Conv convs[] = {
      {c, h, 3, 1, 1, 4},       {4, h, 3, 2, 1, 8},  {8, h / 2, 3, 1, 1, 8},
      {4, h, 1, 2, 0, 8},       {8, h / 2, 3, 2, 1, 16},
      {16, h / 4, 3, 1, 1, 16}, {8, h / 2, 1, 2, 0, 16},
  };
  struct Layer {
    tensor::ConvGeometry geom;
    std::size_t out_c;
    nn::Tensor input, weight, cols, output;
  };
  util::Rng rng(derive_seed(p.seed, 700));
  std::vector<Layer> layers;
  double flops = 0.0;
  for (const Conv& conv : convs) {
    Layer layer;
    layer.geom = {conv.in_c, conv.in_hw, conv.in_hw,
                  conv.kernel, conv.stride, conv.pad};
    layer.out_c = conv.out_c;
    layer.input = nn::Tensor::randn(
        {kQueryBatch, conv.in_c, conv.in_hw, conv.in_hw}, rng);
    layer.weight =
        nn::Tensor::randn({conv.out_c, layer.geom.patch_size()}, rng, 0.1F);
    layer.output = nn::Tensor(
        {kQueryBatch, conv.out_c, layer.geom.out_h(), layer.geom.out_w()});
    flops += 2.0 * static_cast<double>(kQueryBatch * conv.out_c *
                                       layer.geom.out_h() *
                                       layer.geom.out_w() *
                                       layer.geom.patch_size());
    layers.push_back(std::move(layer));
  }
  std::vector<double> im2col_ms;
  std::vector<double> gemm_ms;
  for (int rep = 0; rep < 32; ++rep) {
    Nanos im2col = 0;
    Nanos gemm = 0;
    for (Layer& layer : layers) {
      layer.output.zero();
      const Nanos t0 = now_ns();
      tensor::im2col_into(layer.input, layer.geom, layer.cols);
      const Nanos t1 = now_ns();
      const std::size_t hw = layer.geom.out_h() * layer.geom.out_w();
      const std::size_t patch = layer.geom.patch_size();
      for (std::size_t b = 0; b < kQueryBatch; ++b) {
        tensor::gemm(tensor::Trans::kNo, tensor::Trans::kYes, layer.out_c, hw,
                     patch, layer.weight.data(), patch,
                     layer.cols.data() + b * hw * patch, patch,
                     layer.output.data() + b * layer.out_c * hw, hw,
                     /*accumulate=*/true);
      }
      const Nanos t2 = now_ns();
      im2col += t1 - t0;
      gemm += t2 - t1;
    }
    if (rep < 2) continue;  // warm caches and the pool
    im2col_ms.push_back(to_ms(im2col));
    gemm_ms.push_back(to_ms(gemm));
  }
  const double gemm_median = median(gemm_ms);
  out.add("tensor.im2col_ms", median(im2col_ms), "ms");
  out.add("tensor.gemm_ms", gemm_median, "ms");
  out.add("tensor.gemm_gflops", flops / (gemm_median * 1e-3) * 1e-9,
          "GFLOP/s");
}

void probe_prompt_and_optimizer(const ProbeInputs& p, Outcome& out) {
  const Inputs& in = *p.inputs;
  vp::VisualPrompt prompt(in.source.profile.shape,
                          vp::PromptMode::kAdditiveCoarse);
  util::Rng rng(derive_seed(p.seed, 800));
  std::vector<double> theta(prompt.num_params());
  for (double& t : theta) t = rng.normal();
  prompt.set_theta(theta);
  const nn::Tensor targets = first_images(in.target_train, kQueryBatch);
  const double apply_ms = median_ms(50, [&] {
    const nn::Tensor prompted = prompt.apply(targets);
    if (prompted.dim(0) != targets.dim(0)) out.fail("prompt apply lost images");
  });
  out.add("vp.prompt_apply_us_per_image",
          apply_ms * 1e3 / static_cast<double>(targets.dim(0)), "us");

  opt::SpsaConfig spsa;
  spsa.max_evaluations = 2000;
  std::vector<double> us_per_eval;
  for (int rep = 0; rep < 5; ++rep) {
    const Nanos start = now_ns();
    const opt::SpsaResult result = opt::spsa_minimize(
        spsa, std::vector<double>(prompt.num_params(), 0.0),
        [](const std::vector<double>&) { return 0.0; });
    const Nanos elapsed = now_ns() - start;
    if (result.evaluations == 0) {
      out.fail("spsa made no evaluation");
      return;
    }
    us_per_eval.push_back(to_ms(elapsed) * 1e3 /
                          static_cast<double>(result.evaluations));
  }
  out.add("opt.spsa_us_per_eval", median(us_per_eval), "us");
}

void probe_forest(const core::BpromDetector& detector, Outcome& out) {
  const core::FitDiagnostics& diag = detector.diagnostics();
  if (diag.meta_features.empty()) {
    out.fail("fitted detector has no meta features");
    return;
  }
  meta::RandomForest forest(detector.config().forest);
  out.add("meta.forest_fit_ms", median_ms(5, [&] {
            forest = meta::RandomForest(detector.config().forest);
            forest.fit(diag.meta_features, diag.meta_labels);
          }),
          "ms");
  double sink = 0.0;
  const double predict_ms = median_ms(20, [&] {
    for (const auto& row : diag.meta_features) {
      sink += forest.predict_proba(row);
    }
  });
  if (!(sink >= 0.0)) out.fail("forest returned a negative probability");
  out.add("meta.forest_predict_us",
          predict_ms * 1e3 / static_cast<double>(diag.meta_features.size()),
          "us");
}

void probe_publish(const ProbeInputs& p, const core::BpromDetector& detector,
                   Outcome& out) {
  api::EngineConfig config;
  config.store_dir = p.workdir + "/probe_store";
  api::AuditEngine engine(config);
  std::vector<double> times;
  for (int rep = 0; rep < 5; ++rep) {
    core::BpromDetector copy = detector;
    const Nanos start = now_ns();
    auto published = engine.publish("probe", std::move(copy));
    times.push_back(to_ms(now_ns() - start));
    if (!published.ok()) {
      out.fail("probe publish: " + published.status().to_string());
      return;
    }
  }
  out.add("serve.publish_ms", median(times), "ms");

  auto info = p.engine->info(kDetectorName);
  if (!info.ok()) {
    out.fail("info: " + info.status().to_string());
    return;
  }
  out.add("io.detector_bytes",
          static_cast<double>(std::filesystem::file_size(info.value().path)),
          "bytes");
}

void probe_net_codec(const ProbeInputs& p, Outcome& out) {
  std::vector<double> encode_us;
  std::vector<double> decode_us;
  std::vector<double> bytes;
  for (nn::Model* model : p.wire_models) {
    net::AuditRequestMsg msg;
    msg.model_id = "probe";
    msg.detector = kDetectorName;
    for (int rep = 0; rep < 5; ++rep) {
      io::Writer writer;
      const Nanos t0 = now_ns();
      net::encode_audit_request(writer, msg, *model);
      const std::vector<std::uint8_t> frame =
          net::encode_frame(net::MsgType::kAuditRequest, 1, writer);
      const Nanos t1 = now_ns();
      std::vector<std::uint8_t> body = writer.finish();
      const Nanos t2 = now_ns();
      io::Reader reader(std::move(body));
      const net::AuditRequestMsg decoded = net::decode_audit_request(reader);
      const Nanos t3 = now_ns();
      if (decoded.model == nullptr || decoded.detector != msg.detector) {
        out.fail("audit request did not survive encode/decode");
        return;
      }
      encode_us.push_back(to_ms(t1 - t0) * 1e3);
      decode_us.push_back(to_ms(t3 - t2) * 1e3);
      bytes.push_back(static_cast<double>(frame.size()));
    }
  }
  out.add("net.encode_request_us", median(encode_us), "us");
  out.add("net.decode_request_us", median(decode_us), "us");
  out.add("net.request_bytes", mean(bytes), "bytes");
}

/// Sequential audits of the wire models over loopback TCP through
/// net::Server and net::Client.  Each verdict must equal the model's
/// in-process golden verdict bit for bit; the server overhead is the
/// client's round trip minus the engine's own time on the request.
void probe_server(const ProbeInputs& p, Outcome& out) {
  net::ServerConfig server_config;
  server_config.io_threads = 1;
  net::Server server(*p.engine, server_config);
  if (api::Status started = server.start(); !started.ok()) {
    out.fail("server start: " + started.to_string());
    return;
  }
  net::ClientConfig client_config;
  client_config.port = server.port();
  auto client = net::Client::connect(client_config);
  if (!client.ok()) {
    out.fail("connect: " + client.status().to_string());
    return;
  }
  std::vector<double> overhead_ms;
  for (std::size_t round = 0; round < p.wire_rounds; ++round) {
    for (std::size_t i = 0; i < p.wire_models.size(); ++i) {
      net::ClientAuditRequest request;
      request.model_id = "wire-" + std::to_string(i);
      request.detector = kDetectorName;
      request.model = p.wire_models[i];
      const Nanos sent = now_ns();
      auto response = client.value().audit(request);
      const Nanos done = now_ns();
      if (!response.ok() || !response.value().status.ok()) {
        out.fail(request.model_id + " over the socket failed");
        return;
      }
      if (response.value().detector_version != p.wire_version ||
          !same_verdict(response.value().verdict, *p.wire_golden[i])) {
        out.fail(request.model_id +
                 ": socket verdict differs from the in-process one");
      }
      overhead_ms.push_back(to_ms(done - sent) -
                            response.value().seconds * 1e3);
    }
  }
  out.add("net.server_overhead_p50_ms", median(overhead_ms), "ms");
}

}  // namespace

void add_probe_metrics(const ProbeInputs& probe, Outcome& outcome) {
  auto handle = probe.engine->detector(kDetectorName);
  if (!handle.ok()) {
    outcome.fail("detector: " + handle.status().to_string());
    return;
  }
  const core::BpromDetector& detector = *handle.value();
  probe_forward(probe, outcome);
  probe_train_shadow(probe, detector, outcome);
  probe_tensor(probe, outcome);
  probe_prompt_and_optimizer(probe, outcome);
  probe_forest(detector, outcome);
  probe_publish(probe, detector, outcome);
  probe_net_codec(probe, outcome);
  probe_server(probe, outcome);
}

}  // namespace perfbench
