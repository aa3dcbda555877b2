// A timing decorator for the black-box query interface.
//
// TimedBox wraps any nn::BlackBoxModel and, when given a recorder, records
// one "nn.forward" span per predict_proba call, tagged with the request it
// serves and the number of images queried.  Everything else is forwarded:
// query_count() is the wrapped box's own counter, and replicate() wraps the
// wrapped box's replica in a TimedBox with the same tags, so the replicas
// BpromDetector::inspect and prompt learning fan out over are timed too and
// query accounting stays exact.  Without a recorder the decorator only
// forwards, so untraced runs pay one virtual call per query batch.
#pragma once

#include <cstdint>
#include <memory>

#include "nn/blackbox.hpp"
#include "spans.hpp"

namespace perfbench {

class TimedBox final : public bprom::nn::BlackBoxModel {
 public:
  /// `recorder` may be null (no spans); `parent` is the span the forward
  /// spans hang under; `arch` must be a static string.
  TimedBox(std::unique_ptr<bprom::nn::BlackBoxModel> inner,
           SpanRecorder* recorder, std::int64_t parent, std::uint64_t request,
           const char* arch);

  bprom::nn::Tensor predict_proba(
      const bprom::nn::Tensor& images) const override;
  [[nodiscard]] std::size_t num_classes() const override;
  [[nodiscard]] bprom::nn::ImageShape input_shape() const override;
  [[nodiscard]] std::size_t query_count() const override;
  [[nodiscard]] std::unique_ptr<bprom::nn::BlackBoxModel> replicate()
      const override;

 private:
  std::unique_ptr<bprom::nn::BlackBoxModel> inner_;
  SpanRecorder* recorder_;
  std::int64_t parent_;
  std::uint64_t request_;
  const char* arch_;
};

/// Lower-case architecture name used in span details and metric names
/// ("resnet18mini", ...).
const char* arch_tag(bprom::nn::ArchKind kind);

}  // namespace perfbench
