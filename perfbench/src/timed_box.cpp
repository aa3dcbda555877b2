#include "timed_box.hpp"

#include <utility>

#include "nn/arch.hpp"

namespace perfbench {

TimedBox::TimedBox(std::unique_ptr<bprom::nn::BlackBoxModel> inner,
                   SpanRecorder* recorder, std::int64_t parent,
                   std::uint64_t request, const char* arch)
    : inner_(std::move(inner)),
      recorder_(recorder),
      parent_(parent),
      request_(request),
      arch_(arch) {}

bprom::nn::Tensor TimedBox::predict_proba(
    const bprom::nn::Tensor& images) const {
  if (recorder_ == nullptr) return inner_->predict_proba(images);
  Span span;
  span.name = "nn.forward";
  span.detail = arch_;
  span.parent = parent_;
  span.request = request_;
  span.thread = thread_index();
  span.items = images.dim(0);
  span.start = now_ns();
  bprom::nn::Tensor out = inner_->predict_proba(images);
  span.end = now_ns();
  recorder_->record(span);
  return out;
}

std::size_t TimedBox::num_classes() const { return inner_->num_classes(); }

bprom::nn::ImageShape TimedBox::input_shape() const {
  return inner_->input_shape();
}

std::size_t TimedBox::query_count() const { return inner_->query_count(); }

std::unique_ptr<bprom::nn::BlackBoxModel> TimedBox::replicate() const {
  auto replica = inner_->replicate();
  if (!replica) return nullptr;
  return std::make_unique<TimedBox>(std::move(replica), recorder_, parent_,
                                    request_, arch_);
}

const char* arch_tag(bprom::nn::ArchKind kind) {
  switch (kind) {
    case bprom::nn::ArchKind::kResNet18Mini:
      return "resnet18mini";
    case bprom::nn::ArchKind::kMobileNetV2Mini:
      return "mobilenetv2mini";
    case bprom::nn::ArchKind::kMobileViTMini:
      return "mobilevitmini";
    case bprom::nn::ArchKind::kSwinMini:
      return "swinmini";
    case bprom::nn::ArchKind::kMlp:
      return "mlp";
  }
  return "unknown";
}

}  // namespace perfbench
