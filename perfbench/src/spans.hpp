// In-memory span recording for the traced benchmark run.
//
// A span is one timed call into a layer's public function: name, start,
// end, the span that caused it, the request it belongs to, and the thread
// that ran it.  Spans stay in memory while the workload runs and are
// written out once at exit.  Times are integer nanoseconds on the steady
// clock, so the additive identities the benchmark checks (queue wait +
// request = latency, covered + self = request) hold exactly.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Nanos = std::int64_t;

/// Steady-clock now, nanoseconds.
Nanos now_ns();

inline double to_ms(Nanos ns) { return static_cast<double>(ns) * 1e-6; }
inline double to_s(Nanos ns) { return static_cast<double>(ns) * 1e-9; }

/// Half-open time interval [start, end).
struct Interval {
  Nanos start = 0;
  Nanos end = 0;
};

/// Length of the union of `intervals` (overlaps counted once).
Nanos union_length(std::vector<Interval> intervals);

/// Length of the union of `intervals` after clipping each to `window`.
Nanos covered_length(std::vector<Interval> intervals, Interval window);

/// Self time of a parent: its length minus the part of it its children
/// cover.  self_time + covered_length(children, parent) == parent length.
Nanos self_time(Interval parent, const std::vector<Interval>& children);

/// Small dense id of the calling thread (0, 1, 2, ... in first-use order).
std::uint32_t thread_index();

struct Span {
  /// Static string: the layer call this span times ("nn.forward", ...).
  const char* name = "";
  /// Static string qualifying the call (the model architecture, ...).
  const char* detail = "";
  Nanos start = 0;
  Nanos end = 0;
  /// Index of the causing span in the recorder, -1 for a root.
  std::int64_t parent = -1;
  /// Identifier shared by every span of one benchmark operation.
  std::uint64_t request = 0;
  std::uint32_t thread = 0;
  /// Work done inside the span (images for a forward pass).
  std::uint64_t items = 0;

  [[nodiscard]] Nanos duration() const { return end - start; }
  [[nodiscard]] Interval interval() const { return {start, end}; }
};

class SpanRecorder {
 public:
  /// Append a span and return its index.  Safe from any thread.
  std::int64_t record(const Span& span);

  /// Reserve an index for a span whose times are known only later, so
  /// that the spans it causes can name it as their parent; fill() it once
  /// it has ended.
  std::int64_t reserve();
  void fill(std::int64_t index, const Span& span);

  /// Copy of every span recorded so far, in recording order.
  [[nodiscard]] std::vector<Span> spans() const;

  /// Write one JSON object per line: `header` (a JSON object) first, then
  /// one line per span.  Returns false when the file cannot be written.
  bool write_jsonl(const std::string& path, const std::string& header) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
