#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>

namespace perfbench {

Nanos now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Nanos union_length(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  Nanos total = 0;
  bool open = false;
  Interval run;
  for (const Interval& iv : intervals) {
    if (iv.end <= iv.start) continue;
    if (open && iv.start <= run.end) {
      run.end = std::max(run.end, iv.end);
      continue;
    }
    if (open) total += run.end - run.start;
    run = iv;
    open = true;
  }
  if (open) total += run.end - run.start;
  return total;
}

Nanos covered_length(std::vector<Interval> intervals, Interval window) {
  for (Interval& iv : intervals) {
    iv.start = std::max(iv.start, window.start);
    iv.end = std::min(iv.end, window.end);
  }
  return union_length(std::move(intervals));
}

Nanos self_time(Interval parent, const std::vector<Interval>& children) {
  return (parent.end - parent.start) - covered_length(children, parent);
}

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id = next.fetch_add(1);
  return id;
}

std::int64_t SpanRecorder::record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::int64_t SpanRecorder::reserve() { return record(Span{}); }

void SpanRecorder::fill(std::int64_t index, const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.at(static_cast<std::size_t>(index)) = span;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanRecorder::write_jsonl(const std::string& path,
                               const std::string& header) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << header << '\n';
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"detail\":\""
        << s.detail << "\",\"start_ns\":" << s.start
        << ",\"end_ns\":" << s.end << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << ",\"thread\":" << s.thread
        << ",\"items\":" << s.items << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
