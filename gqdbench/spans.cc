#include "spans.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "bench.h"

namespace gqdbench {

void SpanRecorder::Record(Span span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<Span> SpanRecorder::Take() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::exchange(spans_, {});
}

ScopedSpan::ScopedSpan(SpanRecorder* recorder, std::string_view name,
                       std::uint64_t parent, std::uint64_t request)
    : recorder_(recorder) {
  if (recorder_ == nullptr) {
    return;
  }
  span_.name = std::string(name);
  span_.id = recorder_->NewId();
  span_.parent = parent;
  span_.request = request;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ == nullptr) {
    return;
  }
  span_.end_ns = NowNs();
  recorder_->Record(std::move(span_));
}

std::map<std::string, SelfTime> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& span : spans) {
    if (span.parent != 0) {
      children[span.parent].push_back(&span);
    }
  }
  std::map<std::string, SelfTime> totals;
  std::vector<std::pair<std::int64_t, std::int64_t>> covered;
  for (const Span& span : spans) {
    std::int64_t duration = span.end_ns - span.start_ns;
    covered.clear();
    auto it = children.find(span.id);
    if (it != children.end()) {
      for (const Span* child : it->second) {
        std::int64_t begin = std::max(child->start_ns, span.start_ns);
        std::int64_t end = std::min(child->end_ns, span.end_ns);
        if (begin < end) {
          covered.emplace_back(begin, end);
        }
      }
    }
    // Union of the clipped child intervals.
    std::sort(covered.begin(), covered.end());
    std::int64_t union_ns = 0;
    std::int64_t run_begin = 0;
    std::int64_t run_end = -1;
    for (const auto& [begin, end] : covered) {
      if (run_end < begin) {
        union_ns += std::max<std::int64_t>(0, run_end - run_begin);
        run_begin = begin;
        run_end = end;
      } else {
        run_end = std::max(run_end, end);
      }
    }
    union_ns += std::max<std::int64_t>(0, run_end - run_begin);
    SelfTime& total = totals[span.name];
    total.total_ms += static_cast<double>(duration - union_ns) / 1e6;
    total.count++;
  }
  return totals;
}

std::string SpansToJson(const std::vector<Span>& spans) {
  std::string out = "[";
  for (std::size_t i = 0; i < spans.size(); i++) {
    const Span& s = spans[i];
    if (i > 0) {
      out += ",\n";
    }
    out += "{\"name\":\"" + s.name + "\",\"id\":" + std::to_string(s.id) +
           ",\"parent\":" + std::to_string(s.parent) +
           ",\"request\":" + std::to_string(s.request) +
           ",\"start_ns\":" + std::to_string(s.start_ns) +
           ",\"end_ns\":" + std::to_string(s.end_ns) + "}";
  }
  out += "]\n";
  return out;
}

}  // namespace gqdbench
