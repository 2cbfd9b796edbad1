// Bench-side span recorder for the traced run.
//
// Spans are recorded by the benchmark's own code around the public calls
// into each gqd layer (never inside the library). Each span has a name,
// start and end on the steady clock, the id of the span that caused it and
// the id of the request it belongs to. Spans stay in memory until the run
// ends, when gqdbench derives per-layer self times from them and writes
// them out as JSON.
//
// A span's self time is its duration minus the part of its interval that
// its children cover (overlapping children count once).

#ifndef GQDBENCH_SPANS_H_
#define GQDBENCH_SPANS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace gqdbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t request = 0;  ///< request the span belongs to
};

class SpanRecorder {
 public:
  SpanRecorder() = default;
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Reserves a span id, so children can name a parent that is still open.
  std::uint64_t NewId() { return next_id_.fetch_add(1) + 1; }

  void Record(Span span);

  /// Removes and returns every recorded span.
  std::vector<Span> Take();

 private:
  std::atomic<std::uint64_t> next_id_{0};
  std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Records one span on destruction. With a null recorder it does nothing
/// and costs one branch, so untraced phases share the traced code path.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string_view name,
             std::uint64_t parent, std::uint64_t request);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return span_.id; }

 private:
  SpanRecorder* recorder_;
  Span span_;
};

/// Self-time totals of one span name.
struct SelfTime {
  double total_ms = 0;
  std::uint64_t count = 0;

  double mean_ms() const { return count == 0 ? 0 : total_ms / count; }
};

/// Self time of every span, summed per span name.
std::map<std::string, SelfTime> SelfTimes(const std::vector<Span>& spans);

/// Spans as a JSON array, for the traced run's dump file.
std::string SpansToJson(const std::vector<Span>& spans);

}  // namespace gqdbench

#endif  // GQDBENCH_SPANS_H_
