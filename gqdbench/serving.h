// Serving-side helpers shared by the two served workloads.
//
// TimedHandler wraps a LineHandler (a QueryService worker or the cluster
// Router) and records one span per request line when a recorder is
// installed. Requests carry "id":"<request>.<parent span>", which the
// service echoes back unchanged; the wrapper reads it to attach its span to
// the client's span, and a forwarding wrapper (the router front) rewrites
// the parent part to its own span id so the worker's span nests under it.

#ifndef GQDBENCH_SERVING_H_
#define GQDBENCH_SERVING_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "runtime/line_handler.h"
#include "spans.h"

namespace gqdbench {

/// The id field value for request `request` whose caller span is `span`.
std::string RequestId(std::uint64_t request, std::uint64_t span);

class TimedHandler : public gqd::LineHandler {
 public:
  /// `layer` prefixes the span name ("runtime.handle" → runtime.handle.eval).
  /// With `forwarding`, the line's parent span is rewritten to this span.
  TimedHandler(gqd::LineHandler* inner, std::string layer, bool forwarding)
      : inner_(inner), layer_(std::move(layer)), forwarding_(forwarding) {}

  /// Installs (or, with nullptr, removes) the recorder for later requests.
  void SetRecorder(SpanRecorder* recorder) { recorder_.store(recorder); }

  std::string HandleLine(const std::string& line, bool* shutdown) override;

 private:
  gqd::LineHandler* inner_;
  const std::string layer_;
  const bool forwarding_;
  std::atomic<SpanRecorder*> recorder_{nullptr};
};

}  // namespace gqdbench

#endif  // GQDBENCH_SERVING_H_
