#include "serving.h"

#include <cstdlib>

namespace gqdbench {

namespace {

constexpr char kIdKey[] = "\"id\":\"";

/// Parses "id":"<request>.<span>" out of a request line; false if absent.
bool ParseRequestId(const std::string& line, std::uint64_t* request,
                    std::uint64_t* span) {
  std::size_t at = line.find(kIdKey);
  if (at == std::string::npos) {
    return false;
  }
  const char* p = line.c_str() + at + sizeof(kIdKey) - 1;
  char* end = nullptr;
  *request = std::strtoull(p, &end, 10);
  if (*end != '.') {
    return false;
  }
  *span = std::strtoull(end + 1, &end, 10);
  return *end == '"';
}

/// The command name of a request line ("eval", "check", "load", ...).
std::string CommandOf(const std::string& line) {
  constexpr char kCmdKey[] = "\"cmd\":\"";
  std::size_t at = line.find(kCmdKey);
  if (at == std::string::npos) {
    return "unknown";
  }
  at += sizeof(kCmdKey) - 1;
  return line.substr(at, line.find('"', at) - at);
}

}  // namespace

std::string RequestId(std::uint64_t request, std::uint64_t span) {
  return std::to_string(request) + "." + std::to_string(span);
}

std::string TimedHandler::HandleLine(const std::string& line,
                                     bool* shutdown) {
  SpanRecorder* recorder = recorder_.load();
  std::uint64_t request = 0;
  std::uint64_t parent = 0;
  if (recorder == nullptr || !ParseRequestId(line, &request, &parent)) {
    return inner_->HandleLine(line, shutdown);
  }
  ScopedSpan span(recorder, layer_ + "." + CommandOf(line), parent, request);
  if (!forwarding_) {
    return inner_->HandleLine(line, shutdown);
  }
  std::string forwarded = line;
  std::string old_id = RequestId(request, parent);
  std::size_t at = forwarded.find(std::string(kIdKey) + old_id + "\"");
  forwarded.replace(at + sizeof(kIdKey) - 1, old_id.size(),
                    RequestId(request, span.id()));
  return inner_->HandleLine(forwarded, shutdown);
}

}  // namespace gqdbench
