// The query service: protocol dispatch for `gqd serve`.
//
// QueryService owns the long-lived pieces — thread pool, graph registry,
// result cache, stats — and maps one request line (a JSON object) to one
// response line. It is transport-agnostic: the TCP server (server.h) and
// in-process tests both drive HandleLine directly, so every protocol
// behaviour is testable without sockets.
//
// Protocol (newline-delimited JSON; full spec in docs/runtime.md):
//   {"cmd":"load","name":"g","text":"node u 1\n..."}
//   {"cmd":"eval","graph":"g","language":"rem","query":"$r. a+ [r=]",
//    "deadline_ms":100}
//   {"cmd":"eval","graph":"g","language":"rpq","queries":["a+","b+"]}
//   {"cmd":"check","graph":"g","checker":"krem","relation":"pair u v\n",
//    "k":2,"deadline_ms":500}
//   {"cmd":"lint","language":"ree","query":"(a)=","graph":"g"}
//   {"cmd":"info","graph":"g"}    {"cmd":"info"}
//   {"cmd":"stats"}               {"cmd":"ping"}    {"cmd":"shutdown"}
//   {"cmd":"metrics"}             {"cmd":"log"}
//   {"cmd":"spans","trace":"00-<32 hex>-<16 hex>-01"}
// Every response carries "ok"; errors carry {"error":{"code","message"}}.
// An "id" field, when present, is echoed back verbatim.
//
// Observability (docs/observability.md): `metrics` returns the full
// Prometheus text exposition (request counters, latency histograms, pool /
// cache / admission mirrors, budget axes, failpoint sites) in a "metrics"
// string field; it bypasses admission like the other introspection
// commands. Any request may add `"trace": true` to get a "trace" field on
// its success response — the span tree (admission wait, cache lookup,
// handler, checker stages) recorded while serving that request — plus a
// "trace_id". A string "trace" field instead carries a propagated
// TraceContext (W3C-traceparent shape) minted upstream by the router: the
// request's spans are recorded under that trace id into a process-wide
// SpanCollector and held for the router's `spans` drain, and the success
// response carries only the "trace_id". `log` returns the structured
// event-log ring (obs/log.h).
//
// Robustness (docs/robustness.md): eval and check accept per-request
// resource budgets ("max_bytes", "max_tuples"; 0 = unlimited) alongside
// "deadline_ms". Heavy commands (load/eval/check/lint) pass through a
// bounded admission gate when one is configured; shed requests get an
// Unavailable error with a "retry_after_ms" hint. ping, stats, info and
// shutdown bypass admission so health checks work under full load.

#ifndef GQD_RUNTIME_SERVICE_H_
#define GQD_RUNTIME_SERVICE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "analysis/plan/query_plan.h"
#include "common/budget.h"
#include "common/cancel.h"
#include "common/json.h"
#include "common/thread_pool.h"
#include "obs/trace_context.h"
#include "rem/ast.h"
#include "runtime/admission.h"
#include "runtime/graph_registry.h"
#include "runtime/line_handler.h"
#include "runtime/result_cache.h"
#include "runtime/stats.h"

namespace gqd {

struct ServiceOptions {
  /// Worker threads for batched evaluation; 0 = hardware concurrency.
  std::size_t num_threads = 0;
  /// Result-cache entry budget.
  std::size_t cache_capacity = 256;
  /// Load shedding for heavy commands; max_concurrent 0 = disabled.
  AdmissionOptions admission;
};

class QueryService : public LineHandler {
 public:
  explicit QueryService(const ServiceOptions& options = {});

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Handles one request line; returns the one-line response JSON (without
  /// a trailing newline) and sets *shutdown on a shutdown request.
  std::string HandleLine(const std::string& line, bool* shutdown) override;

  /// Direct registry access for in-process embedding (tests, bench).
  GraphRegistry& registry() { return registry_; }

  ResultCache::Stats cache_stats() const { return cache_.GetStats(); }
  std::uint64_t total_requests() const { return stats_.total_requests(); }
  std::uint64_t shed_requests() const { return stats_.shed_requests(); }
  AdmissionStats admission_stats() const { return admission_.GetStats(); }

 private:
  Result<JsonValue> Dispatch(const JsonValue& request, bool* shutdown);
  /// Command routing proper; Dispatch wraps it with the optional
  /// per-request tracer so the admission wait is inside the trace.
  Result<JsonValue> DispatchCommand(const std::string& cmd,
                                    const JsonValue& request, bool* shutdown);
  Result<JsonValue> HandleLoad(const JsonValue& request);
  Result<JsonValue> HandleEval(const JsonValue& request);
  Result<JsonValue> HandleCheck(const JsonValue& request);
  Result<JsonValue> HandleLint(const JsonValue& request);
  Result<JsonValue> HandleInfo(const JsonValue& request);
  Result<JsonValue> HandleStats();
  Result<JsonValue> HandleMetrics();
  /// Drains this process's span collector for one propagated trace
  /// (request: {"cmd":"spans","trace":"<traceparent>"}); the router's
  /// trace-collect path. Responds with the span batch plus "now_ns" so the
  /// collector can align this process's monotonic clock with its own.
  Result<JsonValue> HandleSpans(const JsonValue& request);

  /// Evaluates one query (cache-aware); used by single and batched eval.
  Result<JsonValue> EvalOne(const RegisteredGraph& entry,
                            const std::string& language,
                            const std::string& query,
                            const CancelToken* cancel,
                            const ResourceBudget* budget);

  /// The compiled QueryPlan for a normalized REM against one graph's
  /// alphabet, cached alongside the normalized query (same fingerprint
  /// keying as the result cache, under the "rem#plan" namespace) so repeat
  /// evaluations skip the analyze/prune stage even on result-cache misses.
  std::shared_ptr<const QueryPlan> GetOrBuildRemPlan(
      const RegisteredGraph& entry, const std::string& normalized,
      const RemPtr& expression);

  ThreadPool pool_;
  GraphRegistry registry_;
  ResultCache cache_;
  ServerStats stats_;
  AdmissionController admission_;
  /// Holds spans recorded under a propagated TraceContext (a string
  /// "trace" field) until the router drains them via `spans`. Bounded;
  /// traces nobody collects age out.
  SpanCollector collector_;

  /// Plan cache (separate from the result cache: plans are graph-alphabet-
  /// dependent compilation artifacts, not result payloads). Bounded by
  /// kPlanCacheCapacity; wholesale reset on overflow keeps it simple.
  static constexpr std::size_t kPlanCacheCapacity = 256;
  std::mutex plan_mutex_;
  std::unordered_map<std::string, std::shared_ptr<const QueryPlan>>
      plan_cache_;
};

}  // namespace gqd

#endif  // GQD_RUNTIME_SERVICE_H_
