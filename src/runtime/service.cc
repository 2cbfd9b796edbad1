#include "runtime/service.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <variant>
#include <vector>

#include "eval/preflight.h"
#include "eval/query.h"
#include "eval/rem_eval.h"
#include "graph/serialization.h"
#include "graph/sparse_relation.h"
#include "obs/export.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "runtime/command.h"
#include "storage/relation_store.h"

namespace gqd {

namespace {

/// Embeds a JSON string another module already serialized (diagnostics,
/// graph info, stats) into a JsonValue tree. Our own output always parses.
JsonValue EmbedJson(const std::string& serialized) {
  return JsonValue::Parse(serialized).ValueOrDie();
}

/// The body of load and info responses: the graph's name, fingerprint,
/// storage block and shape.
JsonValue GraphEntryToJson(const std::string& name,
                           const RegisteredGraph& entry) {
  JsonValue::Object body;
  body.emplace_back("name", name);
  body.emplace_back("fingerprint", entry.fingerprint);
  body.emplace_back("storage", StorageInfoToJson(entry.info));
  body.emplace_back("info", EmbedJson(WriteGraphInfoJson(*entry.graph)));
  return JsonValue(std::move(body));
}

/// A served eval's or check's limits: "deadline_ms" (0 = none) and the
/// resource budget ("max_bytes", "max_tuples"; 0 = unlimited). Pinned in
/// place: CancelToken and ResourceBudget hold atomics. Its destructor
/// attributes the request's budget exhaustion to the axis that tripped
/// (bytes vs tuples vs wall) on every return path of a handler — budget
/// trips surface both as error statuses (eval) and as kBudgetExhausted
/// verdicts (check), and this catches both.
class RequestLimits {
 public:
  explicit RequestLimits(ServerStats* stats) : stats_(stats) {}
  ~RequestLimits() {
    if (budget_.has_value()) {
      BudgetAxis axis = budget_->TrippedAxis();
      stats_->RecordBudgetAxis(axis);
      if (axis != BudgetAxis::kNone) {
        EventLog::Global().Emit(LogLevel::kWarn, "serve", "budget_exhausted",
                               {{"axis", BudgetAxisName(axis)}});
      }
    }
  }
  RequestLimits(const RequestLimits&) = delete;
  RequestLimits& operator=(const RequestLimits&) = delete;

  Status Read(const JsonValue& request) {
    GQD_ASSIGN_OR_RETURN(std::int64_t deadline_ms,
                         request.GetIntOr("deadline_ms", 0));
    if (deadline_ms < 0) {
      return Status::InvalidArgument("deadline_ms must be non-negative");
    }
    if (deadline_ms > 0) {
      deadline_.emplace(std::chrono::milliseconds(deadline_ms));
    }
    GQD_ASSIGN_OR_RETURN(std::int64_t max_bytes,
                         request.GetIntOr("max_bytes", 0));
    GQD_ASSIGN_OR_RETURN(std::int64_t max_tuples,
                         request.GetIntOr("max_tuples", 0));
    if (max_bytes < 0 || max_tuples < 0) {
      return Status::InvalidArgument(
          "max_bytes and max_tuples must be non-negative");
    }
    if (max_bytes > 0 || max_tuples > 0) {
      budget_.emplace(static_cast<std::uint64_t>(max_bytes),
                      static_cast<std::uint64_t>(max_tuples));
    }
    return Status::OK();
  }

  const CancelToken* cancel() const {
    return deadline_.has_value() ? &deadline_.value() : nullptr;
  }
  const ResourceBudget* budget() const {
    return budget_.has_value() ? &budget_.value() : nullptr;
  }

 private:
  ServerStats* stats_;
  std::optional<CancelToken> deadline_;
  std::optional<ResourceBudget> budget_;
};

}  // namespace

QueryService::QueryService(const ServiceOptions& options)
    : pool_(options.num_threads),
      cache_(options.cache_capacity),
      admission_(options.admission) {}

std::string QueryService::HandleLine(const std::string& line,
                                     bool* shutdown) {
  auto start = std::chrono::steady_clock::now();
  std::string command = "invalid";
  StatusCode code = StatusCode::kOk;
  JsonValue response;
  auto parsed = JsonValue::Parse(line);
  if (!parsed.ok()) {
    code = parsed.status().code();
    response = ErrorResponse(nullptr, parsed.status());
  } else if (!parsed.value().is_object()) {
    code = StatusCode::kInvalidArgument;
    response = ErrorResponse(
        nullptr, Status::InvalidArgument("request must be a JSON object"));
  } else {
    const JsonValue& request = parsed.value();
    const JsonValue* id = request.Find("id");
    auto cmd = request.GetString("cmd");
    if (cmd.ok()) {
      command = cmd.value();
    }
    auto result = Dispatch(request, shutdown);
    if (!result.ok()) {
      code = result.status().code();
      response = ErrorResponse(id, result.status(),
                               code == StatusCode::kUnavailable
                                   ? admission_.retry_after_ms()
                                   : -1);
    } else {
      response = OkResponse(id, result.value());
    }
  }
  stats_.Record(command, code == StatusCode::kOk,
                std::chrono::steady_clock::now() - start, code);
  return response.Serialize();
}

Result<JsonValue> QueryService::Dispatch(const JsonValue& request,
                                         bool* shutdown) {
  GQD_ASSIGN_OR_RETURN(std::string cmd, request.GetString("cmd"));
  const JsonValue* trace_field = request.Find("trace");
  // A string "trace" is a propagated TraceContext from an upstream router
  // ("spans" excepted: there the field names which trace to drain). Spans
  // are recorded into the process-wide collector, stamped with the remote
  // trace id and parented under the remote span, and held until the
  // router's `spans` drain. Garbage contexts degrade to untraced —
  // diagnostics must never fail a request.
  if (trace_field != nullptr && trace_field->is_string() && cmd != "spans") {
    TraceContext context;
    if (!TraceContext::FromTraceparent(trace_field->AsString(), &context)) {
      return DispatchCommand(cmd, request, shutdown);
    }
    Result<JsonValue> result = JsonValue();
    {
      Tracer::Scope scope(collector_.tracer());
      TraceBindingScope binding(context.binding());
      GQD_TRACE_SPAN(span, "serve.request");
      result = DispatchCommand(cmd, request, shutdown);
    }
    if (!result.ok()) {
      return result;
    }
    JsonValue::Object body = result.value().AsObject();
    body.emplace_back("trace_id", context.TraceIdHex());
    return JsonValue(std::move(body));
  }
  bool want_trace = trace_field != nullptr && trace_field->is_bool() &&
                    trace_field->AsBool();
  if (!want_trace) {
    return DispatchCommand(cmd, request, shutdown);
  }
  // `"trace": true` — a direct client asking for the span tree inline.
  // Per-request tracer, installed before the admission gate so the wait
  // for a slot shows up in the trace. Drained after the handler returns;
  // the span tree rides back on the success response. A minted context
  // gives the request a trace id so log events emitted while serving it
  // correlate even without a router upstream.
  TraceContext context = TraceContext::Mint();
  Tracer tracer;
  Result<JsonValue> result = JsonValue();
  {
    Tracer::Scope scope(&tracer);
    TraceBindingScope binding(context.binding());
    GQD_TRACE_SPAN(span, "serve.request");
    result = DispatchCommand(cmd, request, shutdown);
  }
  if (!result.ok()) {
    return result;
  }
  JsonValue::Object body = result.value().AsObject();
  body.emplace_back("trace", EmbedJson(SpanTreeToJson(tracer.Drain().spans)));
  body.emplace_back("trace_id", context.TraceIdHex());
  return JsonValue(std::move(body));
}

Result<JsonValue> QueryService::DispatchCommand(const std::string& cmd,
                                                const JsonValue& request,
                                                bool* shutdown) {
  // Heavy commands pass the admission gate (and hold their slot for the
  // whole request); cheap ones below bypass it so health checks and
  // operator introspection keep working under overload.
  if (cmd == "load" || cmd == "eval" || cmd == "check" || cmd == "lint") {
    std::optional<AdmissionController::Ticket> ticket;
    {
      GQD_TRACE_SPAN(span, "serve.admission");
      auto admitted = admission_.Admit();
      if (!admitted.ok()) {
        EventLog::Global().Emit(LogLevel::kWarn, "serve", "admission_shed",
                                {{"cmd", cmd}});
        return admitted.status();
      }
      ticket.emplace(std::move(admitted).value());
    }
    GQD_TRACE_SPAN(span, "serve.handler");
    if (cmd == "load") {
      return HandleLoad(request);
    }
    if (cmd == "eval") {
      return HandleEval(request);
    }
    if (cmd == "check") {
      return HandleCheck(request);
    }
    return HandleLint(request);
  }
  if (cmd == "ping") {
    JsonValue::Object body;
    body.emplace_back("pong", true);
    return JsonValue(std::move(body));
  }
  if (cmd == "info") {
    return HandleInfo(request);
  }
  if (cmd == "stats") {
    return HandleStats();
  }
  if (cmd == "metrics") {
    return HandleMetrics();
  }
  if (cmd == "spans") {
    return HandleSpans(request);
  }
  if (cmd == "log") {
    return LogRequest(request);
  }
  if (cmd == "shutdown") {
    if (shutdown != nullptr) {
      *shutdown = true;
    }
    JsonValue::Object body;
    body.emplace_back("shutting_down", true);
    return JsonValue(std::move(body));
  }
  return Status::InvalidArgument(
      "unknown command '" + cmd +
      "' (expected load, eval, check, lint, info, ping, stats, metrics, "
      "spans, log or shutdown)");
}

Result<JsonValue> QueryService::HandleLoad(const JsonValue& request) {
  GQD_ASSIGN_OR_RETURN(std::string name, request.GetString("name"));
  const JsonValue* text = request.Find("text");
  const JsonValue* path = request.Find("path");
  if ((text != nullptr) == (path != nullptr)) {
    return Status::InvalidArgument(
        "load takes exactly one of 'text' (inline graph) or 'path' (an "
        "on-disk text or container file)");
  }
  RegisteredGraph entry;
  if (text != nullptr) {
    if (!text->is_string()) {
      return Status::InvalidArgument("field 'text' must be a string");
    }
    GQD_ASSIGN_OR_RETURN(entry, registry_.Load(name, text->AsString()));
  } else {
    if (!path->is_string()) {
      return Status::InvalidArgument("field 'path' must be a string");
    }
    // A worker maps (or parses) the file itself: the client ships a path,
    // not megabytes of graph text, and a container attaches zero-copy.
    GQD_ASSIGN_OR_RETURN(entry, registry_.LoadFile(name, path->AsString()));
  }
  EventLog::Global().Emit(
      LogLevel::kInfo, "serve", "graph_load",
      {{"graph", name},
       {"fingerprint", entry.fingerprint},
       {"backend", GraphBackendName(entry.info.backend)},
       {"load_micros", std::to_string(entry.info.load_micros)}});
  return GraphEntryToJson(name, entry);
}

Result<JsonValue> QueryService::EvalOne(const RegisteredGraph& entry,
                                        const std::string& language,
                                        const std::string& query,
                                        const CancelToken* cancel,
                                        const ResourceBudget* budget) {
  const DataGraph& graph = *entry.graph;
  GQD_ASSIGN_OR_RETURN(PathExpression expression,
                       ParsePathQuery(language, query));
  // Normalize: canonical-print, so formatting differences ("a . b" vs
  // "a.b") share one cache entry.
  const std::string normalized = PathExpressionToString(expression);
  const std::string key = ResultCache::MakeKey(
      entry.fingerprint, PathLanguageName(expression), normalized);
  // A budgeted request evaluates under its budget, so whether it fits
  // never depends on what an earlier request left in the cache.
  std::shared_ptr<const BinaryRelation> relation;
  if (budget == nullptr) {
    GQD_TRACE_SPAN(span, "serve.cache_lookup");
    relation = cache_.Get(key);
    GQD_TRACE_SPAN_ATTR(span, "hit", relation != nullptr ? 1 : 0);
  }
  if (relation == nullptr) {
    EvalOptions eval_options;
    eval_options.cancel = cancel;
    eval_options.budget = budget;
    // A REM runs on its cached QueryPlan's plan-pruned automaton, skipping
    // re-compile + re-analysis.
    const RemPtr* rem = std::get_if<RemPtr>(&expression);
    GQD_ASSIGN_OR_RETURN(
        BinaryRelation computed,
        rem != nullptr
            ? EvaluateRemAutomaton(
                  graph, GetOrBuildRemPlan(entry, normalized, *rem)->automaton,
                  eval_options)
            : EvaluatePathExpression(graph, expression, eval_options));
    relation = std::make_shared<const BinaryRelation>(std::move(computed));
    cache_.Put(key, relation);
  }
  JsonValue::Object body;
  body.emplace_back("query", query);
  body.emplace_back("normalized", normalized);
  body.emplace_back("count", static_cast<double>(relation->Count()));
  // Same rendering as `gqd eval`, so client output is interchangeable.
  body.emplace_back("relation", relation->ToString(graph));
  return JsonValue(std::move(body));
}

std::shared_ptr<const QueryPlan> QueryService::GetOrBuildRemPlan(
    const RegisteredGraph& entry, const std::string& normalized,
    const RemPtr& expression) {
  std::string key =
      ResultCache::MakeKey(entry.fingerprint, "rem#plan", normalized);
  {
    std::lock_guard<std::mutex> lock(plan_mutex_);
    auto it = plan_cache_.find(key);
    if (it != plan_cache_.end()) {
      return it->second;
    }
  }
  // Build outside the lock (analysis can be non-trivial); a racing build
  // of the same plan is wasted work, not a correctness problem, because
  // plans are pure functions of (graph alphabet, normalized query).
  StringInterner labels = entry.graph->labels();
  auto plan = std::make_shared<const QueryPlan>(
      BuildRemQueryPlan(expression, &labels, /*intern_new_labels=*/false));
  std::lock_guard<std::mutex> lock(plan_mutex_);
  if (plan_cache_.size() >= kPlanCacheCapacity) {
    plan_cache_.clear();
  }
  plan_cache_.emplace(key, plan);
  return plan;
}

Result<JsonValue> QueryService::HandleEval(const JsonValue& request) {
  GQD_ASSIGN_OR_RETURN(std::string graph_name, request.GetString("graph"));
  GQD_ASSIGN_OR_RETURN(RegisteredGraph entry, registry_.Get(graph_name));
  GQD_ASSIGN_OR_RETURN(std::string language, request.GetString("language"));
  // One budget for the whole request: batched queries draw on a shared
  // allowance, the per-request isolation boundary.
  RequestLimits limits(&stats_);
  GQD_RETURN_NOT_OK(limits.Read(request));
  const CancelToken* cancel = limits.cancel();
  const ResourceBudget* budget = limits.budget();

  const JsonValue* queries = request.Find("queries");
  if (queries == nullptr) {
    GQD_ASSIGN_OR_RETURN(std::string query, request.GetString("query"));
    return EvalOne(entry, language, query, cancel, budget);
  }

  // Batched form: one graph, many queries, fanned out across the pool.
  if (!queries->is_array()) {
    return Status::InvalidArgument("field 'queries' must be an array");
  }
  std::vector<std::string> texts;
  texts.reserve(queries->AsArray().size());
  for (const JsonValue& q : queries->AsArray()) {
    if (!q.is_string()) {
      return Status::InvalidArgument(
          "field 'queries' must contain only strings");
    }
    texts.push_back(q.AsString());
  }
  std::vector<Result<JsonValue>> outcomes(
      texts.size(), Result<JsonValue>(Status::Internal("not run")));
  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::size_t remaining = texts.size();
  // Pool workers do not inherit this thread's tracer installation or trace
  // binding; each task re-installs both so per-query spans land on the
  // worker's track and still carry the request's trace id.
  Tracer* tracer = Tracer::Current();
  GQD_TRACE_SPAN(dispatch_span, "serve.pool_dispatch");
  GQD_TRACE_SPAN_ATTR(dispatch_span, "queries", texts.size());
  // Captured inside the dispatch span, so re-bound task spans parent
  // under serve.pool_dispatch.
  Tracer::Binding trace_binding = Tracer::CurrentBinding();
  for (std::size_t i = 0; i < texts.size(); i++) {
    pool_.Submit([this, &entry, &language, &texts, &outcomes, &done_mutex,
                  &done_cv, &remaining, cancel, budget, tracer,
                  trace_binding, i] {
      Tracer::Scope scope(tracer);
      TraceBindingScope binding(trace_binding);
      Result<JsonValue> outcome = Status::Internal("not run");
      {
        GQD_TRACE_SPAN(task_span, "serve.eval_task");
        GQD_TRACE_SPAN_ATTR(task_span, "query_index", i);
        outcome = EvalOne(entry, language, texts[i], cancel, budget);
      }
      // Notify while holding the lock: the waiter owns these locals and
      // destroys them the moment it observes remaining == 0, so the last
      // worker must not touch the condition variable after unlocking.
      std::lock_guard<std::mutex> lock(done_mutex);
      outcomes[i] = std::move(outcome);
      remaining--;
      done_cv.notify_one();
    });
  }
  {
    std::unique_lock<std::mutex> lock(done_mutex);
    done_cv.wait(lock, [&remaining] { return remaining == 0; });
  }

  JsonValue::Array results;
  results.reserve(outcomes.size());
  for (std::size_t i = 0; i < outcomes.size(); i++) {
    if (outcomes[i].ok()) {
      results.push_back(OkResponse(nullptr, outcomes[i].value()));
    } else {
      JsonValue error = ErrorResponse(nullptr, outcomes[i].status());
      JsonValue::Object entry_body = error.AsObject();
      entry_body.insert(entry_body.begin(), {"query", JsonValue(texts[i])});
      results.emplace_back(std::move(entry_body));
    }
  }
  JsonValue::Object body;
  body.emplace_back("results", JsonValue(std::move(results)));
  return JsonValue(std::move(body));
}

Result<JsonValue> QueryService::HandleCheck(const JsonValue& request) {
  GQD_ASSIGN_OR_RETURN(std::string graph_name, request.GetString("graph"));
  GQD_ASSIGN_OR_RETURN(RegisteredGraph entry, registry_.Get(graph_name));
  GQD_ASSIGN_OR_RETURN(std::string checker, request.GetString("checker"));
  GQD_ASSIGN_OR_RETURN(std::string relation_text,
                       request.GetString("relation"));
  using RelationPairs = std::vector<std::pair<NodeId, NodeId>>;
  GQD_ASSIGN_OR_RETURN(RelationPairs pairs,
                       ReadRelationPairsText(*entry.graph, relation_text));
  RequestLimits limits(&stats_);
  GQD_RETURN_NOT_OK(limits.Read(request));
  // Optional frontier-parallel successor generation (krem/rpq checkers);
  // any thread count returns bit-identical results.
  GQD_ASSIGN_OR_RETURN(std::int64_t threads, request.GetIntOr("threads", 1));
  if (threads < 0) {
    return Status::InvalidArgument("field 'threads' must be non-negative");
  }
  // Optional "relation_backend": auto (default), dense, sparse, blocked.
  // The estimated cost of the selected representation is admitted against
  // the request budget before anything is built, so a served check is
  // governed the same way the CLI is.
  RelationBackend backend_choice = RelationBackend::kAuto;
  if (const JsonValue* backend_field = request.Find("relation_backend")) {
    if (!backend_field->is_string() ||
        !ParseRelationBackend(backend_field->AsString(), &backend_choice)) {
      return Status::InvalidArgument(
          "field 'relation_backend' must be auto, dense, sparse or blocked");
    }
  }
  const std::size_t n = entry.graph->NumNodes();
  RelationAdmission admission =
      AdmitRelation(n, std::move(pairs), backend_choice, limits.budget());
  if (!admission.status.ok()) {
    return Status::ResourceExhausted(
        std::string("relation admission: ") +
        RelationBackendName(admission.backend) + " backend over " +
        std::to_string(n) + " nodes exceeds the request byte budget");
  }
  const AdaptiveRelation& relation = admission.relation;

  CheckRequest check;
  if (!ParseChecker(checker, &check.checker)) {
    return Status::InvalidArgument(
        "unknown checker '" + checker +
        "' (expected rpq, krem, ree or ucrdpq)");
  }
  if (check.checker == Checker::kKRem) {
    GQD_ASSIGN_OR_RETURN(std::int64_t k, request.GetIntOr("k", 2));
    if (k < 0) {
      return Status::InvalidArgument("field 'k' must be non-negative");
    }
    check.k = static_cast<std::size_t>(k);
  }
  check.num_threads = static_cast<std::size_t>(threads);
  check.cancel = limits.cancel();
  check.budget = limits.budget();
  GQD_ASSIGN_OR_RETURN(
      CheckAnswer answer,
      RunCheck(*entry.graph, relation, check, entry.setups.get(), &stats_));
  JsonValue::Object body;
  body.emplace_back("checker", checker);
  body.emplace_back("relation_backend",
                    std::string(RelationBackendName(relation.backend())));
  body.emplace_back("relation_nnz", static_cast<double>(relation.Nnz()));
  for (auto& field : CheckAnswerToJson(answer)) {
    body.push_back(std::move(field));
  }
  return JsonValue(std::move(body));
}

Result<JsonValue> QueryService::HandleLint(const JsonValue& request) {
  GQD_ASSIGN_OR_RETURN(std::string language, request.GetString("language"));
  GQD_ASSIGN_OR_RETURN(std::string query, request.GetString("query"));
  AnalysisOptions options;
  RegisteredGraph entry;  // keeps the shared_ptr alive across the lint
  if (const JsonValue* graph_name = request.Find("graph")) {
    if (!graph_name->is_string()) {
      return Status::InvalidArgument("field 'graph' must be a string");
    }
    GQD_ASSIGN_OR_RETURN(entry, registry_.Get(graph_name->AsString()));
    options.graph = entry.graph.get();
  }
  GQD_ASSIGN_OR_RETURN(std::vector<Diagnostic> diagnostics,
                       LintPathQuery(language, query, options));
  // Lift the array out of DiagnosticsToJson's {"diagnostics":[...]}
  // wrapper so the response carries it directly.
  JsonValue wrapped = EmbedJson(DiagnosticsToJson(diagnostics));
  JsonValue::Object body;
  body.emplace_back("diagnostics", *wrapped.Find("diagnostics"));
  return JsonValue(std::move(body));
}

Result<JsonValue> QueryService::HandleInfo(const JsonValue& request) {
  const JsonValue* graph_name = request.Find("graph");
  if (graph_name == nullptr) {
    JsonValue::Array names;
    for (const std::string& name : registry_.Names()) {
      names.emplace_back(name);
    }
    JsonValue::Object body;
    body.emplace_back("graphs", JsonValue(std::move(names)));
    return JsonValue(std::move(body));
  }
  if (!graph_name->is_string()) {
    return Status::InvalidArgument("field 'graph' must be a string");
  }
  GQD_ASSIGN_OR_RETURN(RegisteredGraph entry,
                       registry_.Get(graph_name->AsString()));
  return GraphEntryToJson(graph_name->AsString(), entry);
}

Result<JsonValue> QueryService::HandleStats() {
  JsonValue::Object body;
  body.emplace_back(
      "stats",
      EmbedJson(stats_.ToJson(pool_.GetStats(), cache_.GetStats(),
                              admission_.GetStats(),
                              registry_.CheckSetupBytes())));
  return JsonValue(std::move(body));
}

Result<JsonValue> QueryService::HandleMetrics() {
  JsonValue::Object body;
  body.emplace_back("metrics",
                    stats_.RenderPrometheus(pool_.GetStats(),
                                            cache_.GetStats(),
                                            admission_.GetStats(),
                                            registry_.CheckSetupBytes()));
  return JsonValue(std::move(body));
}

Result<JsonValue> QueryService::HandleSpans(const JsonValue& request) {
  GQD_ASSIGN_OR_RETURN(std::string traceparent, request.GetString("trace"));
  TraceContext context;
  if (!TraceContext::FromTraceparent(traceparent, &context)) {
    return Status::InvalidArgument(
        "field 'trace' must be a traceparent (00-<32 hex>-<16 hex>-01)");
  }
  std::vector<SpanRecord> spans =
      collector_.Take(context.trace_hi, context.trace_lo);
  JsonValue::Object body;
  body.emplace_back("trace_id", context.TraceIdHex());
  body.emplace_back("spans", EmbedJson(SerializeSpanBatch(spans)));
  // The drainer aligns this process's monotonic epoch with its own by
  // bracketing the roundtrip and assuming now_ns was sampled mid-flight.
  body.emplace_back("now_ns", static_cast<double>(Tracer::NowNs()));
  return JsonValue(std::move(body));
}

}  // namespace gqd
