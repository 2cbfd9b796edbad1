#include "cluster/router.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "common/status.h"
#include "graph/serialization.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "runtime/command.h"

namespace gqd {

namespace {

std::string WorkerLabel(std::size_t index) { return std::to_string(index); }

/// The request line re-serialized with its `trace` field replaced by (or
/// set to) `traceparent`, so the worker records spans under our trace id
/// instead of seeing the client's `"trace": true`.
std::string LineWithTrace(const JsonValue& request,
                          const std::string& traceparent) {
  JsonValue::Object body;
  bool replaced = false;
  for (const auto& [key, value] : request.AsObject()) {
    if (key == "trace") {
      body.emplace_back("trace", traceparent);
      replaced = true;
    } else {
      body.emplace_back(key, value);
    }
  }
  if (!replaced) {
    body.emplace_back("trace", traceparent);
  }
  return JsonValue(std::move(body)).Serialize();
}

/// Bounds per-command metric label cardinality against garbage `cmd`
/// strings from misbehaving clients.
std::string CommandLabel(const std::string& cmd) {
  static constexpr const char* kKnown[] = {
      "ping", "stats", "metrics", "log",  "shutdown", "load",
      "eval", "check", "lint",    "info", "spans"};
  for (const char* known : kKnown) {
    if (cmd == known) {
      return cmd;
    }
  }
  return "other";
}

std::int64_t WallMsNow() {
  return static_cast<std::int64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace

Router::Router(const RouterOptions& options) : options_(options) {
  for (std::size_t i = 0; i < options_.worker_ports.size(); i++) {
    WorkerLinkOptions link;
    link.port = options_.worker_ports[i];
    link.pool_size = std::max<std::size_t>(1, options_.pool_size);
    link.suspect_threshold = std::max(1, options_.suspect_threshold);
    workers_.push_back(std::make_unique<WorkerLink>(i, link));
    ring_.AddWorker(i);
  }
  requests_total_ = metrics_.GetCounter("gqd_cluster_requests_total");
  failovers_total_ = metrics_.GetCounter("gqd_cluster_failovers_total");
  sheds_total_ = metrics_.GetCounter("gqd_cluster_sheds_total");
  all_down_total_ =
      metrics_.GetCounter("gqd_cluster_all_replicas_down_total");
  probes_ok_ =
      metrics_.GetCounter("gqd_cluster_probes_total", {{"result", "ok"}});
  probes_failed_ =
      metrics_.GetCounter("gqd_cluster_probes_total", {{"result", "fail"}});
  warm_replays_total_ = metrics_.GetCounter("gqd_cluster_warm_replays_total");
  warm_lines_total_ = metrics_.GetCounter("gqd_cluster_warm_lines_total");
  graph_loads_total_ = metrics_.GetCounter("gqd_cluster_graph_loads_total");
  replicated_loads_total_ =
      metrics_.GetCounter("gqd_cluster_replicated_loads_total");
  traces_collected_total_ =
      metrics_.GetCounter("gqd_cluster_traces_collected_total");
  request_latency_us_ =
      metrics_.GetHistogram("gqd_cluster_request_latency_us");
  for (const auto& worker : workers_) {
    logged_states_.push_back(worker->state());
  }
  UpdateStateGauges();
}

Router::~Router() { Stop(); }

Status Router::Start() {
  if (workers_.empty()) {
    return Status::InvalidArgument("router needs at least one worker port");
  }
  health_thread_ = std::thread([this] { HealthLoop(); });
  return Status::OK();
}

void Router::Stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) {
    return;
  }
  health_cv_.notify_all();
  if (health_thread_.joinable()) {
    health_thread_.join();
  }
  if (!options_.trace_out.empty()) {
    std::lock_guard<std::mutex> lock(sink_mutex_);
    if (!trace_sink_.empty()) {
      (void)WriteStringToFile(options_.trace_out,
                              MergedTraceToChromeJson(trace_sink_) + "\n");
    }
  }
}

std::string Router::HandleLine(const std::string& line, bool* shutdown) {
  auto start = std::chrono::steady_clock::now();
  auto parsed = JsonValue::Parse(line);
  if (!parsed.ok()) {
    return ErrorResponse(nullptr, parsed.status()).Serialize();
  }
  if (!parsed.value().is_object()) {
    Status not_object =
        Status::InvalidArgument("request must be a JSON object");
    return ErrorResponse(nullptr, not_object).Serialize();
  }
  const JsonValue& request = parsed.value();
  const JsonValue* id = request.Find("id");
  auto cmd = request.GetString("cmd");
  if (!cmd.ok()) {
    return ErrorResponse(id, cmd.status()).Serialize();
  }
  std::string response;
  if (cmd.value() == "ping") {
    response = OkResponse(id, HandlePing()).Serialize();
  } else if (cmd.value() == "stats") {
    response = OkResponse(id, HandleStats()).Serialize();
  } else if (cmd.value() == "metrics") {
    response = OkResponse(id, HandleMetricsCmd()).Serialize();
  } else if (cmd.value() == "log") {
    auto log = LogRequest(request);
    response = (log.ok() ? OkResponse(id, log.value())
                         : ErrorResponse(id, log.status()))
                   .Serialize();
  } else if (cmd.value() == "shutdown") {
    *shutdown = true;
    response = HandleShutdown(id);
  } else if (cmd.value() == "load") {
    response = HandleLoad(request, id, line);
  } else {
    response = RouteGraphCommand(cmd.value(), request, id, line);
  }
  auto elapsed = std::chrono::steady_clock::now() - start;
  auto elapsed_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
          .count());
  request_latency_us_->Observe(elapsed_us);
  CommandLatency(CommandLabel(cmd.value()))->Observe(elapsed_us);
  return response;
}

Histogram* Router::CommandLatency(const std::string& cmd) {
  std::lock_guard<std::mutex> lock(command_mutex_);
  auto it = command_latency_.find(cmd);
  if (it != command_latency_.end()) {
    return it->second;
  }
  Histogram* hist = metrics_.GetHistogram("gqd_cluster_command_latency_us",
                                          {{"command", cmd}});
  command_latency_.emplace(cmd, hist);
  return hist;
}

JsonValue Router::HandlePing() const {
  JsonValue::Object body;
  body.emplace_back("pong", true);
  body.emplace_back("role", "router");
  body.emplace_back("workers", static_cast<double>(workers_.size()));
  std::size_t routable = 0;
  for (const auto& worker : workers_) {
    if (worker->Routable()) {
      routable++;
    }
  }
  body.emplace_back("routable_workers", static_cast<double>(routable));
  return JsonValue(std::move(body));
}

JsonValue Router::HandleStats() {
  JsonValue::Array worker_array;
  for (const auto& worker : workers_) {
    JsonValue::Object entry;
    entry.emplace_back("worker", static_cast<double>(worker->index()));
    entry.emplace_back("port", static_cast<double>(worker->port()));
    entry.emplace_back("state", WorkerStateName(worker->state()));
    entry.emplace_back("requests", static_cast<double>(worker->requests()));
    entry.emplace_back("failures", static_cast<double>(worker->failures()));
    if (worker->Routable()) {
      // The worker's own stats body, embedded verbatim so a fleet scrape
      // is one round trip to the router.
      auto stats = worker->Roundtrip("{\"cmd\":\"stats\"}");
      if (stats.ok()) {
        auto parsed = JsonValue::Parse(stats.value());
        if (parsed.ok() && parsed.value().is_object()) {
          if (const JsonValue* inner = parsed.value().Find("stats")) {
            entry.emplace_back("stats", *inner);
          }
        }
      }
    }
    worker_array.emplace_back(JsonValue(std::move(entry)));
  }
  Snapshot snap = GetSnapshot();
  JsonValue::Object cluster;
  cluster.emplace_back("requests", static_cast<double>(snap.requests));
  cluster.emplace_back("failovers", static_cast<double>(snap.failovers));
  cluster.emplace_back("sheds_returned",
                       static_cast<double>(snap.sheds_returned));
  cluster.emplace_back("all_down_returned",
                       static_cast<double>(snap.all_down_returned));
  cluster.emplace_back("warm_replays",
                       static_cast<double>(snap.warm_replays));
  cluster.emplace_back("warm_lines", static_cast<double>(snap.warm_lines));
  // Same shape as the worker-side ServerStats block, so one dashboard
  // query template covers both tiers.
  JsonValue::Object per_command;
  {
    std::lock_guard<std::mutex> lock(command_mutex_);
    for (const auto& [name, hist] : command_latency_) {
      JsonValue::Object entry;
      entry.emplace_back("count", static_cast<double>(hist->count()));
      entry.emplace_back("p50",
                         static_cast<double>(hist->QuantileUpperBound(0.50)));
      entry.emplace_back("p99",
                         static_cast<double>(hist->QuantileUpperBound(0.99)));
      per_command.emplace_back(name, JsonValue(std::move(entry)));
    }
  }
  cluster.emplace_back("per_command_latency_us",
                       JsonValue(std::move(per_command)));
  // Tail-sampled slow-trace exemplars, slowest first per command.
  JsonValue::Object exemplars;
  {
    std::lock_guard<std::mutex> lock(exemplar_mutex_);
    for (const auto& [name, slot] : exemplars_) {
      JsonValue::Array entries;
      for (const Exemplar& exemplar : slot) {
        JsonValue::Object entry;
        entry.emplace_back("trace_id", exemplar.trace_id);
        entry.emplace_back("latency_us",
                           static_cast<double>(exemplar.latency_us));
        entry.emplace_back("ts_ms", static_cast<double>(exemplar.ts_ms));
        auto tree = JsonValue::Parse(exemplar.tree_json);
        if (tree.ok()) {
          entry.emplace_back("trace", std::move(tree).value());
        }
        entries.emplace_back(JsonValue(std::move(entry)));
      }
      exemplars.emplace_back(name, JsonValue(std::move(entries)));
    }
  }
  JsonValue::Object body;
  body.emplace_back("role", "router");
  body.emplace_back("cluster", JsonValue(std::move(cluster)));
  body.emplace_back("exemplars", JsonValue(std::move(exemplars)));
  body.emplace_back("workers", JsonValue(std::move(worker_array)));
  return JsonValue(std::move(body));
}

JsonValue Router::HandleMetricsCmd() {
  // Aggregate fleet-reported totals into gauges at scrape time, then
  // render everything as one gqd_cluster_* exposition.
  for (const auto& worker : workers_) {
    Gauge* reported = metrics_.GetGauge(
        "gqd_cluster_worker_reported_requests",
        {{"worker", WorkerLabel(worker->index())}});
    if (!worker->Routable()) {
      continue;
    }
    auto stats = worker->Roundtrip("{\"cmd\":\"stats\"}");
    if (!stats.ok()) {
      continue;
    }
    auto parsed = JsonValue::Parse(stats.value());
    if (!parsed.ok() || !parsed.value().is_object()) {
      continue;
    }
    const JsonValue* inner = parsed.value().Find("stats");
    if (inner == nullptr || !inner->is_object()) {
      continue;
    }
    auto total = inner->GetIntOr("total_requests", 0);
    if (total.ok()) {
      reported->Set(static_cast<double>(total.value()));
    }
  }
  UpdateStateGauges();
  JsonValue::Object body;
  body.emplace_back("metrics", metrics_.RenderPrometheus());
  return JsonValue(std::move(body));
}

std::string Router::HandleShutdown(const JsonValue* id) {
  // Best-effort fleet shutdown before the front goes down; a dead worker
  // is already stopped, so failures here are expected and ignored.
  for (const auto& worker : workers_) {
    if (worker->Routable()) {
      (void)worker->Roundtrip("{\"cmd\":\"shutdown\"}");
    }
  }
  Stop();
  JsonValue::Object body;
  body.emplace_back("stopping", true);
  body.emplace_back("role", "router");
  return OkResponse(id, JsonValue(std::move(body))).Serialize();
}

std::string Router::HandleLoad(const JsonValue& request, const JsonValue* id,
                               const std::string& line) {
  auto name = request.GetString("name");
  if (!name.ok()) {
    return ErrorResponse(id, name.status()).Serialize();
  }
  // Seed order: ring owners of the *name* (fingerprint is unknown until a
  // worker has loaded the graph). Any live worker will do.
  std::vector<std::size_t> seeds = ring_.Owners(name.value(), workers_.size());
  std::string seed_response;
  bool loaded = false;
  for (std::size_t seed : seeds) {
    WorkerLink& worker = *workers_[seed];
    if (!worker.Routable()) {
      continue;
    }
    requests_total_->Inc();
    auto response = worker.Roundtrip(line);
    if (!response.ok()) {
      failovers_.fetch_add(1, std::memory_order_relaxed);
      failovers_total_->Inc();
      continue;
    }
    seed_response = response.value();
    loaded = true;
    break;
  }
  if (!loaded) {
    all_down_returned_.fetch_add(1, std::memory_order_relaxed);
    all_down_total_->Inc();
    return ErrorResponse(
               id, Status::Unavailable("no live worker accepted the load"),
               options_.retry_after_ms)
        .Serialize();
  }
  graph_loads_total_->Inc();
  // A worker-side load error (bad graph text, missing file) is final —
  // relay it without recording a route.
  auto parsed = JsonValue::Parse(seed_response);
  if (!parsed.ok() || !parsed.value().is_object()) {
    return seed_response;
  }
  const JsonValue* ok_field = parsed.value().Find("ok");
  if (ok_field == nullptr || !ok_field->is_bool() || !ok_field->AsBool()) {
    return seed_response;
  }
  auto fingerprint = parsed.value().GetStringOr("fingerprint", "");
  if (!fingerprint.ok() || fingerprint.value().empty()) {
    return seed_response;
  }
  // Place on the ring by fingerprint and replicate to the R owners. The
  // seed may not be an owner; the extra copy it holds is harmless.
  std::vector<std::size_t> owners =
      ring_.Owners(fingerprint.value(), options_.replication);
  for (std::size_t owner : owners) {
    WorkerLink& worker = *workers_[owner];
    if (!worker.Routable()) {
      continue;  // warm replay loads it when the worker rejoins
    }
    requests_total_->Inc();
    if (worker.Roundtrip(line).ok()) {
      replicated_loads_total_->Inc();
    }
  }
  EventLog::Global().Emit(LogLevel::kInfo, "cluster", "graph_load",
                          {{"graph", name.value()},
                           {"fingerprint", fingerprint.value()},
                           {"owners", std::to_string(owners.size())}});
  {
    std::lock_guard<std::mutex> lock(table_mutex_);
    table_[name.value()] =
        RouteEntry{fingerprint.value(), line, std::move(owners)};
  }
  return seed_response;
}

std::vector<std::size_t> Router::OwnersFor(const std::string& graph) {
  {
    std::lock_guard<std::mutex> lock(table_mutex_);
    auto it = table_.find(graph);
    if (it != table_.end()) {
      return it->second.owners;
    }
  }
  // Unknown to the router (e.g. identically pre-loaded workers): place by
  // name so routing is still deterministic.
  return ring_.Owners(graph, options_.replication);
}

std::string Router::RouteGraphCommand(const std::string& cmd,
                                      const JsonValue& request,
                                      const JsonValue* id,
                                      const std::string& line) {
  const JsonValue* trace_field = request.Find("trace");
  bool client_wants_trace = trace_field != nullptr &&
                            trace_field->is_bool() && trace_field->AsBool();
  // eval/check always carry a trace context: workers record spans into
  // their collector cheaply, and the collect decision happens after the
  // response, once the latency is known (tail sampling). Other commands
  // are traced only on request.
  bool traced = client_wants_trace || cmd == "eval" || cmd == "check";
  if (!traced) {
    AttemptOutcome out = AttemptReplicas(cmd, request, id, line, nullptr);
    if (!out.success) {
      return out.response;
    }
    return WithRoutingFields(out, nullptr);
  }
  TraceContext context = TraceContext::Mint();
  auto start = std::chrono::steady_clock::now();
  AttemptOutcome out;
  {
    Tracer::Scope scope(collector_.tracer());
    TraceBindingScope binding(context.binding());
    GQD_TRACE_SPAN(span, "route.request");
    out = AttemptReplicas(cmd, request, id, line, &context);
  }
  auto latency_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  bool collect = client_wants_trace || !options_.trace_out.empty() ||
                 QualifiesForCollection(cmd, latency_us);
  if (!collect || !out.success) {
    // Undrained spans (ours and the workers') age out of the collectors.
    if (!out.success) {
      return out.response;
    }
    return WithRoutingFields(out, nullptr);
  }
  std::vector<OwnedSpan> merged = CollectTrace(context, out.participants);
  traces_collected_total_->Inc();
  std::string tree = MergedSpanTreeToJson(merged);
  if (options_.exemplar_capacity > 0) {
    Exemplar exemplar;
    exemplar.trace_id = context.TraceIdHex();
    exemplar.latency_us = latency_us;
    exemplar.ts_ms = WallMsNow();
    exemplar.tree_json = tree;
    RecordExemplar(cmd, std::move(exemplar));
  }
  if (!options_.trace_out.empty()) {
    AppendTraceSink(merged);
  }
  return WithRoutingFields(out, client_wants_trace ? &tree : nullptr);
}

Router::AttemptOutcome Router::AttemptReplicas(const std::string& cmd,
                                               const JsonValue& request,
                                               const JsonValue* id,
                                               const std::string& line,
                                               const TraceContext* context) {
  std::string graph;
  if (const JsonValue* g = request.Find("graph");
      g != nullptr && g->is_string()) {
    graph = g->AsString();
  }
  std::vector<std::size_t> owners =
      graph.empty() ? ring_.Owners(cmd, options_.replication)
                    : OwnersFor(graph);
  {
    // Every routed command is a pure read, so any owner serves it with a
    // bit-identical response. Prefer the least-loaded owner (in-flight
    // count, i.e. pool pressure), breaking ties round-robin so an idle
    // fleet still spreads; the rest of the list is the failover order.
    GQD_TRACE_SPAN(pick_span, "route.replica_pick");
    GQD_TRACE_SPAN_ATTR(pick_span, "owners", owners.size());
    if (owners.size() > 1) {
      std::size_t shift =
          read_rotation_.fetch_add(1, std::memory_order_relaxed) %
          owners.size();
      std::rotate(owners.begin(),
                  owners.begin() + static_cast<std::ptrdiff_t>(shift),
                  owners.end());
      std::stable_sort(owners.begin(), owners.end(),
                       [this](std::size_t a, std::size_t b) {
                         return workers_[a]->in_flight() <
                                workers_[b]->in_flight();
                       });
    }
  }
  bool table_routed = false;
  if (!graph.empty()) {
    std::lock_guard<std::mutex> lock(table_mutex_);
    table_routed = table_.find(graph) != table_.end();
  }
  AttemptOutcome out;
  std::int64_t min_retry_hint = std::numeric_limits<std::int64_t>::max();
  bool any_shed = false;
  bool any_attempt = false;
  for (std::size_t attempt = 0; attempt < owners.size(); attempt++) {
    std::size_t index = owners[attempt];
    WorkerLink& worker = *workers_[index];
    if (!worker.Routable()) {
      continue;
    }
    if (any_attempt) {
      failovers_.fetch_add(1, std::memory_order_relaxed);
      failovers_total_->Inc();
      out.failovers++;
      // Emitted under the request's trace binding (when traced), so the
      // event joins the merged trace by trace_id.
      EventLog::Global().Emit(LogLevel::kWarn, "cluster", "failover",
                              {{"cmd", cmd},
                               {"graph", graph},
                               {"to_worker", std::to_string(index)}});
    }
    any_attempt = true;
    requests_total_->Inc();
    auto response = [&] {
      // One transport span per attempt; the forwarded context parents the
      // worker's spans under it, so each failover leg nests separately.
      GQD_TRACE_SPAN(transport_span, "route.transport");
      GQD_TRACE_SPAN_ATTR(transport_span, "worker", index);
      if (context == nullptr) {
        return worker.Roundtrip(line);
      }
      TraceContext attempt_context = *context;
      if (transport_span.span_id() != 0) {
        attempt_context.parent_span = transport_span.span_id();
      }
      return worker.Roundtrip(
          LineWithTrace(request, attempt_context.ToTraceparent()));
    }();
    if (!response.ok()) {
      continue;  // transport failure (possibly mid-request): next replica
    }
    if (context != nullptr) {
      out.participants.push_back(index);
    }
    // A shed is code Unavailable; state loss is code NotFound on a graph
    // the routing table says this worker owns. Successful responses skip
    // the parse.
    ResponseError error;
    if (response.value().find("\"ok\":false") != std::string::npos) {
      error = ReadResponseError(response.value());
    }
    if (error.code == "Unavailable") {
      any_shed = true;
      if (error.retry_after_ms >= 0) {
        min_retry_hint = std::min(min_retry_hint, error.retry_after_ms);
      }
      continue;  // an overloaded replica is not the only replica
    }
    if (error.code == "NotFound" && table_routed) {
      // The routing table says this owner holds the graph but the worker
      // does not know it — it restarted and lost its registry. Flag it so
      // the health loop re-warms it, and serve from a replica meanwhile.
      worker.RecordFailure();
      continue;
    }
    if (cmd == "eval" || cmd == "check") {
      RecordEvalForWarmup(graph, line);
    }
    out.response = std::move(response).value();
    out.success = true;
    out.served_by = static_cast<int>(index);
    return out;
  }
  if (any_shed) {
    sheds_returned_.fetch_add(1, std::memory_order_relaxed);
    sheds_total_->Inc();
    EventLog::Global().Emit(LogLevel::kWarn, "cluster", "shed_returned",
                            {{"cmd", cmd}, {"graph", graph}});
    std::int64_t hint =
        min_retry_hint == std::numeric_limits<std::int64_t>::max()
            ? options_.retry_after_ms
            : min_retry_hint;
    out.response =
        ErrorResponse(id, Status::Unavailable("all replicas shed the request"),
                      hint)
            .Serialize();
    return out;
  }
  all_down_returned_.fetch_add(1, std::memory_order_relaxed);
  all_down_total_->Inc();
  EventLog::Global().Emit(LogLevel::kError, "cluster", "all_replicas_down",
                          {{"cmd", cmd}, {"graph", graph}});
  out.response =
      ErrorResponse(id,
                    Status::Unavailable("all replicas for this shard are down"),
                    options_.retry_after_ms)
          .Serialize();
  return out;
}

std::string Router::WithRoutingFields(const AttemptOutcome& out,
                                      const std::string* tree_json) {
  auto parsed = JsonValue::Parse(out.response);
  if (!parsed.ok() || !parsed.value().is_object()) {
    return out.response;  // never ours; relay verbatim
  }
  JsonValue::Object body = parsed.value().AsObject();
  body.emplace_back("served_by", static_cast<double>(out.served_by));
  body.emplace_back("failovers", static_cast<double>(out.failovers));
  if (tree_json != nullptr) {
    const JsonValue* ok_field = parsed.value().Find("ok");
    if (ok_field != nullptr && ok_field->is_bool() && ok_field->AsBool()) {
      auto tree = JsonValue::Parse(*tree_json);
      if (tree.ok()) {
        body.emplace_back("trace", std::move(tree).value());
      }
    }
  }
  return JsonValue(std::move(body)).Serialize();
}

bool Router::QualifiesForCollection(const std::string& cmd,
                                    std::uint64_t latency_us) {
  if (options_.exemplar_capacity == 0) {
    return false;
  }
  {
    std::lock_guard<std::mutex> lock(exemplar_mutex_);
    auto it = exemplars_.find(cmd);
    if (it == exemplars_.end() ||
        it->second.size() < options_.exemplar_capacity) {
      return true;  // room in the store: deterministic early coverage
    }
  }
  // Rolling tail threshold: the command's latency histogram p99 as of the
  // requests routed so far (this one is observed after the decision).
  std::uint64_t p99 = CommandLatency(cmd)->QuantileUpperBound(0.99);
  return p99 != 0 && latency_us >= p99;
}

std::vector<OwnedSpan> Router::CollectTrace(
    const TraceContext& context,
    const std::vector<std::size_t>& participants) {
  std::vector<OwnedSpan> merged = OwnSpans(
      collector_.Take(context.trace_hi, context.trace_lo), "router", 1);
  const std::string drain_line =
      "{\"cmd\":\"spans\",\"trace\":\"" + context.ToTraceparent() + "\"}";
  std::vector<bool> drained(workers_.size(), false);
  for (std::size_t index : participants) {
    if (drained[index]) {
      continue;  // one worker can serve several failover legs
    }
    drained[index] = true;
    WorkerLink& worker = *workers_[index];
    std::uint64_t before = Tracer::NowNs();
    auto response = worker.Roundtrip(drain_line);
    std::uint64_t after = Tracer::NowNs();
    if (!response.ok()) {
      continue;  // died since serving; its spans are lost, the rest render
    }
    auto parsed = JsonValue::Parse(response.value());
    if (!parsed.ok() || !parsed.value().is_object()) {
      continue;
    }
    const JsonValue* spans = parsed.value().Find("spans");
    if (spans == nullptr || !spans->is_array()) {
      continue;
    }
    // Midpoint alignment: assume the worker sampled now_ns halfway
    // through the drain roundtrip and shift its monotonic epoch onto
    // ours. Error is bounded by half the (local-loopback) roundtrip.
    std::int64_t offset = 0;
    auto worker_now = parsed.value().GetIntOr("now_ns", 0);
    if (worker_now.ok() && worker_now.value() > 0) {
      offset = static_cast<std::int64_t>(before / 2 + after / 2) -
               worker_now.value();
    }
    std::vector<OwnedSpan> batch =
        ParseSpanBatch(spans->Serialize(), "worker " + std::to_string(index),
                       static_cast<std::uint32_t>(index + 2));
    for (OwnedSpan& span : batch) {
      auto shifted = static_cast<std::int64_t>(span.start_ns) + offset;
      span.start_ns = shifted > 0 ? static_cast<std::uint64_t>(shifted) : 0;
      merged.push_back(std::move(span));
    }
  }
  return merged;
}

void Router::RecordExemplar(const std::string& cmd, Exemplar exemplar) {
  std::lock_guard<std::mutex> lock(exemplar_mutex_);
  std::vector<Exemplar>& slot = exemplars_[cmd];
  slot.push_back(std::move(exemplar));
  std::stable_sort(slot.begin(), slot.end(),
                   [](const Exemplar& a, const Exemplar& b) {
                     return a.latency_us > b.latency_us;
                   });
  if (slot.size() > options_.exemplar_capacity) {
    slot.resize(options_.exemplar_capacity);
  }
}

void Router::AppendTraceSink(const std::vector<OwnedSpan>& spans) {
  std::lock_guard<std::mutex> lock(sink_mutex_);
  for (const OwnedSpan& span : spans) {
    if (trace_sink_.size() >= kTraceSinkCapacity) {
      return;
    }
    trace_sink_.push_back(span);
  }
}

void Router::RecordEvalForWarmup(const std::string& graph,
                                 const std::string& line) {
  if (graph.empty() || options_.warm_log_capacity == 0) {
    return;
  }
  std::lock_guard<std::mutex> lock(table_mutex_);
  warm_log_.push_back(WarmEntry{graph, line});
  while (warm_log_.size() > options_.warm_log_capacity) {
    warm_log_.pop_front();
  }
}

void Router::HealthLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    for (auto& worker : workers_) {
      if (stopping_.load(std::memory_order_acquire)) {
        return;
      }
      bool alive = worker->Probe();
      if (alive) {
        probes_ok_->Inc();
      } else {
        probes_failed_->Inc();
      }
      WorkerState state = worker->state();
      if (!alive) {
        if (state != WorkerState::kRejoining) {
          worker->RecordFailure();
        }
        continue;
      }
      if (state == WorkerState::kHealthy) {
        worker->RecordSuccess();
        continue;
      }
      // suspect or dead and answering probes again: warm before serving.
      // (A transient blip passes through the same path; the replay is a
      // handful of idempotent loads, so correctness never depends on
      // guessing whether state was really lost.)
      if (worker->BeginRejoin()) {
        if (WarmWorker(*worker)) {
          worker->CompleteRejoin();
          warm_replays_.fetch_add(1, std::memory_order_relaxed);
          warm_replays_total_->Inc();
          EventLog::Global().Emit(
              LogLevel::kInfo, "cluster", "warm_replay",
              {{"worker", std::to_string(worker->index())}});
        } else {
          worker->AbortRejoin();
        }
      }
    }
    // State transitions become structured events here, one per edge. The
    // probe loop sees every worker each period, so an edge taken on the
    // request path (e.g. RecordFailure on registry loss) surfaces within
    // one probe interval.
    for (auto& worker : workers_) {
      WorkerState now_state = worker->state();
      WorkerState& last = logged_states_[worker->index()];
      if (now_state == last) {
        continue;
      }
      LogLevel level = now_state == WorkerState::kDead ? LogLevel::kError
                       : now_state == WorkerState::kSuspect
                           ? LogLevel::kWarn
                           : LogLevel::kInfo;
      EventLog::Global().Emit(level, "cluster", "worker_state",
                              {{"worker", std::to_string(worker->index())},
                               {"from", WorkerStateName(last)},
                               {"to", WorkerStateName(now_state)}});
      last = now_state;
    }
    UpdateStateGauges();
    std::unique_lock<std::mutex> lock(health_mutex_);
    health_cv_.wait_for(lock,
                        std::chrono::milliseconds(options_.probe_interval_ms),
                        [this] { return stopping_.load(); });
  }
}

bool Router::WarmWorker(WorkerLink& worker) {
  // Snapshot the shards this worker owns and the recent eval traffic for
  // them, then replay: loads first (registry state), evals after (result
  // cache). Replays bypass the state machine's Routable() gate because
  // the worker is deliberately kRejoining while we feed it.
  std::vector<std::string> lines;
  {
    std::lock_guard<std::mutex> lock(table_mutex_);
    for (const auto& [name, entry] : table_) {
      if (std::find(entry.owners.begin(), entry.owners.end(),
                    worker.index()) != entry.owners.end()) {
        lines.push_back(entry.load_line);
      }
    }
    for (const WarmEntry& entry : warm_log_) {
      auto it = table_.find(entry.graph);
      if (it == table_.end()) {
        continue;
      }
      const auto& owners = it->second.owners;
      if (std::find(owners.begin(), owners.end(), worker.index()) !=
          owners.end()) {
        lines.push_back(entry.line);
      }
    }
  }
  for (const std::string& line : lines) {
    auto response = worker.Roundtrip(line);
    if (!response.ok()) {
      return false;
    }
    warm_lines_.fetch_add(1, std::memory_order_relaxed);
    warm_lines_total_->Inc();
  }
  return true;
}

void Router::UpdateStateGauges() {
  std::size_t counts[4] = {0, 0, 0, 0};
  for (const auto& worker : workers_) {
    counts[static_cast<int>(worker->state())]++;
    metrics_
        .GetGauge("gqd_cluster_worker_up",
                  {{"worker", WorkerLabel(worker->index())}})
        ->Set(worker->Routable() ? 1.0 : 0.0);
    metrics_
        .GetGauge("gqd_cluster_worker_requests",
                  {{"worker", WorkerLabel(worker->index())}})
        ->Set(static_cast<double>(worker->requests()));
  }
  const char* names[4] = {"healthy", "suspect", "dead", "rejoining"};
  for (int s = 0; s < 4; s++) {
    metrics_.GetGauge("gqd_cluster_workers", {{"state", names[s]}})
        ->Set(static_cast<double>(counts[s]));
  }
}

Router::Snapshot Router::GetSnapshot() const {
  Snapshot snap;
  for (const auto& worker : workers_) {
    snap.requests += worker->requests();
    snap.worker_states.push_back(worker->state());
    snap.worker_requests.push_back(worker->requests());
  }
  snap.failovers = failovers_.load(std::memory_order_relaxed);
  snap.sheds_returned = sheds_returned_.load(std::memory_order_relaxed);
  snap.all_down_returned = all_down_returned_.load(std::memory_order_relaxed);
  snap.warm_replays = warm_replays_.load(std::memory_order_relaxed);
  snap.warm_lines = warm_lines_.load(std::memory_order_relaxed);
  return snap;
}

}  // namespace gqd
