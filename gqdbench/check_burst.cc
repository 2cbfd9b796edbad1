// check-burst: `check` requests served directly by an in-process
// QueryService behind a TCP Server, from three closed-loop LineClient
// connections. Every (graph, k) recurs with many different S; `check`
// bypasses the ResultCache, so per-(graph, k) set-up is rebuilt per call.

#include <memory>
#include <mutex>
#include <set>

#include "analysis/plan/kernel_dispatch.h"
#include "common/json.h"
#include "definability/assignment_graph.h"
#include "instances.h"
#include "runtime/client.h"
#include "runtime/server.h"
#include "runtime/service.h"
#include "serving.h"
#include "stats.h"
#include "workloads.h"

namespace gqdbench {

namespace {

constexpr std::size_t kClients = 3;
constexpr std::size_t kStreamLength = 50'000;
constexpr int kSetupRepeats = 25;

/// One brought-up instance of the workload.
struct Setup {
  CheckBurstPool pool;
  std::unique_ptr<gqd::QueryService> service;
  std::unique_ptr<TimedHandler> handler;
  std::unique_ptr<gqd::Server> server;
  std::vector<std::string> bodies;  ///< request line after the id field

  ~Setup() {
    if (server != nullptr) {
      server->Stop();
      server->Wait();
    }
  }
};

std::unique_ptr<Setup> BringUp(std::uint64_t pool_seed) {
  auto setup = std::make_unique<Setup>();
  setup->pool = MakeCheckBurstPool(pool_seed);
  gqd::ServiceOptions service_options;
  service_options.num_threads = 1;
  // Two checks run at once; the third client's request waits in the
  // admission queue, which is deep enough that nothing is shed.
  service_options.admission.max_concurrent = 2;
  service_options.admission.max_queue = 16;
  setup->service = std::make_unique<gqd::QueryService>(service_options);
  setup->handler = std::make_unique<TimedHandler>(
      setup->service.get(), "runtime.handle", /*forwarding=*/false);
  setup->server = std::make_unique<gqd::Server>(setup->handler.get());
  if (gqd::Status started = setup->server->Start(0); !started.ok()) {
    Die(started.ToString());
  }
  gqd::LineClient loader;
  if (!loader.Connect(setup->server->port()).ok()) {
    Die("cannot connect to the service");
  }
  for (const CheckBurstPool::Graph& graph : setup->pool.graphs) {
    gqd::JsonValue::Object load;
    load.emplace_back("cmd", "load");
    load.emplace_back("name", graph.name);
    load.emplace_back("text", graph.text);
    auto response = loader.Call(gqd::JsonValue(std::move(load)).Serialize());
    if (!response.ok() ||
        response.value().find("\"ok\":true") == std::string::npos) {
      Die("loading " + graph.name + " failed");
    }
  }
  for (const CheckBurstPool::Instance& instance : setup->pool.instances) {
    const CheckBurstPool::Relation& relation =
        setup->pool.relations[instance.relation];
    const CheckerSpec& checker = setup->pool.checkers[instance.checker];
    gqd::JsonValue::Object body;
    body.emplace_back("cmd", "check");
    body.emplace_back("graph", setup->pool.graphs[relation.graph].name);
    body.emplace_back("checker", checker.checker);
    body.emplace_back("k", static_cast<double>(checker.k));
    body.emplace_back("relation", relation.text);
    body.emplace_back("threads", 1.0);
    body.emplace_back("max_tuples",
                      static_cast<double>(setup->pool.max_tuples));
    std::string line = gqd::JsonValue(std::move(body)).Serialize();
    setup->bodies.push_back(line.substr(1));  // drop the opening brace
  }
  return setup;
}

/// What the client knows about one traced request.
struct RequestNote {
  std::uint64_t request = 0;
  std::size_t instance = 0;
};

}  // namespace

WorkloadResult RunCheckBurst(const RunOptions& options,
                             const ExpectedAnswers& expected) {
  WorkloadResult result;
  std::unique_ptr<Setup> setup;
  for (int i = 0; i < kSetupRepeats; i++) {
    setup.reset();
    Clock::time_point start = Clock::now();
    setup = BringUp(PoolSeed(options.pool));
    result.setup_s.push_back(MsSince(start) / 1000.0);
  }
  const CheckBurstPool& pool = setup->pool;
  std::vector<std::string> answers;
  for (const CheckBurstPool::Instance& instance : pool.instances) {
    answers.push_back(
        RequireAnswer(expected, instance.id, instance.input_hash));
  }
  auto streams = CheckBurstStreams(pool, options.seed, kClients,
                                   kStreamLength);

  std::vector<gqd::LineClient> clients(kClients);
  for (gqd::LineClient& client : clients) {
    if (!client.Connect(setup->server->port()).ok()) {
      Die("cannot connect to the service");
    }
  }

  std::atomic<std::uint64_t> next_request{0};
  SpanRecorder recorder;
  SpanRecorder* active = nullptr;  // set only for the traced phase
  std::mutex notes_mutex;
  std::vector<RequestNote> notes;

  auto op = [&](std::size_t c, std::size_t i) -> OpOutcome {
    std::size_t instance = streams[c][i % kStreamLength];
    std::uint64_t request = next_request.fetch_add(1) + 1;
    auto response = [&] {
      ScopedSpan span(active, "request", 0, request);
      std::string line = "{\"id\":\"" + RequestId(request, span.id()) +
                         "\"," + setup->bodies[instance];
      return clients[c].Call(line);
    }();
    OpOutcome outcome;
    if (response.ok()) {
      auto parsed = gqd::JsonValue::Parse(response.value());
      const gqd::JsonValue* verdict =
          parsed.ok() ? parsed.value().Find("verdict") : nullptr;
      if (verdict != nullptr && verdict->is_string()) {
        outcome.ok = verdict->AsString() == answers[instance];
        outcome.mismatch = !outcome.ok;
      }
    }
    if (active != nullptr) {
      // Probes on the benchmark's own copy of the graph: what the per-(graph,
      // k) set-up of this check costs when built alone.
      const CheckBurstPool::Relation& relation =
          pool.relations[pool.instances[instance].relation];
      const CheckerSpec& checker = pool.checkers[pool.instances[instance].checker];
      if (checker.checker != "ree") {
        const gqd::DataGraph& graph = *pool.graphs[relation.graph].graph;
        std::optional<gqd::Result<gqd::AssignmentGraph>> ag;
        {
          ScopedSpan span(active, "definability.setup", 0, request);
          ag.emplace(gqd::AssignmentGraph::Build(graph, checker.k));
        }
        if (ag->ok()) {
          ScopedSpan span(active, "analysis.dispatch_build", 0, request);
          gqd::KernelDispatchTable table =
              gqd::KernelDispatchTable::Build(ag->value());
          (void)table.enabled();
        }
      }
      std::lock_guard<std::mutex> lock(notes_mutex);
      notes.push_back({request, instance});
    }
    return outcome;
  };

  if (!options.trace) {
    result.phase = RunClosedLoop(kClients, options.seconds, 0, op);
    return result;
  }
  PhaseResult untraced =
      RunClosedLoop(kClients, options.seconds * kUntracedShare, 0, op);
  result.untraced = untraced;
  gqd::AdmissionStats admission_before = setup->service->admission_stats();
  active = &recorder;
  setup->handler->SetRecorder(&recorder);
  result.phase = RunClosedLoop(
      kClients, options.seconds * (1 - kUntracedShare), 0, op);
  setup->handler->SetRecorder(nullptr);
  active = nullptr;
  gqd::AdmissionStats admission_after = setup->service->admission_stats();

  std::vector<Span> spans = recorder.Take();
  DumpSpans(options, spans);
  struct PerRequest {
    double handle_ms = 0, setup_ms = 0, dispatch_ms = 0;
  };
  std::unordered_map<std::uint64_t, PerRequest> per_request;
  for (const Span& span : spans) {
    double ms = static_cast<double>(span.end_ns - span.start_ns) / 1e6;
    PerRequest& entry = per_request[span.request];
    if (span.name == "runtime.handle.check") {
      entry.handle_ms += ms;
    } else if (span.name == "definability.setup") {
      entry.setup_ms += ms;
    } else if (span.name == "analysis.dispatch_build") {
      entry.dispatch_ms += ms;
    }
  }
  // Setup share = (set-up + dispatch probes) ÷ the served check time, split
  // by the expected verdict of the instance.
  double setup_total = 0, dispatch_total = 0, probes = 0;
  double share_num[3] = {0, 0, 0}, share_den[3] = {0, 0, 0};
  std::map<std::string, SelfTime> by_checker;
  std::uint64_t budget_exhausted = 0;
  for (const RequestNote& note : notes) {
    const PerRequest& entry = per_request[note.request];
    const CheckerSpec& checker =
        pool.checkers[pool.instances[note.instance].checker];
    by_checker[checker.checker].total_ms += entry.handle_ms;
    by_checker[checker.checker].count++;
    const std::string& answer = answers[note.instance];
    budget_exhausted += answer == "budget exhausted";
    if (checker.checker == "ree") {
      continue;
    }
    setup_total += entry.setup_ms;
    dispatch_total += entry.dispatch_ms;
    probes++;
    int cls = answer == "definable" ? 1 : answer == "not definable" ? 2 : 0;
    for (int k : {0, cls}) {
      share_num[k] += entry.setup_ms + entry.dispatch_ms;
      share_den[k] += entry.handle_ms;
    }
  }
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  std::map<std::string, SelfTime> self = SelfTimes(spans);
  SetLayer(&result, "definability.setup_ms", ratio(setup_total, probes), "ms");
  SetLayer(&result, "analysis.dispatch_build_ms",
           ratio(dispatch_total, probes), "ms");
  SetLayer(&result, "definability.setup_share",
           ratio(share_num[0], share_den[0]), "ratio");
  SetLayer(&result, "definability.setup_share_definable",
           ratio(share_num[1], share_den[1]), "ratio");
  SetLayer(&result, "definability.setup_share_refuted",
           ratio(share_num[2], share_den[2]), "ratio");
  for (const char* checker : {"rpq", "krem", "ree"}) {
    SetLayer(&result, std::string("definability.") + checker + "_check_ms",
             by_checker[checker].mean_ms(), "ms");
  }
  SetLayer(&result, "definability.budget_exhausted",
           ratio(1000.0 * budget_exhausted, notes.size()), "per_1000_checks");
  SetLayer(&result, "runtime.handle_ms",
           self["runtime.handle.check"].mean_ms(), "ms");
  SetLayer(&result, "runtime.transport_ms", self["request"].mean_ms(), "ms");
  SetLayer(&result, "runtime.admission_queued",
           static_cast<double>(admission_after.queued -
                               admission_before.queued),
           "count");
  result.notes.push_back(
      "setup share base: " + std::to_string(share_den[0]) +
      " ms of served rpq/krem check time over " +
      std::to_string(static_cast<std::uint64_t>(probes)) +
      " checks (definable " + std::to_string(share_den[1]) +
      " ms, refuted " + std::to_string(share_den[2]) + " ms)");
  return result;
}

}  // namespace gqdbench
