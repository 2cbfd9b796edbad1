// eval-routed: `eval` traffic through an in-process cluster Router
// (replication 2) over two in-process QueryService workers, from three
// closed-loop LineClient connections. Queries are drawn Zipf-skewed from a
// (graph, query) pool several times the ResultCache capacity; a small share
// of requests reload rotating graph names, so registry writes and their
// replication sit beside cache hits, misses and evictions.

#include <memory>
#include <mutex>
#include <set>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "analysis/plan/query_plan.h"
#include "cluster/router.h"
#include "common/json.h"
#include "eval/ree_eval.h"
#include "eval/rem_eval.h"
#include "eval/rpq_eval.h"
#include "instances.h"
#include "ree/parser.h"
#include "regex/parser.h"
#include "rem/parser.h"
#include "runtime/client.h"
#include "runtime/server.h"
#include "runtime/service.h"
#include "serving.h"
#include "stats.h"
#include "workloads.h"

namespace gqdbench {

namespace {

constexpr std::size_t kClients = 3;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kStreamLength = 200'000;
constexpr int kSetupRepeats = 5;
constexpr double kWarmupSeconds = 1.5;

struct Setup {
  EvalRoutedPool pool;
  std::vector<std::unique_ptr<gqd::QueryService>> services;
  std::vector<std::unique_ptr<TimedHandler>> worker_handlers;
  std::vector<std::unique_ptr<gqd::Server>> workers;
  std::unique_ptr<gqd::Router> router;
  std::unique_ptr<TimedHandler> front_handler;
  std::unique_ptr<gqd::Server> front;
  std::vector<std::string> fingerprints;   ///< per pool graph
  std::vector<std::string> eval_bodies[2];  ///< per query: own name, alias
  std::vector<std::string> load_bodies;     ///< per graph: reload its alias

  ~Setup() {
    if (front != nullptr) {
      front->Stop();
      front->Wait();
    }
    if (router != nullptr) {
      router->Stop();
    }
    for (auto& worker : workers) {
      worker->Stop();
      worker->Wait();
    }
  }
};

std::string Body(gqd::JsonValue::Object object) {
  return gqd::JsonValue(std::move(object)).Serialize().substr(1);
}

std::unique_ptr<Setup> BringUp(std::uint64_t pool_seed) {
  auto setup = std::make_unique<Setup>();
  setup->pool = MakeEvalRoutedPool(pool_seed);
  gqd::RouterOptions router_options;
  for (std::size_t w = 0; w < kWorkers; w++) {
    gqd::ServiceOptions service_options;
    service_options.num_threads = 1;
    setup->services.push_back(
        std::make_unique<gqd::QueryService>(service_options));
    setup->worker_handlers.push_back(std::make_unique<TimedHandler>(
        setup->services.back().get(), "runtime.handle", false));
    setup->workers.push_back(
        std::make_unique<gqd::Server>(setup->worker_handlers.back().get()));
    if (!setup->workers.back()->Start(0).ok()) {
      Die("cannot start a worker");
    }
    router_options.worker_ports.push_back(setup->workers.back()->port());
  }
  router_options.replication = 2;
  setup->router = std::make_unique<gqd::Router>(router_options);
  if (!setup->router->Start().ok()) {
    Die("cannot start the router");
  }
  setup->front_handler = std::make_unique<TimedHandler>(
      setup->router.get(), "cluster.route", /*forwarding=*/true);
  setup->front = std::make_unique<gqd::Server>(setup->front_handler.get());
  if (!setup->front->Start(0).ok()) {
    Die("cannot start the routing front");
  }
  gqd::LineClient loader;
  if (!loader.Connect(setup->front->port()).ok()) {
    Die("cannot connect to the routing front");
  }
  for (const EvalRoutedPool::Graph& graph : setup->pool.graphs) {
    std::string fingerprint;
    for (const std::string& name :
         {graph.name, "rot" + graph.name.substr(1)}) {
      gqd::JsonValue::Object load;
      load.emplace_back("cmd", "load");
      load.emplace_back("name", name);
      load.emplace_back("text", graph.text);
      auto response =
          loader.Call(gqd::JsonValue(std::move(load)).Serialize());
      auto parsed = response.ok() ? gqd::JsonValue::Parse(response.value())
                                  : gqd::Result<gqd::JsonValue>(
                                        response.status());
      const gqd::JsonValue* print =
          parsed.ok() ? parsed.value().Find("fingerprint") : nullptr;
      if (print == nullptr || !print->is_string()) {
        Die("loading " + name + " through the router failed");
      }
      fingerprint = print->AsString();
    }
    setup->fingerprints.push_back(fingerprint);
    gqd::JsonValue::Object reload;
    reload.emplace_back("cmd", "load");
    reload.emplace_back("name", "rot" + graph.name.substr(1));
    reload.emplace_back("text", graph.text);
    setup->load_bodies.push_back(Body(std::move(reload)));
  }
  for (const EvalRoutedPool::Query& query : setup->pool.queries) {
    const std::string& name = setup->pool.graphs[query.graph].name;
    for (int alias = 0; alias < 2; alias++) {
      gqd::JsonValue::Object eval;
      eval.emplace_back("cmd", "eval");
      eval.emplace_back("graph", alias ? "rot" + name.substr(1) : name);
      eval.emplace_back("language", query.language);
      eval.emplace_back("query", query.text);
      setup->eval_bodies[alias].push_back(Body(std::move(eval)));
    }
  }
  return setup;
}

/// Sum of the workers' cache counters.
gqd::ResultCache::Stats CacheTotals(const Setup& setup) {
  gqd::ResultCache::Stats total;
  for (const auto& service : setup.services) {
    gqd::ResultCache::Stats stats = service->cache_stats();
    total.hits += stats.hits;
    total.misses += stats.misses;
    total.evictions += stats.evictions;
  }
  return total;
}

}  // namespace

WorkloadResult RunEvalRouted(const RunOptions& options,
                             const ExpectedAnswers& expected) {
#if defined(__GLIBC__)
  // Pin glibc's mmap threshold at its initial 128 KiB. Left dynamic, the
  // first freed multi-megabyte response string raises it, later ones are
  // carved from the arenas of the several threads each one passes through,
  // and RSS keeps growing through a run by an amount that thread
  // interleaving alone decides (see WORKLOADS.md, "Run-to-run spread"). The
  // other workloads keep the default: their large set-up arrays are reused
  // from the heap, and mapping them afresh for every check costs check-burst
  // about 20 % of its throughput.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
  WorkloadResult result;
  std::unique_ptr<Setup> setup;
  for (int i = 0; i < kSetupRepeats; i++) {
    setup.reset();
    Clock::time_point start = Clock::now();
    setup = BringUp(PoolSeed(options.pool));
    result.setup_s.push_back(MsSince(start) / 1000.0);
  }
  const EvalRoutedPool& pool = setup->pool;
  std::vector<std::string> answers;
  for (const EvalRoutedPool::Query& query : pool.queries) {
    answers.push_back(RequireAnswer(expected, query.id, query.input_hash));
  }
  auto streams =
      EvalRoutedStreams(pool, options.seed, kClients, kStreamLength);
  std::vector<gqd::LineClient> clients(kClients);
  for (gqd::LineClient& client : clients) {
    if (!client.Connect(setup->front->port()).ok()) {
      Die("cannot connect to the routing front");
    }
  }

  std::atomic<std::uint64_t> next_request{0};
  SpanRecorder recorder;
  SpanRecorder* active = nullptr;
  std::mutex probed_mutex;
  std::set<std::size_t> probed;  // queries whose evaluation was probed

  auto probe = [&](std::size_t q, std::uint64_t request) {
    const EvalRoutedPool::Query& query = pool.queries[q];
    const gqd::DataGraph& graph = *pool.graphs[query.graph].graph;
    bool first;
    {
      std::lock_guard<std::mutex> lock(probed_mutex);
      first = probed.insert(q).second;
    }
    if (query.language == "rpq") {
      gqd::Result<gqd::RegexPtr> parsed = [&] {
        ScopedSpan span(active, "regex.parse", 0, request);
        return gqd::ParseRegex(query.text);
      }();
      if (first && parsed.ok()) {
        ScopedSpan span(active, "eval.rpq", 0, request);
        (void)gqd::EvaluateRpq(graph, parsed.value()).Count();
      }
    } else if (query.language == "rem") {
      gqd::Result<gqd::RemPtr> parsed = [&] {
        ScopedSpan span(active, "rem.parse", 0, request);
        return gqd::ParseRem(query.text);
      }();
      if (first && parsed.ok()) {
        gqd::StringInterner labels = graph.labels();
        std::optional<gqd::QueryPlan> plan;
        {
          ScopedSpan span(active, "analysis.plan_build", 0, request);
          plan.emplace(gqd::BuildRemQueryPlan(parsed.value(), &labels,
                                              /*intern_new_labels=*/false));
        }
        ScopedSpan span(active, "eval.rem", 0, request);
        (void)gqd::EvaluateRemAutomaton(graph, plan->automaton).ok();
      }
    } else {
      gqd::Result<gqd::ReePtr> parsed = [&] {
        ScopedSpan span(active, "ree.parse", 0, request);
        return gqd::ParseRee(query.text);
      }();
      if (first && parsed.ok()) {
        ScopedSpan span(active, "eval.ree", 0, request);
        (void)gqd::EvaluateRee(graph, parsed.value()).Count();
      }
    }
  };

  auto op = [&](std::size_t c, std::size_t i) -> OpOutcome {
    const EvalRoutedRequest& request_spec = streams[c][i % kStreamLength];
    std::uint64_t request = next_request.fetch_add(1) + 1;
    auto response = [&] {
      ScopedSpan span(active, "request", 0, request);
      const std::string& body =
          request_spec.is_load
              ? setup->load_bodies[request_spec.graph]
              : setup->eval_bodies[request_spec.via_alias][request_spec.query];
      return clients[c].Call("{\"id\":\"" + RequestId(request, span.id()) +
                             "\"," + body);
    }();
    OpOutcome outcome;
    if (response.ok()) {
      auto parsed = gqd::JsonValue::Parse(response.value());
      if (parsed.ok()) {
        const gqd::JsonValue& body = parsed.value();
        if (request_spec.is_load) {
          const gqd::JsonValue* print = body.Find("fingerprint");
          outcome.ok = print != nullptr && print->is_string() &&
                       print->AsString() ==
                           setup->fingerprints[request_spec.graph];
        } else {
          const gqd::JsonValue* count = body.Find("count");
          const gqd::JsonValue* relation = body.Find("relation");
          if (count != nullptr && count->is_number() &&
              relation != nullptr && relation->is_string()) {
            outcome.ok =
                EvalAnswer(static_cast<std::uint64_t>(count->AsNumber()),
                           relation->AsString()) ==
                answers[request_spec.query];
            outcome.mismatch = !outcome.ok;
          }
        }
      }
    }
    if (active != nullptr && !request_spec.is_load) {
      probe(request_spec.query, request);
    }
    return outcome;
  };

  // Fill the workers' result and plan caches before timing: a long-running
  // serving fleet is warm, so the measured phases start from steady state.
  (void)RunClosedLoop(kClients, kWarmupSeconds, 0, op);
  if (!options.trace) {
    result.phase = RunClosedLoop(kClients, options.seconds, 0, op);
  } else {
    PhaseResult untraced =
        RunClosedLoop(kClients, options.seconds * kUntracedShare, 0, op);
    result.untraced = untraced;
    gqd::ResultCache::Stats cache_before = CacheTotals(*setup);
    gqd::Router::Snapshot router_before = setup->router->GetSnapshot();
    active = &recorder;
    setup->front_handler->SetRecorder(&recorder);
    for (auto& handler : setup->worker_handlers) {
      handler->SetRecorder(&recorder);
    }
    result.phase = RunClosedLoop(
        kClients, options.seconds * (1 - kUntracedShare), 0, op);
    setup->front_handler->SetRecorder(nullptr);
    for (auto& handler : setup->worker_handlers) {
      handler->SetRecorder(nullptr);
    }
    active = nullptr;
    gqd::ResultCache::Stats cache_after = CacheTotals(*setup);
    gqd::Router::Snapshot router_after = setup->router->GetSnapshot();

    std::vector<Span> spans = recorder.Take();
    DumpSpans(options, spans);
    std::map<std::string, SelfTime> self = SelfTimes(spans);
    for (const char* layer :
         {"regex.parse", "rem.parse", "ree.parse", "eval.rpq", "eval.rem",
          "eval.ree", "analysis.plan_build"}) {
      SetLayer(&result, std::string(layer) + "_ms", self[layer].mean_ms(),
               "ms");
    }
    SetLayer(&result, "runtime.handle_ms",
             self["runtime.handle.eval"].mean_ms(), "ms");
    SetLayer(&result, "runtime.load_ms",
             self["runtime.handle.load"].mean_ms(), "ms");
    SetLayer(&result, "runtime.transport_ms", self["request"].mean_ms(),
             "ms");
    SetLayer(&result, "cluster.route_self_ms",
             self["cluster.route.eval"].mean_ms(), "ms");
    double hits = static_cast<double>(cache_after.hits - cache_before.hits);
    double lookups =
        hits + static_cast<double>(cache_after.misses - cache_before.misses);
    SetLayer(&result, "runtime.cache_hit_ratio",
             lookups > 0 ? hits / lookups : 0, "ratio");
    SetLayer(&result, "runtime.cache_lookups", lookups, "count");
    SetLayer(&result, "runtime.cache_evictions",
             static_cast<double>(cache_after.evictions -
                                 cache_before.evictions),
             "count");
    SetLayer(&result, "cluster.failovers",
             static_cast<double>(router_after.failovers -
                                 router_before.failovers),
             "count");
    double most = 0, least = 0;
    for (std::size_t w = 0; w < router_after.worker_requests.size(); w++) {
      double served = static_cast<double>(router_after.worker_requests[w] -
                                          router_before.worker_requests[w]);
      most = w == 0 ? served : std::max(most, served);
      least = w == 0 ? served : std::min(least, served);
    }
    SetLayer(&result, "cluster.worker_skew", least > 0 ? most / least : 0,
             "ratio");
    result.notes.push_back("cache hit ratio base: " +
                           std::to_string(static_cast<std::uint64_t>(lookups)) +
                           " worker cache lookups");
  }
  if (setup->router->GetSnapshot().failovers > 0) {
    result.notes.push_back("router failovers occurred during the run");
  }
  return result;
}

}  // namespace gqdbench
