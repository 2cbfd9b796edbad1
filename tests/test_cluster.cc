// Cluster serving tests: consistent-hash placement, load replication,
// routed evaluation, worker-death failover, warm replay on rejoin,
// admission-shed degradation through the router, and the aggregated
// gqd_cluster_* metrics — all over real TCP sockets against in-process
// `gqd serve` workers.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/hash_ring.h"
#include "cluster/router.h"
#include "cluster/worker_link.h"
#include "common/json.h"
#include "eval/rpq_eval.h"
#include "graph/examples.h"
#include "graph/generators.h"
#include "graph/serialization.h"
#include "regex/parser.h"
#include "runtime/client.h"
#include "runtime/server.h"
#include "runtime/service.h"

namespace gqd {
namespace {

/// Routed responses carry per-request routing metadata — served_by,
/// failovers, trace_id — that legitimately differs between replicas and
/// requests. The bit-identity invariant covers the query payload, so
/// comparisons strip the metadata first.
std::string PayloadOnly(const std::string& line) {
  auto parsed = JsonValue::Parse(line);
  if (!parsed.ok() || !parsed.value().is_object()) {
    return line;
  }
  JsonValue::Object body;
  for (const auto& [key, value] : parsed.value().AsObject()) {
    if (key == "served_by" || key == "failovers" || key == "trace_id") {
      continue;
    }
    body.emplace_back(key, value);
  }
  return JsonValue(std::move(body)).Serialize();
}

// --- Hash ring ----------------------------------------------------------

TEST(HashRingTest, OwnersAreDeterministicAndDistinct) {
  HashRing ring;
  for (std::size_t i = 0; i < 5; i++) {
    ring.AddWorker(i);
  }
  std::vector<std::size_t> owners = ring.Owners("deadbeefcafef00d", 3);
  ASSERT_EQ(owners.size(), 3u);
  EXPECT_EQ(std::set<std::size_t>(owners.begin(), owners.end()).size(), 3u);
  // Placement is a pure function of the fleet and the key.
  EXPECT_EQ(ring.Owners("deadbeefcafef00d", 3), owners);

  HashRing same_fleet;
  for (std::size_t i = 0; i < 5; i++) {
    same_fleet.AddWorker(i);
  }
  EXPECT_EQ(same_fleet.Owners("deadbeefcafef00d", 3), owners);
}

TEST(HashRingTest, ReplicasClampToFleetSize) {
  HashRing ring;
  ring.AddWorker(0);
  ring.AddWorker(1);
  std::vector<std::size_t> owners = ring.Owners("anything", 16);
  std::sort(owners.begin(), owners.end());
  EXPECT_EQ(owners, (std::vector<std::size_t>{0, 1}));
}

TEST(HashRingTest, KeysSpreadAcrossTheFleet) {
  constexpr std::size_t kWorkers = 4;
  constexpr std::size_t kKeys = 4000;
  HashRing ring;
  for (std::size_t i = 0; i < kWorkers; i++) {
    ring.AddWorker(i);
  }
  std::vector<std::size_t> primary_count(kWorkers, 0);
  for (std::size_t k = 0; k < kKeys; k++) {
    std::vector<std::size_t> owners =
        ring.Owners("fingerprint-" + std::to_string(k), 1);
    ASSERT_EQ(owners.size(), 1u);
    primary_count[owners[0]]++;
  }
  // 64 vnodes/worker keeps the skew modest; the guard here is loose on
  // purpose (placement quality, not an exact distribution).
  const std::size_t mean = kKeys / kWorkers;
  for (std::size_t i = 0; i < kWorkers; i++) {
    EXPECT_GT(primary_count[i], mean / 3) << "worker " << i << " starved";
    EXPECT_LT(primary_count[i], mean * 3) << "worker " << i << " hot";
  }
}

// --- Router fixture -----------------------------------------------------

/// Three `gqd serve` workers (tiny admission gates so shed scenarios are
/// easy to stage) behind a Router with replication 2 and a fast probe.
class ClusterTest : public ::testing::Test {
 protected:
  static constexpr int kWorkers = 3;

  void SetUp() override {
    RouterOptions options;
    for (int i = 0; i < kWorkers; i++) {
      AddWorker();
      options.worker_ports.push_back(servers_.back()->port());
    }
    options.replication = 2;
    options.pool_size = 2;
    options.probe_interval_ms = 10;
    options.suspect_threshold = 2;
    router_ = std::make_unique<Router>(options);
    ASSERT_TRUE(router_->Start().ok());
  }

  void TearDown() override {
    router_->Stop();
    for (auto& server : servers_) {
      if (server != nullptr) {
        server->Stop();
        server->Wait();
      }
    }
  }

  void AddWorker() {
    ServiceOptions options;
    options.admission.max_concurrent = 1;
    options.admission.max_queue = 4;
    options.admission.retry_after_ms = 30;
    services_.push_back(std::make_unique<QueryService>(options));
    servers_.push_back(std::make_unique<Server>(services_.back().get()));
    ASSERT_TRUE(servers_.back()->Start(0).ok());
  }

  std::string Route(const std::string& line) {
    bool shutdown = false;
    return router_->HandleLine(line, &shutdown);
  }

  /// Loads Figure 1 as "fig1" through the router; returns the response.
  std::string LoadFig1() {
    JsonValue::Object load;
    load.emplace_back("cmd", "load");
    load.emplace_back("name", "fig1");
    load.emplace_back("text", WriteGraphText(Figure1Graph()));
    return Route(JsonValue(std::move(load)).Serialize());
  }

  static std::string EvalLine(const std::string& query) {
    JsonValue::Object request;
    request.emplace_back("cmd", "eval");
    request.emplace_back("graph", "fig1");
    request.emplace_back("language", "rpq");
    request.emplace_back("query", query);
    return JsonValue(std::move(request)).Serialize();
  }

  /// Asks worker `i` directly (bypassing the router) whether it has the
  /// graph registered.
  bool WorkerHasGraph(int i, const std::string& name) {
    LineClient client;
    if (!client.Connect(servers_[i]->port()).ok()) {
      return false;
    }
    auto response =
        client.Call(R"({"cmd":"info","graph":")" + name + R"("})");
    return response.ok() &&
           response.value().find("\"ok\":true") != std::string::npos;
  }

  /// The workers that took at least one routed request, per the router's
  /// own counters, relative to `before`.
  std::vector<int> WorkersServing(const std::vector<std::uint64_t>& before) {
    Router::Snapshot now = router_->GetSnapshot();
    std::vector<int> served;
    for (int i = 0; i < kWorkers; i++) {
      if (now.worker_requests[i] > before[i]) {
        served.push_back(i);
      }
    }
    return served;
  }

  bool WaitForWorkerState(int i, WorkerState want,
                          std::chrono::seconds timeout =
                              std::chrono::seconds(10)) {
    auto deadline = std::chrono::steady_clock::now() + timeout;
    while (std::chrono::steady_clock::now() < deadline) {
      if (router_->worker_state(i) == want) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
  }

  std::vector<std::unique_ptr<QueryService>> services_;
  std::vector<std::unique_ptr<Server>> servers_;
  std::unique_ptr<Router> router_;
};

// --- Placement and routing ----------------------------------------------

TEST_F(ClusterTest, LoadReplicatesToExactlyROwners) {
  std::string loaded = LoadFig1();
  auto parsed = JsonValue::Parse(loaded);
  ASSERT_TRUE(parsed.ok()) << loaded;
  ASSERT_TRUE(parsed.value().Find("ok")->AsBool()) << loaded;
  EXPECT_EQ(parsed.value().GetString("fingerprint").ValueOrDie().size(),
            16u);

  // At least the R ring owners hold the graph. The seed worker that
  // computed the fingerprint may hold a harmless extra copy, so this is a
  // lower bound, not an equality.
  int copies = 0;
  for (int i = 0; i < kWorkers; i++) {
    copies += WorkerHasGraph(i, "fig1") ? 1 : 0;
  }
  EXPECT_GE(copies, 2);
}

TEST_F(ClusterTest, EvalRoutesAndMatchesDirectEvaluation) {
  ASSERT_NE(LoadFig1().find("\"ok\":true"), std::string::npos);
  std::string response = Route(EvalLine("a.a"));
  auto parsed = JsonValue::Parse(response);
  ASSERT_TRUE(parsed.ok()) << response;
  ASSERT_TRUE(parsed.value().Find("ok")->AsBool()) << response;
  DataGraph g = Figure1Graph();
  EXPECT_EQ(parsed.value().GetString("relation").ValueOrDie(),
            EvaluateRpq(g, ParseRegex("a.a").ValueOrDie()).ToString(g));
}

TEST_F(ClusterTest, RequestIdIsRelayedThroughTheRouter) {
  ASSERT_NE(LoadFig1().find("\"ok\":true"), std::string::npos);
  std::string response = Route(
      R"({"id":"q7","cmd":"eval","graph":"fig1","language":"rpq",)"
      R"("query":"a"})");
  EXPECT_NE(response.find("\"id\":\"q7\""), std::string::npos) << response;
}

TEST_F(ClusterTest, PingReportsRouterRoleAndRoutableFleet) {
  std::string response = Route(R"({"cmd":"ping"})");
  EXPECT_NE(response.find("\"pong\":true"), std::string::npos) << response;
  EXPECT_NE(response.find("\"role\":\"router\""), std::string::npos)
      << response;
  auto parsed = JsonValue::Parse(response);
  ASSERT_TRUE(parsed.ok()) << response;
  EXPECT_EQ(parsed.value().Find("routable_workers")->AsNumber(), kWorkers);
}

TEST_F(ClusterTest, LogRejectsAnUnknownLevelAsServeDoes) {
  std::string response = Route(R"({"id":3,"cmd":"log","min_level":"loud"})");
  auto parsed = JsonValue::Parse(response);
  ASSERT_TRUE(parsed.ok()) << response;
  EXPECT_FALSE(parsed.value().Find("ok")->AsBool()) << response;
  EXPECT_EQ(parsed.value().Find("id")->AsNumber(), 3) << response;
  EXPECT_EQ(parsed.value().Find("error")->GetString("code").ValueOrDie(),
            "InvalidArgument")
      << response;
  EXPECT_NE(Route(R"({"cmd":"log","min_level":"warn"})").find("\"ok\":true"),
            std::string::npos);
}

TEST_F(ClusterTest, StatsAndMetricsAggregateAcrossTheFleet) {
  ASSERT_NE(LoadFig1().find("\"ok\":true"), std::string::npos);
  (void)Route(EvalLine("a+"));

  std::string stats = Route(R"({"cmd":"stats"})");
  EXPECT_NE(stats.find("\"workers\""), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"healthy\""), std::string::npos) << stats;

  std::string metrics = Route(R"({"cmd":"metrics"})");
  EXPECT_NE(metrics.find("gqd_cluster_requests_total"), std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("gqd_cluster_workers"), std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("gqd_cluster_worker_up"), std::string::npos)
      << metrics;
}

// --- Distributed tracing ------------------------------------------------

TEST_F(ClusterTest, RoutedResponsesCarryServedByAndFailovers) {
  ASSERT_NE(LoadFig1().find("\"ok\":true"), std::string::npos);
  auto parsed = JsonValue::Parse(Route(EvalLine("a.a")));
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed.value().Find("ok")->AsBool());
  std::int64_t served_by = parsed.value().GetInt("served_by").ValueOrDie();
  EXPECT_GE(served_by, 0);
  EXPECT_LT(served_by, static_cast<std::int64_t>(kWorkers));
  EXPECT_EQ(parsed.value().GetInt("failovers").ValueOrDie(), 0);
}

#ifndef GQD_DISABLE_TRACING

/// Recursively checks the merged-tree node schema and collects
/// (name, source) pairs plus the parent name of every node.
void WalkMergedTree(const JsonValue::Array& nodes, const std::string& parent,
                    std::set<std::pair<std::string, std::string>>* seen,
                    std::map<std::string, std::string>* parent_of) {
  for (const JsonValue& node : nodes) {
    ASSERT_TRUE(node.is_object());
    // Golden schema: exactly these keys, pinned so external consumers of
    // routed "trace":true responses can rely on them.
    for (const char* key :
         {"name", "start_us", "dur_us", "tid", "source", "args",
          "children"}) {
      ASSERT_NE(node.Find(key), nullptr) << key;
    }
    std::string name = node.GetString("name").ValueOrDie();
    std::string source = node.GetString("source").ValueOrDie();
    seen->insert({name, source});
    parent_of->emplace(name, parent);
    const JsonValue* children = node.Find("children");
    ASSERT_TRUE(children->is_array());
    WalkMergedTree(children->AsArray(), name, seen, parent_of);
  }
}

TEST_F(ClusterTest, TracedRoutedEvalReturnsOneMergedSpanTree) {
  ASSERT_NE(LoadFig1().find("\"ok\":true"), std::string::npos);
  std::string response = Route(
      R"({"cmd":"eval","graph":"fig1","language":"rpq","query":"a.a",)"
      R"("trace":true})");
  auto parsed = JsonValue::Parse(response);
  ASSERT_TRUE(parsed.ok()) << response;
  ASSERT_TRUE(parsed.value().Find("ok")->AsBool()) << response;
  EXPECT_EQ(parsed.value().GetString("trace_id").ValueOrDie().size(), 32u);
  const JsonValue* trace = parsed.value().Find("trace");
  ASSERT_NE(trace, nullptr) << response;
  ASSERT_TRUE(trace->is_array()) << response;

  std::set<std::pair<std::string, std::string>> seen;
  std::map<std::string, std::string> parent_of;
  WalkMergedTree(trace->AsArray(), "", &seen, &parent_of);

  // Router spans: the request root, the replica pick, and the transport.
  EXPECT_TRUE(seen.count({"route.request", "router"})) << response;
  EXPECT_TRUE(seen.count({"route.replica_pick", "router"})) << response;
  EXPECT_TRUE(seen.count({"route.transport", "router"})) << response;
  // Worker spans arrive from a "worker N" source and share the tree.
  bool worker_request = false;
  bool worker_handler = false;
  bool worker_cache = false;
  for (const auto& [name, source] : seen) {
    if (source.rfind("worker ", 0) != 0) {
      continue;
    }
    worker_request |= name == "serve.request";
    worker_handler |= name == "serve.handler";
    worker_cache |= name == "serve.cache_lookup";
  }
  EXPECT_TRUE(worker_request) << response;
  EXPECT_TRUE(worker_handler) << response;
  EXPECT_TRUE(worker_cache) << response;
  // Cross-process nesting: the worker's request root sits under the
  // router transport span that carried it, which sits under the request.
  EXPECT_EQ(parent_of["serve.request"], "route.transport") << response;
  EXPECT_EQ(parent_of["route.transport"], "route.request") << response;

  // Without "trace":true the routed response embeds no tree.
  std::string untraced = Route(EvalLine("a.a"));
  EXPECT_NE(untraced.find("\"ok\":true"), std::string::npos) << untraced;
  EXPECT_EQ(untraced.find("\"trace\":["), std::string::npos) << untraced;
}

TEST_F(ClusterTest, FailoverEmitsAStructuredLogEventCorrelatedToTheTrace) {
  ASSERT_NE(LoadFig1().find("\"ok\":true"), std::string::npos);
  std::vector<std::uint64_t> before =
      router_->GetSnapshot().worker_requests;
  ASSERT_NE(Route(EvalLine("a.a")).find("\"ok\":true"), std::string::npos);
  std::vector<int> served = WorkersServing(before);
  ASSERT_EQ(served.size(), 1u);
  const int primary = served[0];
  servers_[primary]->Stop();
  servers_[primary]->Wait();

  // Two requests cover both rotation slots; at least one fails over. The
  // client sees zero errors either way.
  std::set<std::string> trace_ids;
  for (int i = 0; i < 2; i++) {
    auto parsed = JsonValue::Parse(Route(EvalLine("a.a")));
    ASSERT_TRUE(parsed.ok());
    EXPECT_TRUE(parsed.value().Find("ok")->AsBool());
    trace_ids.insert(parsed.value().GetString("trace_id").ValueOrDie());
  }
  ASSERT_GE(router_->GetSnapshot().failovers, 1u);

  std::string log = Route(R"({"cmd":"log"})");
  auto parsed = JsonValue::Parse(log);
  ASSERT_TRUE(parsed.ok()) << log;
  EXPECT_TRUE(parsed.value().Find("ok")->AsBool()) << log;
  const JsonValue* events = parsed.value().Find("events");
  ASSERT_NE(events, nullptr) << log;
  ASSERT_TRUE(events->is_array()) << log;
  bool found = false;
  for (const JsonValue& event : events->AsArray()) {
    if (event.GetStringOr("event", "").ValueOrDie() != "failover") {
      continue;
    }
    // The event joins the merged trace through the request's trace id.
    if (trace_ids.count(event.GetStringOr("trace_id", "").ValueOrDie()) ==
        0) {
      continue;
    }
    found = true;
    EXPECT_EQ(event.GetStringOr("component", "").ValueOrDie(), "cluster");
    EXPECT_EQ(event.GetStringOr("level", "").ValueOrDie(), "warn");
    EXPECT_EQ(event.GetStringOr("cmd", "").ValueOrDie(), "eval");
    EXPECT_EQ(event.GetStringOr("graph", "").ValueOrDie(), "fig1");
    EXPECT_FALSE(event.GetStringOr("to_worker", "").ValueOrDie().empty());
  }
  EXPECT_TRUE(found) << log;
}

TEST_F(ClusterTest, RouterStatsReportPerCommandQuantilesAndExemplars) {
  ASSERT_NE(LoadFig1().find("\"ok\":true"), std::string::npos);
  for (int i = 0; i < 3; i++) {
    ASSERT_NE(Route(EvalLine("a.a")).find("\"ok\":true"),
              std::string::npos);
  }
  std::string stats = Route(R"({"cmd":"stats"})");
  auto parsed = JsonValue::Parse(stats);
  ASSERT_TRUE(parsed.ok()) << stats;
  const JsonValue* cluster = parsed.value().Find("cluster");
  ASSERT_NE(cluster, nullptr) << stats;
  // Same {count, p50, p99} shape the worker-side stats block uses.
  const JsonValue* per_command = cluster->Find("per_command_latency_us");
  ASSERT_NE(per_command, nullptr) << stats;
  const JsonValue* eval_latency = per_command->Find("eval");
  ASSERT_NE(eval_latency, nullptr) << stats;
  EXPECT_GE(eval_latency->GetInt("count").ValueOrDie(), 3);
  EXPECT_GE(eval_latency->GetInt("p99").ValueOrDie(),
            eval_latency->GetInt("p50").ValueOrDie());
  // Every eval is traced, so the exemplar store (below capacity) kept
  // them: each entry carries the retained merged tree.
  const JsonValue* exemplars = parsed.value().Find("exemplars");
  ASSERT_NE(exemplars, nullptr) << stats;
  const JsonValue* eval_exemplars = exemplars->Find("eval");
  ASSERT_NE(eval_exemplars, nullptr) << stats;
  ASSERT_TRUE(eval_exemplars->is_array()) << stats;
  ASSERT_FALSE(eval_exemplars->AsArray().empty()) << stats;
  std::uint64_t previous = ~std::uint64_t{0};
  for (const JsonValue& exemplar : eval_exemplars->AsArray()) {
    EXPECT_EQ(exemplar.GetString("trace_id").ValueOrDie().size(), 32u);
    auto latency =
        static_cast<std::uint64_t>(exemplar.GetInt("latency_us").ValueOrDie());
    EXPECT_LE(latency, previous);  // slowest first
    previous = latency;
    EXPECT_GT(exemplar.GetInt("ts_ms").ValueOrDie(), 0);
    const JsonValue* tree = exemplar.Find("trace");
    ASSERT_NE(tree, nullptr) << stats;
    EXPECT_TRUE(tree->is_array()) << stats;
  }
}

#endif  // GQD_DISABLE_TRACING

// --- Failover -----------------------------------------------------------

TEST_F(ClusterTest, WorkerDeathFailsOverWithBitIdenticalResponse) {
  ASSERT_NE(LoadFig1().find("\"ok\":true"), std::string::npos);

  std::vector<std::uint64_t> before =
      router_->GetSnapshot().worker_requests;
  std::string canonical = Route(EvalLine("a.a"));
  ASSERT_NE(canonical.find("\"ok\":true"), std::string::npos) << canonical;
  std::vector<int> served = WorkersServing(before);
  ASSERT_EQ(served.size(), 1u);
  const int primary = served[0];

  // Kill the worker that served the request, mid-fleet.
  servers_[primary]->Stop();
  servers_[primary]->Wait();

  // Reads rotate across the two owners, so two back-to-back requests hit
  // both rotation slots: one lands on the dead worker first and fails
  // over. Either way the client sees the bit-identical payload — no
  // error, no retry needed.
  EXPECT_EQ(PayloadOnly(Route(EvalLine("a.a"))), PayloadOnly(canonical));
  EXPECT_EQ(PayloadOnly(Route(EvalLine("a.a"))), PayloadOnly(canonical));
  EXPECT_GE(router_->GetSnapshot().failovers, 1u);
}

TEST_F(ClusterTest, DeadWorkerIsDetectedByTheHealthLoop) {
  servers_[1]->Stop();
  servers_[1]->Wait();
  EXPECT_TRUE(WaitForWorkerState(1, WorkerState::kDead));
  std::string response = Route(R"({"cmd":"ping"})");
  auto parsed = JsonValue::Parse(response);
  ASSERT_TRUE(parsed.ok()) << response;
  EXPECT_EQ(parsed.value().Find("routable_workers")->AsNumber(),
            kWorkers - 1);
}

TEST_F(ClusterTest, RejoiningWorkerIsWarmedFromTheReplayLog) {
  ASSERT_NE(LoadFig1().find("\"ok\":true"), std::string::npos);
  // A couple of evals so the warm log has entries to replay. The first
  // one also identifies a routing-table owner of fig1 from the router's
  // own counters (only a table owner gets warm-replayed, not a seed
  // holding a stray copy).
  std::vector<std::uint64_t> before =
      router_->GetSnapshot().worker_requests;
  ASSERT_NE(Route(EvalLine("a.a")).find("\"ok\":true"), std::string::npos);
  std::vector<int> served = WorkersServing(before);
  ASSERT_EQ(served.size(), 1u);
  const int owner = served[0];
  ASSERT_NE(Route(EvalLine("a+")).find("\"ok\":true"), std::string::npos);
  const std::uint16_t port = servers_[owner]->port();
  servers_[owner]->Stop();
  servers_[owner]->Wait();
  ASSERT_TRUE(WaitForWorkerState(owner, WorkerState::kDead));

  // Restart on the same port with a FRESH registry: recovery genuinely
  // depends on the router's warm replay, not on surviving state.
  services_[owner] = std::make_unique<QueryService>();
  servers_[owner] = std::make_unique<Server>(services_[owner].get());
  ASSERT_TRUE(servers_[owner]->Start(port).ok());

  ASSERT_TRUE(WaitForWorkerState(owner, WorkerState::kHealthy));
  Router::Snapshot snapshot = router_->GetSnapshot();
  EXPECT_GE(snapshot.warm_replays, 1u);
  EXPECT_GE(snapshot.warm_lines, 1u);
  // The replay reloaded the graph, so the rejoined worker can serve its
  // shard again.
  EXPECT_TRUE(WorkerHasGraph(owner, "fig1"));
}

TEST_F(ClusterTest, AllReplicasDownReturnsUnavailableWithRetryHint) {
  ASSERT_NE(LoadFig1().find("\"ok\":true"), std::string::npos);
  for (auto& server : servers_) {
    server->Stop();
    server->Wait();
  }
  std::string response = Route(EvalLine("a.a"));
  auto parsed = JsonValue::Parse(response);
  ASSERT_TRUE(parsed.ok()) << response;
  EXPECT_FALSE(parsed.value().Find("ok")->AsBool()) << response;
  const JsonValue* error = parsed.value().Find("error");
  ASSERT_NE(error, nullptr) << response;
  EXPECT_EQ(error->GetString("code").ValueOrDie(), "Unavailable");
  EXPECT_GE(error->GetInt("retry_after_ms").ValueOrDie(), 0);
  EXPECT_GE(router_->GetSnapshot().all_down_returned, 1u);
}

// --- Degradation under load ---------------------------------------------

/// Holds every worker's single admission slot with a slow krem check so a
/// routed heavy request sheds on all replicas.
class ClusterOverloadTest : public ClusterTest {
 protected:
  void SetUp() override {
    ClusterTest::SetUp();
    RandomGraphOptions graph_options;
    graph_options.num_nodes = 12;
    graph_options.num_labels = 2;
    graph_options.num_data_values = 6;
    graph_options.edge_percent = 25;
    graph_options.seed = 7;
    for (int i = 0; i < kWorkers; i++) {
      DataGraph g = RandomDataGraph(graph_options);
      relation_text_ =
          WriteRelationText(g, RandomRelation(g.NumNodes(), 30, 11));
      services_[i]->registry().Register("hard", std::move(g));
    }
  }

  /// A check request that holds one admission slot for ~deadline_ms.
  std::string SlowCheckRequest(double deadline_ms) {
    JsonValue::Object request;
    request.emplace_back("cmd", "check");
    request.emplace_back("graph", "hard");
    request.emplace_back("checker", "krem");
    request.emplace_back("k", 3.0);
    request.emplace_back("relation", relation_text_);
    request.emplace_back("deadline_ms", deadline_ms);
    return JsonValue(std::move(request)).Serialize();
  }

  /// Saturates every worker's slot and wait queue directly (bypassing the
  /// router), returning the holder threads.
  std::vector<std::thread> SaturateFleet(double deadline_ms) {
    std::vector<std::thread> holders;
    // One request holds the slot, four more fill the wait queue, so a
    // routed request is shed immediately instead of queueing.
    for (int i = 0; i < kWorkers; i++) {
      for (int j = 0; j < 5; j++) {
        holders.emplace_back([this, i, deadline_ms] {
          LineClient client;
          if (client.Connect(servers_[i]->port()).ok()) {
            (void)client.Call(SlowCheckRequest(deadline_ms));
          }
        });
      }
    }
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
      bool saturated = true;
      for (int i = 0; i < kWorkers; i++) {
        AdmissionStats stats = services_[i]->admission_stats();
        saturated &= stats.active >= 1 && stats.waiting >= 4;
      }
      if (saturated) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return holders;
  }

  std::string relation_text_;
};

TEST_F(ClusterOverloadTest, AllReplicasSheddingReturnsWorkerRetryHint) {
  ASSERT_NE(LoadFig1().find("\"ok\":true"), std::string::npos);
  std::vector<std::thread> holders = SaturateFleet(400.0);

  std::string response = Route(EvalLine("a.a"));
  auto parsed = JsonValue::Parse(response);
  ASSERT_TRUE(parsed.ok()) << response;
  EXPECT_FALSE(parsed.value().Find("ok")->AsBool()) << response;
  const JsonValue* error = parsed.value().Find("error");
  ASSERT_NE(error, nullptr) << response;
  EXPECT_EQ(error->GetString("code").ValueOrDie(), "Unavailable");
  // The hint is the smallest the replicas supplied — the workers' own
  // configured 30ms, not the router's fallback.
  EXPECT_EQ(error->GetInt("retry_after_ms").ValueOrDie(), 30);
  EXPECT_GE(router_->GetSnapshot().sheds_returned, 1u);

  // ping still bypasses admission everywhere: the fleet probes healthy
  // even while fully saturated, so nobody gets marked dead.
  std::string pong = Route(R"({"cmd":"ping"})");
  EXPECT_NE(pong.find("\"pong\":true"), std::string::npos) << pong;

  for (std::thread& holder : holders) {
    holder.join();
  }
}

TEST_F(ClusterOverloadTest, CallWithRetryRidesOutClusterOverload) {
  ASSERT_NE(LoadFig1().find("\"ok\":true"), std::string::npos);

  // Front server so the retrying client speaks to the router over TCP,
  // exactly like production.
  Server front(router_.get());
  ASSERT_TRUE(front.Start(0).ok());

  std::vector<std::thread> holders = SaturateFleet(300.0);

  LineClient client;
  ASSERT_TRUE(client.Connect(front.port()).ok());
  RetryPolicy policy;
  policy.max_attempts = 50;
  // Deliberately huge exponential base: the only way the retry loop can
  // succeed inside the test timeout is by honouring the server-supplied
  // retry_after_ms hint instead (satellite fix).
  policy.initial_backoff = std::chrono::milliseconds(5000);
  policy.jitter_seed = 17;
  auto start = std::chrono::steady_clock::now();
  auto response = client.CallWithRetry(EvalLine("a.a"), policy);
  auto elapsed = std::chrono::steady_clock::now() - start;

  for (std::thread& holder : holders) {
    holder.join();
  }
  front.Stop();
  front.Wait();

  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_NE(response.value().find("\"ok\":true"), std::string::npos)
      << response.value();
  EXPECT_GE(client.retries(), 1u);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            4000);
}

}  // namespace
}  // namespace gqd
