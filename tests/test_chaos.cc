// Chaos suite: fires every registered failpoint and checks that the system
// degrades the way docs/robustness.md promises — a clean structured Status
// (or a documented soft degradation), never a crash — and that once the
// fault clears, a retry produces results bit-identical to a run that never
// saw the fault.
//
// The suite is registry-driven: SiteMap() below must name every site the
// binary registers. A newly planted failpoint without a chaos scenario
// fails RegistryHasAScenarioForEverySite instead of going silently
// untested.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/router.h"
#include "common/budget.h"
#include "common/cancel.h"
#include "common/failpoint.h"
#include "common/json.h"
#include "common/thread_pool.h"
#include "definability/assignment_graph.h"
#include "definability/krem_definability.h"
#include "definability/ree_definability.h"
#include "definability/ucrdpq_definability.h"
#include "graph/examples.h"
#include "graph/generators.h"
#include "graph/relation.h"
#include "graph/serialization.h"
#include "homomorphism/csp.h"
#include "runtime/client.h"
#include "runtime/result_cache.h"
#include "runtime/server.h"
#include "runtime/service.h"
#include "storage/container.h"
#include "storage/graph_store.h"
#include "storage/relation_store.h"

namespace gqd {
namespace {

/// Every failpoint the suite knows how to exercise. Compared against the
/// live registry so unplanted scenarios and unscenarioed sites both fail.
const std::vector<std::string>& KnownSites() {
  static const std::vector<std::string> sites = {
      "assignment_graph.build", "client.connect",   "client.read",
      "client.write",           "cluster.connect",  "cluster.probe",
      "cluster.read",           "cluster.write",    "csp.search",
      "krem.arena.grow",        "ree.closure",      "relation.open",
      "relation.write",         "result_cache.put", "server.accept",
      "server.read",            "server.write",     "storage.mmap",
      "storage.open",           "storage.truncate", "storage.write",
      "thread_pool.dispatch",   "ucrdpq.search",
  };
  return sites;
}

/// Arms `spec` via the registry, failing the test on a parse error.
void Arm(const std::string& spec) {
  Status status = FailpointRegistry::Instance().Configure(spec);
  ASSERT_TRUE(status.ok()) << spec << ": " << status;
}

std::uint64_t FiredCount(const std::string& site) {
  FailpointSite* s = FailpointRegistry::Instance().Find(site);
  return s == nullptr ? 0 : s->fired();
}

/// Disarms everything after each test so an armed site cannot leak into
/// the rest of the suite. Fault-injection scenarios require the sites to
/// exist, so the whole fixture skips when they are compiled out
/// (-DGQD_ENABLE_FAILPOINTS=OFF); the ResourceBudgetTest suite below has
/// no failpoint dependency and runs in every configuration.
class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
#if defined(GQD_DISABLE_FAILPOINTS)
    GTEST_SKIP() << "failpoints compiled out (GQD_ENABLE_FAILPOINTS=OFF)";
#endif
  }
  void TearDown() override { FailpointRegistry::Instance().Reset(); }
};

TEST_F(ChaosTest, RegistryHasAScenarioForEverySite) {
  std::vector<std::string> registered =
      FailpointRegistry::Instance().SiteNames();
  std::vector<std::string> known = KnownSites();
  std::sort(known.begin(), known.end());
  EXPECT_EQ(registered, known)
      << "a failpoint site was added or removed without updating the chaos "
         "suite (tests/test_chaos.cc) and docs/robustness.md";
}

TEST_F(ChaosTest, SpecParsingAndArming) {
  auto& registry = FailpointRegistry::Instance();
  EXPECT_FALSE(registry.Configure("no-colon-anywhere").ok());
  EXPECT_FALSE(registry.Configure("csp.search:bogus-mode").ok());
  EXPECT_TRUE(registry.Configure("").ok());
  // Unknown names are remembered, not rejected: the site may simply live in
  // a translation unit that has not initialized yet.
  EXPECT_TRUE(registry.Configure("not.a.real.site:fail").ok());

  FailpointSite* site = registry.Find("csp.search");
  ASSERT_NE(site, nullptr);
  Arm("csp.search:fail-nth:3");
  std::uint64_t fired_before = site->fired();
  EXPECT_FALSE(site->ShouldFail());
  EXPECT_FALSE(site->ShouldFail());
  EXPECT_TRUE(site->ShouldFail());  // third hit
  EXPECT_FALSE(site->ShouldFail());  // once only
  EXPECT_EQ(site->fired(), fired_before + 1);

  // fail-prob is deterministic for a fixed seed and hit sequence.
  auto run_prob = [&]() {
    Arm("csp.search:fail-prob:50:7");
    std::vector<bool> fires;
    for (int i = 0; i < 32; i++) {
      fires.push_back(site->ShouldFail());
    }
    return fires;
  };
  EXPECT_EQ(run_prob(), run_prob());

  registry.Reset();
  EXPECT_FALSE(site->ShouldFail());
}

// --- Checker failpoints: fail cleanly, then recover bit-identically -----

/// A Figure-1 instance big enough that the macro-tuple store grows (>48
/// interned tuples) yet terminates in milliseconds.
struct KRemInstance {
  DataGraph graph = Figure1Graph();
  BinaryRelation relation = Figure1S2(graph);
};

TEST_F(ChaosTest, KRemArenaGrowFailsCleanlyAndRecovers) {
  KRemInstance instance;
  auto baseline = CheckKRemDefinability(instance.graph, instance.relation, 2);
  ASSERT_TRUE(baseline.ok()) << baseline.status();

  std::uint64_t fired_before = FiredCount("krem.arena.grow");
  Arm("krem.arena.grow:fail-once");
  auto faulted = CheckKRemDefinability(instance.graph, instance.relation, 2);
  EXPECT_GT(FiredCount("krem.arena.grow"), fired_before)
      << "instance too small to grow the tuple store";
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(faulted.status().message().find("krem.arena.grow"),
            std::string::npos)
      << faulted.status();

  FailpointRegistry::Instance().Reset();
  auto retried = CheckKRemDefinability(instance.graph, instance.relation, 2);
  ASSERT_TRUE(retried.ok()) << retried.status();
  EXPECT_EQ(retried.value().verdict, baseline.value().verdict);
  EXPECT_EQ(retried.value().tuples_explored,
            baseline.value().tuples_explored);
  ASSERT_EQ(retried.value().witnesses.size(),
            baseline.value().witnesses.size());
  for (std::size_t i = 0; i < retried.value().witnesses.size(); i++) {
    EXPECT_EQ(retried.value().witnesses[i].from,
              baseline.value().witnesses[i].from);
    EXPECT_EQ(retried.value().witnesses[i].to,
              baseline.value().witnesses[i].to);
    EXPECT_EQ(retried.value().witnesses[i].blocks.size(),
              baseline.value().witnesses[i].blocks.size());
  }
}

TEST_F(ChaosTest, AssignmentGraphBuildFailsCleanlyAndRecovers) {
  KRemInstance instance;
  auto baseline = CheckKRemDefinability(instance.graph, instance.relation, 1);
  ASSERT_TRUE(baseline.ok()) << baseline.status();

  Arm("assignment_graph.build:fail-once");
  auto faulted = CheckKRemDefinability(instance.graph, instance.relation, 1);
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(faulted.status().message().find("assignment_graph.build"),
            std::string::npos)
      << faulted.status();

  FailpointRegistry::Instance().Reset();
  auto retried = CheckKRemDefinability(instance.graph, instance.relation, 1);
  ASSERT_TRUE(retried.ok()) << retried.status();
  EXPECT_EQ(retried.value().verdict, baseline.value().verdict);
  EXPECT_EQ(retried.value().tuples_explored,
            baseline.value().tuples_explored);
}

TEST_F(ChaosTest, ReeClosureFailsCleanlyAndRecovers) {
  DataGraph g = Figure1Graph();
  BinaryRelation s = Figure1S2(g);
  auto baseline = CheckReeDefinability(g, s);
  ASSERT_TRUE(baseline.ok()) << baseline.status();

  Arm("ree.closure:fail-once");
  auto faulted = CheckReeDefinability(g, s);
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(faulted.status().message().find("ree.closure"),
            std::string::npos)
      << faulted.status();

  FailpointRegistry::Instance().Reset();
  auto retried = CheckReeDefinability(g, s);
  ASSERT_TRUE(retried.ok()) << retried.status();
  EXPECT_EQ(retried.value().verdict, baseline.value().verdict);
  EXPECT_EQ(retried.value().levels_used, baseline.value().levels_used);
  EXPECT_EQ(retried.value().monoid_size, baseline.value().monoid_size);
}

TEST_F(ChaosTest, CspSearchFailsCleanlyAndRecovers) {
  Csp csp = Csp::Full(3, 3);
  DynamicBitset neq(9);
  for (std::uint32_t a = 0; a < 3; a++) {
    for (std::uint32_t b = 0; b < 3; b++) {
      if (a != b) {
        neq.Set(a * 3 + b);
      }
    }
  }
  csp.AddConstraint(0, 1, neq);
  csp.AddConstraint(1, 2, neq);
  csp.AddConstraint(0, 2, neq);
  auto baseline = SolveCsp(csp);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  ASSERT_TRUE(baseline.value().has_value());

  Arm("csp.search:fail-once");
  auto faulted = SolveCsp(csp);
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(faulted.status().message().find("csp.search"),
            std::string::npos)
      << faulted.status();

  FailpointRegistry::Instance().Reset();
  auto retried = SolveCsp(csp);
  ASSERT_TRUE(retried.ok()) << retried.status();
  ASSERT_TRUE(retried.value().has_value());
  EXPECT_EQ(*retried.value(), *baseline.value());
}

TEST_F(ChaosTest, UcrdpqSearchFailsCleanlyAndRecovers) {
  DataGraph g = Figure1Graph();
  BinaryRelation s = Figure1S2(g);
  auto baseline = CheckUcrdpqDefinability(g, s);
  ASSERT_TRUE(baseline.ok()) << baseline.status();

  Arm("ucrdpq.search:fail-once");
  auto faulted = CheckUcrdpqDefinability(g, s);
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(faulted.status().message().find("ucrdpq.search"),
            std::string::npos)
      << faulted.status();

  FailpointRegistry::Instance().Reset();
  auto retried = CheckUcrdpqDefinability(g, s);
  ASSERT_TRUE(retried.ok()) << retried.status();
  EXPECT_EQ(retried.value().verdict, baseline.value().verdict);
  EXPECT_EQ(retried.value().seeds_tried, baseline.value().seeds_tried);
}

// --- Soft-degradation failpoints: no error, documented fallback ---------

TEST_F(ChaosTest, ThreadPoolDispatchFallsBackToInlineExecution) {
  ThreadPool pool(2);
  Arm("thread_pool.dispatch:fail");
  std::atomic<int> ran{0};
  for (int i = 0; i < 4; i++) {
    pool.Submit([&ran] { ran.fetch_add(1); });
  }
  // Inline fallback runs on the submitting thread, so all four tasks have
  // completed by the time Submit returned — no waiting needed.
  EXPECT_EQ(ran.load(), 4);
  EXPECT_GE(pool.GetStats().tasks_inline, 4u);

  FailpointRegistry::Instance().Reset();
}

TEST_F(ChaosTest, ThreadPoolDispatchFaultKeepsKRemDeterministic) {
  // The batched BFS must return bit-identical results even when every
  // dispatch fails over to inline execution.
  KRemInstance instance;
  KRemDefinabilityOptions sequential;
  auto baseline =
      CheckKRemDefinability(instance.graph, instance.relation, 2, sequential);
  ASSERT_TRUE(baseline.ok()) << baseline.status();

  Arm("thread_pool.dispatch:fail");
  KRemDefinabilityOptions threaded;
  threaded.num_threads = 2;
  auto degraded =
      CheckKRemDefinability(instance.graph, instance.relation, 2, threaded);
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  EXPECT_EQ(degraded.value().verdict, baseline.value().verdict);
  EXPECT_EQ(degraded.value().tuples_explored,
            baseline.value().tuples_explored);
}

TEST_F(ChaosTest, ResultCachePutDropsInsertQuietly) {
  ResultCache cache(64);
  BinaryRelation r(4);
  r.Set(1, 2);
  std::string key = ResultCache::MakeKey("fp", "rpq", "a.a");

  Arm("result_cache.put:fail-once");
  cache.Put(key, std::make_shared<const BinaryRelation>(r));
  EXPECT_EQ(cache.Get(key), nullptr);
  EXPECT_GE(cache.GetStats().drops, 1u);

  FailpointRegistry::Instance().Reset();
  cache.Put(key, std::make_shared<const BinaryRelation>(r));
  auto hit = cache.Get(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(hit->Test(1, 2));
}

// --- Storage failpoints: I/O faults fail cleanly, retry recovers --------

/// A container on disk plus its expected text, for the storage scenarios.
struct StorageInstance {
  StorageInstance() {
    RandomGraphOptions options;
    options.num_nodes = 16;
    options.edge_percent = 25;
    graph = RandomDataGraph(options);
    text = WriteGraphText(graph);
    // Unique per test case: ctest runs cases as parallel processes, and a
    // shared scratch file can SIGBUS (truncate under another's mapping).
    path = ::testing::TempDir() + "gqd_chaos_storage_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           ".gqdg";
  }
  DataGraph graph;
  std::string text;
  std::string path;
};

TEST_F(ChaosTest, StorageWriteFaultFailsCleanlyAndRecovers) {
  StorageInstance instance;
  Arm("storage.write:fail-once");
  Status faulted = WriteGraphContainer(instance.graph, instance.path);
  ASSERT_FALSE(faulted.ok());
  EXPECT_NE(faulted.message().find("storage.write"), std::string::npos)
      << faulted;

  FailpointRegistry::Instance().Reset();
  ASSERT_TRUE(WriteGraphContainer(instance.graph, instance.path).ok());
  auto mapped = GraphStore::OpenContainer(instance.path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  EXPECT_EQ(WriteGraphText(*mapped.value().graph), instance.text);
}

TEST_F(ChaosTest, StorageOpenAndMmapFaultsFailCleanlyAndRecover) {
  StorageInstance instance;
  ASSERT_TRUE(WriteGraphContainer(instance.graph, instance.path).ok());

  for (const char* site : {"storage.open", "storage.mmap"}) {
    Arm(std::string(site) + ":fail-once");
    auto faulted = GraphStore::OpenContainer(instance.path);
    ASSERT_FALSE(faulted.ok()) << site;
    EXPECT_NE(faulted.status().message().find(site), std::string::npos)
        << faulted.status();
    FailpointRegistry::Instance().Reset();
    auto retried = GraphStore::OpenContainer(instance.path);
    ASSERT_TRUE(retried.ok()) << site << ": " << retried.status();
    EXPECT_EQ(WriteGraphText(*retried.value().graph), instance.text);
  }
}

TEST_F(ChaosTest, StorageTruncateTornWriteIsDetectedOnOpen) {
  StorageInstance instance;
  // The torn-write failpoint lets the write complete, then cuts the file in
  // half — simulating a crash mid-flush. The open must detect the damage
  // with a clean Status, and a rewrite must recover bit-identically.
  Arm("storage.truncate:fail-once");
  Status torn = WriteGraphContainer(instance.graph, instance.path);
  ASSERT_FALSE(torn.ok());
  Status opened = GraphStore::OpenContainer(instance.path).status();
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.code(), StatusCode::kIOError) << opened;

  FailpointRegistry::Instance().Reset();
  ASSERT_TRUE(WriteGraphContainer(instance.graph, instance.path).ok());
  OpenOptions deep;
  deep.validate = true;
  auto recovered = GraphStore::OpenContainer(instance.path, deep);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(WriteGraphText(*recovered.value().graph), instance.text);
}

TEST_F(ChaosTest, RelationWriteAndOpenFaultsFailCleanlyAndRecover) {
  // The .gqdr store has its own write/open failpoints mirroring the graph
  // container's: a fault is a clean Status naming the site, and a retry
  // after disarming recovers the identical canonical pair list.
  std::string path = ::testing::TempDir() + "gqd_chaos_relation.gqdr";
  std::vector<std::pair<NodeId, NodeId>> pairs = {{3, 1}, {0, 2}, {0, 2}};

  Arm("relation.write:fail-once");
  Status faulted = WriteRelationContainer(8, pairs, 0, path);
  ASSERT_FALSE(faulted.ok());
  EXPECT_NE(faulted.message().find("relation.write"), std::string::npos)
      << faulted;
  FailpointRegistry::Instance().Reset();
  ASSERT_TRUE(WriteRelationContainer(8, pairs, 0, path).ok());

  Arm("relation.open:fail-once");
  auto open_faulted = OpenRelationContainer(path);
  ASSERT_FALSE(open_faulted.ok());
  EXPECT_NE(open_faulted.status().message().find("relation.open"),
            std::string::npos)
      << open_faulted.status();
  FailpointRegistry::Instance().Reset();
  auto retried = OpenRelationContainer(path);
  ASSERT_TRUE(retried.ok()) << retried.status();
  std::vector<std::pair<NodeId, NodeId>> canonical = {{0, 2}, {3, 1}};
  EXPECT_EQ(retried.value().pairs, canonical);
  std::remove(path.c_str());
}

// --- Socket failpoints: connection-local faults, retry recovers ---------

/// Server + service on an ephemeral port for the socket-fault scenarios.
class SocketChaosTest : public ChaosTest {
 protected:
  void SetUp() override {
    ChaosTest::SetUp();
    if (IsSkipped()) {
      return;
    }
    server_ = std::make_unique<Server>(&service_);
    ASSERT_TRUE(server_->Start(0).ok());
  }

  void TearDown() override {
    FailpointRegistry::Instance().Reset();
    if (server_ != nullptr) {
      server_->Stop();
      server_->Wait();
    }
  }

  QueryService service_;
  std::unique_ptr<Server> server_;
};

TEST_F(SocketChaosTest, ServerAcceptFaultDropsOneConnectionOnly) {
  Arm("server.accept:fail-once");
  LineClient dropped;
  // The TCP handshake is completed by the kernel, so Connect succeeds; the
  // injected post-accept fault then closes the connection server-side.
  ASSERT_TRUE(dropped.Connect(server_->port()).ok());
  EXPECT_FALSE(dropped.Call(R"({"cmd":"ping"})").ok());

  LineClient fine;
  ASSERT_TRUE(fine.Connect(server_->port()).ok());
  auto pong = fine.Call(R"({"cmd":"ping"})");
  ASSERT_TRUE(pong.ok()) << pong.status();
  EXPECT_NE(pong.value().find("\"pong\":true"), std::string::npos);
}

TEST_F(SocketChaosTest, ServerReadFaultDropsOneConnectionOnly) {
  Arm("server.read:fail-once");
  LineClient dropped;
  ASSERT_TRUE(dropped.Connect(server_->port()).ok());
  EXPECT_FALSE(dropped.Call(R"({"cmd":"ping"})").ok());

  LineClient fine;
  ASSERT_TRUE(fine.Connect(server_->port()).ok());
  EXPECT_TRUE(fine.Call(R"({"cmd":"ping"})").ok());
}

TEST_F(SocketChaosTest, ServerWriteFaultRecoversViaClientRetry) {
  Arm("server.write:fail-once");
  LineClient client;
  ASSERT_TRUE(client.Connect(server_->port()).ok());
  RetryPolicy policy;
  policy.initial_backoff = std::chrono::milliseconds(1);
  policy.jitter_seed = 1;
  auto response = client.CallWithRetry(R"({"cmd":"ping"})", policy);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_NE(response.value().find("\"pong\":true"), std::string::npos);
  EXPECT_GE(client.retries(), 1u);
}

TEST_F(SocketChaosTest, ClientConnectFaultFailsThenReconnects) {
  Arm("client.connect:fail-once");
  LineClient client;
  Status first = client.Connect(server_->port());
  ASSERT_FALSE(first.ok());
  EXPECT_NE(first.message().find("client.connect"), std::string::npos)
      << first;
  ASSERT_TRUE(client.Connect(server_->port()).ok());
  EXPECT_TRUE(client.Call(R"({"cmd":"ping"})").ok());
}

TEST_F(SocketChaosTest, ClientWriteFaultRecoversViaRetry) {
  LineClient client;
  ASSERT_TRUE(client.Connect(server_->port()).ok());
  Arm("client.write:fail-once");
  RetryPolicy policy;
  policy.initial_backoff = std::chrono::milliseconds(1);
  policy.jitter_seed = 2;
  auto response = client.CallWithRetry(R"({"cmd":"ping"})", policy);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_NE(response.value().find("\"pong\":true"), std::string::npos);
  EXPECT_GE(client.retries(), 1u);
}

TEST_F(SocketChaosTest, ClientReadFaultRecoversViaRetry) {
  LineClient client;
  ASSERT_TRUE(client.Connect(server_->port()).ok());
  Arm("client.read:fail-once");
  RetryPolicy policy;
  policy.initial_backoff = std::chrono::milliseconds(1);
  policy.jitter_seed = 3;
  auto response = client.CallWithRetry(R"({"cmd":"ping"})", policy);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_NE(response.value().find("\"pong\":true"), std::string::npos);
  EXPECT_GE(client.retries(), 1u);
}

// --- Serve path: checker faults surface as structured error responses ---

TEST_F(SocketChaosTest, CheckerFaultsSurfaceAsErrorResponsesUnderServe) {
  service_.registry().Register("fig1", Figure1Graph());
  DataGraph fig1 = Figure1Graph();
  std::string fig1_relation = WriteRelationText(fig1, Figure1S2(fig1));

  // The csp.search site only fires when a seeded search survives the
  // initial AC-3 pass, which needs an instance with a genuine violating
  // homomorphism: a uniform-value a-path folding onto its own tail.
  DataGraph tiny;
  NodeId t0 = tiny.AddNodeWithValue("d", "n0");
  NodeId t1 = tiny.AddNodeWithValue("d", "n1");
  NodeId t2 = tiny.AddNodeWithValue("d", "n2");
  tiny.AddEdgeByName(t0, "a", t1);
  tiny.AddEdgeByName(t1, "a", t2);
  tiny.AddEdgeByName(t2, "a", t2);
  BinaryRelation tiny_s(tiny.NumNodes());
  tiny_s.Set(t0, t1);
  std::string tiny_relation = WriteRelationText(tiny, tiny_s);
  service_.registry().Register("tiny", std::move(tiny));

  struct Scenario {
    const char* site;
    const char* graph;
    const std::string* relation;
    const char* checker;
    double k;
    /// csp.search faults reach the UCRDPQ checker as a CSP-level
    /// ResourceExhausted, which it folds into a budget-exhausted *verdict*
    /// (an ok response) rather than an error.
    bool degrades_to_verdict;
  };
  const Scenario scenarios[] = {
      {"krem.arena.grow", "fig1", &fig1_relation, "krem", 2.0, false},
      {"assignment_graph.build", "fig1", &fig1_relation, "krem", 1.0,
       false},
      {"ree.closure", "fig1", &fig1_relation, "ree", 0.0, false},
      {"ucrdpq.search", "fig1", &fig1_relation, "ucrdpq", 0.0, false},
      {"csp.search", "tiny", &tiny_relation, "ucrdpq", 0.0, true},
  };
  for (const Scenario& scenario : scenarios) {
    SCOPED_TRACE(scenario.site);
    JsonValue::Object request;
    request.emplace_back("cmd", "check");
    request.emplace_back("graph", scenario.graph);
    request.emplace_back("checker", scenario.checker);
    if (scenario.k > 0) {
      request.emplace_back("k", scenario.k);
    }
    request.emplace_back("relation", *scenario.relation);
    std::string line = JsonValue(std::move(request)).Serialize();

    LineClient client;
    ASSERT_TRUE(client.Connect(server_->port()).ok());
    Arm(std::string(scenario.site) + ":fail-once");
    auto faulted = client.Call(line);
    ASSERT_TRUE(faulted.ok()) << faulted.status();
    auto parsed = JsonValue::Parse(faulted.value());
    ASSERT_TRUE(parsed.ok()) << faulted.value();
    if (scenario.degrades_to_verdict) {
      EXPECT_TRUE(parsed.value().Find("ok")->AsBool()) << faulted.value();
      EXPECT_EQ(parsed.value().GetString("verdict").ValueOrDie(),
                "budget exhausted")
          << faulted.value();
    } else {
      EXPECT_FALSE(parsed.value().Find("ok")->AsBool()) << faulted.value();
      EXPECT_EQ(
          parsed.value().Find("error")->GetString("code").ValueOrDie(),
          "ResourceExhausted")
          << faulted.value();
    }

    // fail-once has burned out: the very same request now succeeds on the
    // same server, and the connection survived the checker fault.
    FailpointRegistry::Instance().Reset();
    auto clean = client.Call(line);
    ASSERT_TRUE(clean.ok()) << clean.status();
    EXPECT_NE(clean.value().find("\"ok\":true"), std::string::npos)
        << clean.value();
  }
}

// --- Setup failpoints on warm hits ---------------------------------------
//
// A served check that reuses a held setup (k-assignment graph, REE level
// monoid) replays the build's failpoint hits, so an armed site fires on a
// warm hit exactly as on a cold build, and disarming restores bit-identical
// responses.

std::string HandleCheck(QueryService* service, const std::string& checker,
                        double k, const std::string& relation) {
  JsonValue::Object request;
  request.emplace_back("cmd", "check");
  request.emplace_back("graph", "fig1");
  request.emplace_back("checker", checker);
  request.emplace_back("k", k);
  request.emplace_back("relation", relation);
  bool shutdown = false;
  return service->HandleLine(JsonValue(std::move(request)).Serialize(),
                             &shutdown);
}

TEST_F(ChaosTest, SetupFailpointsFireColdAndWarmAndRecoverBitIdentically) {
  DataGraph fig1 = Figure1Graph();
  std::string relation = WriteRelationText(fig1, Figure1S2(fig1));
  struct Scenario {
    const char* spec;
    const char* checker;
    double k;
  };
  // ree.closure is hit once per closure round; on Figure 1 the closure
  // runs several, so fail-nth:2 faults the second round cold and warm.
  const Scenario scenarios[] = {
      {"assignment_graph.build:fail-once", "krem", 1.0},
      {"assignment_graph.build:fail-once", "rpq", 0.0},
      {"ree.closure:fail-once", "ree", 0.0},
      {"ree.closure:fail-nth:2", "ree", 0.0},
  };
  for (const Scenario& scenario : scenarios) {
    SCOPED_TRACE(std::string(scenario.spec) + " " + scenario.checker);
    std::string site = std::string(scenario.spec).substr(
        0, std::string(scenario.spec).find(':'));

    // Cold: a fresh service builds the setup under the armed site.
    QueryService cold;
    cold.registry().Register("fig1", Figure1Graph());
    Arm(scenario.spec);
    std::uint64_t fired = FiredCount(site);
    std::string cold_fault =
        HandleCheck(&cold, scenario.checker, scenario.k, relation);
    EXPECT_EQ(FiredCount(site), fired + 1);
    EXPECT_NE(cold_fault.find("ResourceExhausted"), std::string::npos)
        << cold_fault;
    EXPECT_NE(cold_fault.find(site), std::string::npos) << cold_fault;
    FailpointRegistry::Instance().Reset();
    std::string baseline =
        HandleCheck(&cold, scenario.checker, scenario.k, relation);
    EXPECT_NE(baseline.find("\"ok\":true"), std::string::npos) << baseline;

    // Warm: the setup is held now; the armed site still fires on the hit
    // and the fault response is the cold one, byte for byte.
    Arm(scenario.spec);
    fired = FiredCount(site);
    std::string warm_fault =
        HandleCheck(&cold, scenario.checker, scenario.k, relation);
    EXPECT_EQ(FiredCount(site), fired + 1);
    EXPECT_EQ(warm_fault, cold_fault);
    FailpointRegistry::Instance().Reset();
    EXPECT_EQ(HandleCheck(&cold, scenario.checker, scenario.k, relation),
              baseline);
  }
}

// --- Cluster failpoints: router-side faults fail over to a replica ------

/// Two workers behind a router with replication 2 — every graph lives on
/// both, so any single injected fault has a live replica to fail over to.
/// Routed responses carry per-request routing metadata — served_by,
/// failovers, trace_id — that legitimately differs between replicas; the
/// bit-identity invariant covers the query payload.
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

class ClusterChaosTest : public ChaosTest {
 protected:
  void SetUp() override {
    ChaosTest::SetUp();
    if (IsSkipped()) {
      return;
    }
    RouterOptions options;
    for (int i = 0; i < 2; i++) {
      auto service = std::make_unique<QueryService>();
      auto server = std::make_unique<Server>(service.get());
      ASSERT_TRUE(server->Start(0).ok());
      options.worker_ports.push_back(server->port());
      services_.push_back(std::move(service));
      servers_.push_back(std::move(server));
    }
    options.replication = 2;
    options.pool_size = 2;
    options.probe_interval_ms = 10;
    options.suspect_threshold = 2;
    router_ = std::make_unique<Router>(options);
    ASSERT_TRUE(router_->Start().ok());

    JsonValue::Object load;
    load.emplace_back("cmd", "load");
    load.emplace_back("name", "fig1");
    load.emplace_back("text", WriteGraphText(Figure1Graph()));
    std::string loaded = Route(JsonValue(std::move(load)).Serialize());
    ASSERT_NE(loaded.find("\"ok\":true"), std::string::npos) << loaded;
  }

  void TearDown() override {
    FailpointRegistry::Instance().Reset();
    if (router_ != nullptr) {
      router_->Stop();
    }
    for (auto& server : servers_) {
      server->Stop();
      server->Wait();
    }
  }

  std::string Route(const std::string& line) {
    bool shutdown = false;
    return router_->HandleLine(line, &shutdown);
  }

  static std::string EvalLine() {
    return R"({"cmd":"eval","graph":"fig1","language":"rpq",)"
           R"("query":"a.a"})";
  }

  /// Polls until every worker probes healthy again (the armed fault has
  /// burned out and any rejoin warm replay has completed).
  bool WaitForFleetHealthy() {
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
      bool all_healthy = true;
      for (std::size_t i = 0; i < router_->worker_count(); i++) {
        all_healthy &= router_->worker_state(i) == WorkerState::kHealthy;
      }
      if (all_healthy) {
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

TEST_F(ClusterChaosTest, ConnectFaultFailsOverInvisibly) {
  std::string canonical = Route(EvalLine());
  ASSERT_NE(canonical.find("\"ok\":true"), std::string::npos) << canonical;
  Arm("cluster.connect:fail-once");
  std::string faulted = Route(EvalLine());
  // The client sees the bit-identical response the replica computed, not
  // the transport fault.
  EXPECT_EQ(PayloadOnly(faulted), PayloadOnly(canonical));
  EXPECT_GE(router_->GetSnapshot().failovers, 1u);
  EXPECT_GE(FiredCount("cluster.connect"), 1u);
  EXPECT_TRUE(WaitForFleetHealthy());
}

TEST_F(ClusterChaosTest, WriteFaultFailsOverInvisibly) {
  std::string canonical = Route(EvalLine());
  ASSERT_NE(canonical.find("\"ok\":true"), std::string::npos) << canonical;
  Arm("cluster.write:fail-once");
  std::string faulted = Route(EvalLine());
  EXPECT_EQ(PayloadOnly(faulted), PayloadOnly(canonical));
  EXPECT_GE(router_->GetSnapshot().failovers, 1u);
  EXPECT_TRUE(WaitForFleetHealthy());
}

TEST_F(ClusterChaosTest, ReadFaultMidRequestReExecutesOnReplica) {
  // cluster.read fires *after* the worker processed the request — the
  // mid-request-kill model. Queries are pure, so re-execution on the
  // replica returns the same bytes.
  std::string canonical = Route(EvalLine());
  ASSERT_NE(canonical.find("\"ok\":true"), std::string::npos) << canonical;
  Arm("cluster.read:fail-once");
  std::string faulted = Route(EvalLine());
  EXPECT_EQ(PayloadOnly(faulted), PayloadOnly(canonical));
  EXPECT_GE(router_->GetSnapshot().failovers, 1u);
  EXPECT_TRUE(WaitForFleetHealthy());
}

TEST_F(ClusterChaosTest, ProbeLossMarksSuspectThenRecovers) {
  Arm("cluster.probe:fail-once");
  // The next probe of some worker is lost; the worker turns suspect, the
  // probe after that succeeds and pulls it back through rejoining (with a
  // warm replay) to healthy. Traffic keeps flowing the whole time.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (FiredCount("cluster.probe") == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(FiredCount("cluster.probe"), 1u);
  std::string response = Route(EvalLine());
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << response;
  EXPECT_TRUE(WaitForFleetHealthy());
}

// --- Resource governance --------------------------------------------------

TEST(ResourceBudgetTest, ChargesPeaksAndLatches) {
  ResourceBudget budget(1000, 10);
  EXPECT_FALSE(budget.Exhausted());
  budget.ChargeBytes(800);
  budget.ChargeBytes(400);
  EXPECT_EQ(budget.bytes_used(), 1200u);
  EXPECT_EQ(budget.bytes_peak(), 1200u);
  EXPECT_TRUE(budget.Exhausted());  // observed while over budget
  budget.ChargeBytes(-600);
  EXPECT_EQ(budget.bytes_used(), 600u);
  EXPECT_EQ(budget.bytes_peak(), 1200u);  // peak never decreases
  // Exhaustion latched at the poll above, even though current usage has
  // dropped back under the cap.
  EXPECT_TRUE(budget.Exhausted());
  EXPECT_EQ(budget.Check().code(), StatusCode::kResourceExhausted);

  ResourceBudget tuples(0, 10);
  tuples.ChargeTuples(11);
  EXPECT_TRUE(tuples.Exhausted());
  EXPECT_NE(tuples.Check().message().find("tuple budget"),
            std::string::npos);

  ResourceBudget unlimited;
  unlimited.ChargeBytes(1 << 30);
  unlimited.ChargeTuples(1 << 30);
  EXPECT_FALSE(unlimited.Exhausted());
  EXPECT_TRUE(unlimited.Check().ok());
}

TEST(ResourceBudgetTest, WallClockAxis) {
  ResourceBudget budget(0, 0, std::chrono::nanoseconds(0));
  EXPECT_TRUE(budget.Exhausted());
  EXPECT_NE(budget.Check().message().find("wall-clock"), std::string::npos);
}

TEST(ResourceBudgetTest, StrideCheckPollsEvery256) {
  ResourceBudget budget(1, 0);
  budget.ChargeBytes(2);  // over budget immediately
  std::uint32_t counter = 0;
  int trips = 0;
  for (int i = 0; i < 512; i++) {
    if (GQD_BUDGET_STRIDE_CHECK(&budget, counter)) {
      trips++;
    }
  }
  EXPECT_EQ(trips, 2);  // fires at the 256th and 512th poll only

  const ResourceBudget* none = nullptr;
  std::uint32_t null_counter = 0;
  EXPECT_FALSE(GQD_BUDGET_STRIDE_CHECK(none, null_counter));
}

TEST(ResourceBudgetTest, KRemByteBudgetStopsCleanlyOnBenchWorkload) {
  // The acceptance workload: the E2 bench's largest SweepN graph (n = 7,
  // δ = 2, seed 99) at k = 2, with the legacy tuple cap out of the way so
  // the 32 MiB byte budget is what stops the BFS — after well over 200k
  // macro tuples. The checker must return a budget-exhausted verdict with
  // a partial-progress report — not crash or OOM.
  RandomGraphOptions options;
  options.num_nodes = 7;
  options.num_labels = 1;
  options.num_data_values = 2;
  options.edge_percent = 30;
  options.seed = 99;
  DataGraph g = RandomDataGraph(options);
  BinaryRelation s = RandomRelation(g.NumNodes(), 20, 1234);

  constexpr std::uint64_t kByteCap = 32ull << 20;
  ResourceBudget budget(kByteCap, 0);
  KRemDefinabilityOptions krem_options;
  krem_options.max_tuples = std::numeric_limits<std::size_t>::max();
  krem_options.budget = &budget;
  auto result = CheckKRemDefinability(g, s, 2, krem_options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value().verdict, DefinabilityVerdict::kBudgetExhausted);
  ASSERT_TRUE(result.value().partial.has_value());
  const PartialProgress& partial = *result.value().partial;
  EXPECT_EQ(partial.stage, "krem-bfs");
  EXPECT_GT(partial.tuples_explored, 200'000u);
  EXPECT_GT(partial.bytes_peak, kByteCap);
  // Coarse accounting may overshoot by one growth step, not by gigabytes.
  EXPECT_LT(partial.bytes_peak, 4 * kByteCap);
  EXPECT_FALSE(PartialProgressToString(partial).empty());
}

TEST(ResourceBudgetTest, ReeClosureReportsPartialProgress) {
  // A relation whose monoid is far larger than a 1-tuple budget allows.
  RandomGraphOptions options;
  options.num_nodes = 6;
  options.num_labels = 2;
  options.num_data_values = 3;
  options.edge_percent = 40;
  options.seed = 5;
  DataGraph g = RandomDataGraph(options);
  BinaryRelation s = RandomRelation(g.NumNodes(), 8, 21);

  ResourceBudget budget(0, 1);
  ReeDefinabilityOptions ree_options;
  ree_options.budget = &budget;
  auto result = CheckReeDefinability(g, s, ree_options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value().verdict, DefinabilityVerdict::kBudgetExhausted);
  ASSERT_TRUE(result.value().partial.has_value());
  EXPECT_EQ(result.value().partial->stage, "ree-closure");
}

TEST(ResourceBudgetTest, ReeMonoidByteCapLatchesWithPartialProgress) {
  // The monoid cap is byte-denominated: a cap far below one element's
  // footprint latches on the first insertion and the checker reports how
  // far it got, exactly like an options.budget trip but under its own
  // stage name.
  DataGraph g = Figure1Graph();
  BinaryRelation s = Figure1S2(g);
  ReeDefinabilityOptions options;
  options.max_monoid_bytes = 1;
  auto result = CheckReeDefinability(g, s, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value().verdict, DefinabilityVerdict::kBudgetExhausted);
  ASSERT_TRUE(result.value().partial.has_value());
  const PartialProgress& partial = *result.value().partial;
  EXPECT_EQ(partial.stage, "ree-monoid");
  EXPECT_GE(partial.tuples_explored, 1u);
  EXPECT_GT(partial.bytes_peak, 1u);
  EXPECT_EQ(result.value().monoid_size, partial.tuples_explored);
}

TEST(ResourceBudgetTest, ReeMonoidCountCapReportsPartialProgress) {
  // The legacy element-count cap rides the same internal budget now, so
  // it produces the same structured partial report instead of a bare
  // verdict.
  DataGraph g = Figure1Graph();
  BinaryRelation s = Figure1S2(g);
  ReeDefinabilityOptions options;
  options.max_monoid_size = 2;
  auto result = CheckReeDefinability(g, s, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value().verdict, DefinabilityVerdict::kBudgetExhausted);
  ASSERT_TRUE(result.value().partial.has_value());
  EXPECT_EQ(result.value().partial->stage, "ree-monoid");
  EXPECT_GT(result.value().partial->tuples_explored, 2u);
}

TEST(ResourceBudgetTest, ReeMonoidCapsUnlimitedWhenZero) {
  // 0 disables both monoid caps (ResourceBudget semantics): Figure 1's S2
  // closure completes and returns a real verdict.
  DataGraph g = Figure1Graph();
  BinaryRelation s = Figure1S2(g);
  ReeDefinabilityOptions options;
  options.max_monoid_size = 0;
  options.max_monoid_bytes = 0;
  auto result = CheckReeDefinability(g, s, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_NE(result.value().verdict, DefinabilityVerdict::kBudgetExhausted);
  EXPECT_FALSE(result.value().partial.has_value());
}

}  // namespace
}  // namespace gqd
