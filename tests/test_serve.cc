// End-to-end tests for `gqd serve` over real TCP sockets: concurrent
// clients, batched evaluation vs the single-threaded evaluators, deadline
// enforcement over the wire, admission control and load shedding,
// per-request budgets, request-size limits, stats, and shutdown.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <memory>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "definability/krem_definability.h"
#include "definability/ree_definability.h"
#include "eval/ree_eval.h"
#include "eval/rem_eval.h"
#include "eval/rpq_eval.h"
#include "graph/examples.h"
#include "graph/generators.h"
#include "graph/serialization.h"
#include "graph/sparse_relation.h"
#include "obs/trace_context.h"
#include "ree/parser.h"
#include "regex/parser.h"
#include "rem/parser.h"
#include "runtime/client.h"
#include "runtime/server.h"
#include "runtime/service.h"

namespace gqd {
namespace {

/// A service + server bound to an ephemeral loopback port.
class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<Server>(&service_);
    ASSERT_TRUE(server_->Start(0).ok());
  }

  void TearDown() override {
    server_->Stop();
    server_->Wait();
  }

  /// One request/response round trip on a fresh connection.
  std::string Call(const std::string& request) {
    LineClient client;
    EXPECT_TRUE(client.Connect(server_->port()).ok());
    auto response = client.Call(request);
    EXPECT_TRUE(response.ok()) << response.status();
    return response.ok() ? response.value() : "";
  }

  QueryService service_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServeTest, LoadEvalInfoRoundTrip) {
  JsonValue::Object load;
  load.emplace_back("cmd", "load");
  load.emplace_back("name", "fig1");
  load.emplace_back("text", WriteGraphText(Figure1Graph()));
  std::string loaded = Call(JsonValue(std::move(load)).Serialize());
  auto parsed = JsonValue::Parse(loaded);
  ASSERT_TRUE(parsed.ok()) << loaded;
  EXPECT_TRUE(parsed.value().Find("ok")->AsBool());
  EXPECT_EQ(parsed.value().GetString("fingerprint").ValueOrDie().size(),
            16u);
  EXPECT_EQ(parsed.value().Find("info")->Find("nodes")->AsNumber(), 10);

  std::string evaled = Call(
      R"({"id":"q1","cmd":"eval","graph":"fig1","language":"rpq",)"
      R"("query":"a.a.a"})");
  auto eval_parsed = JsonValue::Parse(evaled);
  ASSERT_TRUE(eval_parsed.ok()) << evaled;
  EXPECT_TRUE(eval_parsed.value().Find("ok")->AsBool());
  EXPECT_EQ(eval_parsed.value().GetString("id").ValueOrDie(), "q1");
  DataGraph g = Figure1Graph();
  EXPECT_EQ(eval_parsed.value().GetString("relation").ValueOrDie(),
            EvaluateRpq(g, ParseRegex("a.a.a").ValueOrDie()).ToString(g));

  std::string info = Call(R"({"cmd":"info","graph":"fig1"})");
  EXPECT_NE(info.find("\"fingerprint\""), std::string::npos) << info;
}

TEST_F(ServeTest, FourConcurrentClients) {
  service_.registry().Register("fig1", Figure1Graph());
  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 50;
  std::vector<int> failures(kClients, 0);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; c++) {
    clients.emplace_back([this, c, &failures] {
      LineClient client;
      if (!client.Connect(server_->port()).ok()) {
        failures[c] = kRequestsPerClient;
        return;
      }
      const char* queries[] = {"a+", "a.a", "a.a.a", "a*"};
      for (int i = 0; i < kRequestsPerClient; i++) {
        JsonValue::Object request;
        request.emplace_back("cmd", "eval");
        request.emplace_back("graph", "fig1");
        request.emplace_back("language", "rpq");
        request.emplace_back("query", queries[(c + i) % 4]);
        auto response =
            client.Call(JsonValue(std::move(request)).Serialize());
        if (!response.ok() ||
            response.value().find("\"ok\":true") == std::string::npos) {
          failures[c]++;
        }
      }
    });
  }
  for (std::thread& client : clients) {
    client.join();
  }
  for (int c = 0; c < kClients; c++) {
    EXPECT_EQ(failures[c], 0) << "client " << c;
  }
  EXPECT_GE(service_.total_requests(),
            static_cast<std::uint64_t>(kClients * kRequestsPerClient));
}

TEST_F(ServeTest, BatchMatchesSingleThreadedEval) {
  service_.registry().Register("fig1", Figure1Graph());
  DataGraph g = Figure1Graph();
  // One batch per language; each result must equal the plain
  // single-threaded evaluator's rendering (the `gqd eval` code path).
  struct Case {
    const char* language;
    std::vector<std::string> queries;
    std::vector<std::string> expected;
  };
  std::vector<Case> cases;
  {
    Case c;
    c.language = "rpq";
    c.queries = {"a", "a.a", "a.a.a", "a+", "a*"};
    for (const std::string& q : c.queries) {
      c.expected.push_back(
          EvaluateRpq(g, ParseRegex(q).ValueOrDie()).ToString(g));
    }
    cases.push_back(std::move(c));
  }
  {
    Case c;
    c.language = "rem";
    c.queries = {"$r1. a+ [r1=]", "$r1. a.a [r1!=]"};
    for (const std::string& q : c.queries) {
      c.expected.push_back(
          EvaluateRem(g, ParseRem(q).ValueOrDie()).ToString(g));
    }
    cases.push_back(std::move(c));
  }
  {
    Case c;
    c.language = "ree";
    c.queries = {"(a.a)=", "(a+)="};
    for (const std::string& q : c.queries) {
      c.expected.push_back(
          EvaluateRee(g, ParseRee(q).ValueOrDie()).ToString(g));
    }
    cases.push_back(std::move(c));
  }
  for (const Case& test_case : cases) {
    JsonValue::Object request;
    request.emplace_back("cmd", "eval");
    request.emplace_back("graph", "fig1");
    request.emplace_back("language", test_case.language);
    JsonValue::Array queries;
    for (const std::string& q : test_case.queries) {
      queries.emplace_back(q);
    }
    request.emplace_back("queries", JsonValue(std::move(queries)));
    std::string response = Call(JsonValue(std::move(request)).Serialize());
    auto parsed = JsonValue::Parse(response);
    ASSERT_TRUE(parsed.ok()) << response;
    ASSERT_TRUE(parsed.value().Find("ok")->AsBool()) << response;
    const JsonValue::Array& results =
        parsed.value().Find("results")->AsArray();
    ASSERT_EQ(results.size(), test_case.queries.size());
    for (std::size_t i = 0; i < results.size(); i++) {
      EXPECT_TRUE(results[i].Find("ok")->AsBool());
      EXPECT_EQ(results[i].GetString("relation").ValueOrDie(),
                test_case.expected[i])
          << test_case.language << " " << test_case.queries[i];
    }
  }
}

TEST_F(ServeTest, BatchReportsPerQueryErrors) {
  service_.registry().Register("fig1", Figure1Graph());
  std::string response = Call(
      R"({"cmd":"eval","graph":"fig1","language":"rpq",)"
      R"("queries":["a+","((","a.a"]})");
  auto parsed = JsonValue::Parse(response);
  ASSERT_TRUE(parsed.ok()) << response;
  ASSERT_TRUE(parsed.value().Find("ok")->AsBool()) << response;
  const JsonValue::Array& results =
      parsed.value().Find("results")->AsArray();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].Find("ok")->AsBool());
  EXPECT_FALSE(results[1].Find("ok")->AsBool());
  EXPECT_NE(results[1].Find("error"), nullptr);
  EXPECT_TRUE(results[2].Find("ok")->AsBool());
}

TEST_F(ServeTest, DeadlineExceededOverTheWire) {
  // A definability instance that runs for minutes unconstrained must come
  // back as DeadlineExceeded well within deadline + grace.
  RandomGraphOptions options;
  options.num_nodes = 12;
  options.num_labels = 2;
  options.num_data_values = 6;
  options.edge_percent = 25;
  options.seed = 7;
  DataGraph g = RandomDataGraph(options);
  BinaryRelation s = RandomRelation(g.NumNodes(), 30, 11);
  std::string relation_text = WriteRelationText(g, s);
  service_.registry().Register("hard", std::move(g));

  JsonValue::Object request;
  request.emplace_back("cmd", "check");
  request.emplace_back("graph", "hard");
  request.emplace_back("checker", "krem");
  request.emplace_back("k", 3.0);
  request.emplace_back("relation", relation_text);
  request.emplace_back("deadline_ms", 100.0);
  auto start = std::chrono::steady_clock::now();
  std::string response = Call(JsonValue(std::move(request)).Serialize());
  double elapsed_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  auto parsed = JsonValue::Parse(response);
  ASSERT_TRUE(parsed.ok()) << response;
  EXPECT_FALSE(parsed.value().Find("ok")->AsBool()) << response;
  EXPECT_EQ(
      parsed.value().Find("error")->GetString("code").ValueOrDie(),
      "DeadlineExceeded")
      << response;
  EXPECT_LT(elapsed_ms, 2000.0);
}

TEST_F(ServeTest, LoadErrorsCarryLineNumbers) {
  std::string response = Call(
      R"({"cmd":"load","name":"bad","text":"node u 0\nbogus here\n"})");
  auto parsed = JsonValue::Parse(response);
  ASSERT_TRUE(parsed.ok()) << response;
  EXPECT_FALSE(parsed.value().Find("ok")->AsBool());
  EXPECT_NE(parsed.value()
                .Find("error")
                ->GetString("message")
                .ValueOrDie()
                .find("line 2"),
            std::string::npos)
      << response;
}

TEST_F(ServeTest, LintAndStatsCommands) {
  service_.registry().Register("fig1", Figure1Graph());
  std::string lint = Call(
      R"({"cmd":"lint","language":"rem","query":"$r1. a+ [r1=]",)"
      R"("graph":"fig1"})");
  auto lint_parsed = JsonValue::Parse(lint);
  ASSERT_TRUE(lint_parsed.ok()) << lint;
  EXPECT_TRUE(lint_parsed.value().Find("ok")->AsBool()) << lint;
  EXPECT_TRUE(lint_parsed.value().Find("diagnostics")->is_array());

  (void)Call(
      R"({"cmd":"eval","graph":"fig1","language":"rpq","query":"a+"})");
  std::string stats = Call(R"({"cmd":"stats"})");
  auto stats_parsed = JsonValue::Parse(stats);
  ASSERT_TRUE(stats_parsed.ok()) << stats;
  const JsonValue* body = stats_parsed.value().Find("stats");
  ASSERT_NE(body, nullptr);
  EXPECT_GE(body->GetInt("requests").ValueOrDie(), 2);
  ASSERT_NE(body->Find("cache"), nullptr);
  ASSERT_NE(body->Find("pool"), nullptr);
  ASSERT_NE(body->Find("latency_histogram_us"), nullptr);
}

TEST_F(ServeTest, TracedEvalReturnsSpanTreeInline) {
  service_.registry().Register("fig1", Figure1Graph());
  std::string traced = Call(
      R"({"cmd":"eval","graph":"fig1","language":"rpq","query":"a+",)"
      R"("trace":true})");
  auto parsed = JsonValue::Parse(traced);
  ASSERT_TRUE(parsed.ok()) << traced;
  EXPECT_TRUE(parsed.value().Find("ok")->AsBool()) << traced;
  const JsonValue* trace = parsed.value().Find("trace");
  ASSERT_NE(trace, nullptr) << traced;
  ASSERT_TRUE(trace->is_array()) << traced;
#ifndef GQD_DISABLE_TRACING
  // The span tree covers the full serving path: admission gate, cache
  // lookup, and the handler, all nested under serve.request.
  EXPECT_NE(traced.find("\"serve.request\""), std::string::npos) << traced;
  EXPECT_NE(traced.find("\"serve.admission\""), std::string::npos) << traced;
  EXPECT_NE(traced.find("\"serve.handler\""), std::string::npos) << traced;
  EXPECT_NE(traced.find("\"serve.cache_lookup\""), std::string::npos)
      << traced;
  // A cold cache lookup reports hit: 0.
  EXPECT_NE(traced.find("\"hit\":0"), std::string::npos) << traced;
#endif  // GQD_DISABLE_TRACING

  // Without trace:true no trace field is attached.
  std::string untraced = Call(
      R"({"cmd":"eval","graph":"fig1","language":"rpq","query":"a.a"})");
  EXPECT_EQ(untraced.find("\"trace\""), std::string::npos) << untraced;
}

#ifndef GQD_DISABLE_TRACING

// The distributed-tracing path: a request carrying a traceparent string
// records spans quietly; the router (here: the test) drains them later
// with the `spans` command.
TEST_F(ServeTest, StringTraceContextRecordsSpansForTheSpansDrain) {
  service_.registry().Register("fig1", Figure1Graph());
  TraceContext context = TraceContext::Mint();
  context.parent_span = 42;  // plays the router's transport span

  JsonValue::Object request;
  request.emplace_back("cmd", "eval");
  request.emplace_back("graph", "fig1");
  request.emplace_back("language", "rpq");
  request.emplace_back("query", "a+");
  request.emplace_back("trace", context.ToTraceparent());
  std::string response = Call(JsonValue(std::move(request)).Serialize());
  auto parsed = JsonValue::Parse(response);
  ASSERT_TRUE(parsed.ok()) << response;
  EXPECT_TRUE(parsed.value().Find("ok")->AsBool()) << response;
  // The response echoes the trace id but embeds no inline tree — the
  // spans wait server-side for the drain.
  EXPECT_EQ(parsed.value().GetString("trace_id").ValueOrDie(),
            context.TraceIdHex());
  EXPECT_EQ(response.find("\"serve.request\""), std::string::npos)
      << response;

  JsonValue::Object drain;
  drain.emplace_back("cmd", "spans");
  drain.emplace_back("trace", context.ToTraceparent());
  std::string drain_line = JsonValue(std::move(drain)).Serialize();
  std::string drained = Call(drain_line);
  auto drain_parsed = JsonValue::Parse(drained);
  ASSERT_TRUE(drain_parsed.ok()) << drained;
  EXPECT_TRUE(drain_parsed.value().Find("ok")->AsBool()) << drained;
  EXPECT_EQ(drain_parsed.value().GetString("trace_id").ValueOrDie(),
            context.TraceIdHex());
  ASSERT_NE(drain_parsed.value().Find("now_ns"), nullptr) << drained;
  EXPECT_GT(drain_parsed.value().Find("now_ns")->AsNumber(), 0) << drained;
  const JsonValue* spans = drain_parsed.value().Find("spans");
  ASSERT_NE(spans, nullptr) << drained;
  ASSERT_TRUE(spans->is_array()) << drained;
  std::vector<OwnedSpan> batch =
      ParseSpanBatch(spans->Serialize(), "worker 0", 2);
  ASSERT_FALSE(batch.empty()) << drained;
  bool found_request = false;
  for (const OwnedSpan& span : batch) {
    if (span.name == "serve.request") {
      found_request = true;
      // The request root parented under the caller's span id.
      EXPECT_EQ(span.parent_id, 42u);
    }
  }
  EXPECT_TRUE(found_request) << drained;

  // Take is destructive: a second drain of the same trace is empty.
  std::string again = Call(drain_line);
  EXPECT_NE(again.find("\"spans\":[]"), std::string::npos) << again;
}

#endif  // GQD_DISABLE_TRACING

TEST_F(ServeTest, SpansCommandRejectsMissingOrMalformedTrace) {
  EXPECT_NE(Call(R"({"cmd":"spans"})").find("\"ok\":false"),
            std::string::npos);
  std::string bad = Call(R"({"cmd":"spans","trace":"garbage"})");
  EXPECT_NE(bad.find("\"ok\":false"), std::string::npos) << bad;
  EXPECT_NE(bad.find("traceparent"), std::string::npos) << bad;
}

TEST_F(ServeTest, LogCommandReturnsStructuredEvents) {
  JsonValue::Object load;
  load.emplace_back("cmd", "load");
  load.emplace_back("name", "fig1");
  load.emplace_back("text", WriteGraphText(Figure1Graph()));
  std::string loaded = Call(JsonValue(std::move(load)).Serialize());
  EXPECT_NE(loaded.find("\"ok\":true"), std::string::npos) << loaded;

  std::string response = Call(R"({"cmd":"log"})");
  auto parsed = JsonValue::Parse(response);
  ASSERT_TRUE(parsed.ok()) << response;
  EXPECT_TRUE(parsed.value().Find("ok")->AsBool()) << response;
  EXPECT_GE(parsed.value().GetInt("emitted").ValueOrDie(), 1);
  const JsonValue* events = parsed.value().Find("events");
  ASSERT_NE(events, nullptr) << response;
  ASSERT_TRUE(events->is_array()) << response;
  bool found_load = false;
  for (const JsonValue& event : events->AsArray()) {
    if (event.GetStringOr("event", "").ValueOrDie() == "graph_load" &&
        event.GetStringOr("graph", "").ValueOrDie() == "fig1") {
      found_load = true;
      EXPECT_EQ(event.GetStringOr("component", "").ValueOrDie(), "serve");
      EXPECT_EQ(event.GetStringOr("level", "").ValueOrDie(), "info");
    }
  }
  EXPECT_TRUE(found_load) << response;

  // The min_level filter narrows the snapshot; garbage is rejected.
  std::string errors_only = Call(R"({"cmd":"log","min_level":"error"})");
  EXPECT_NE(errors_only.find("\"ok\":true"), std::string::npos)
      << errors_only;
  EXPECT_EQ(errors_only.find("graph_load"), std::string::npos)
      << errors_only;
  EXPECT_NE(Call(R"({"cmd":"log","min_level":"loud"})").find("\"ok\":false"),
            std::string::npos);
}

TEST_F(ServeTest, MetricsCommandRendersPrometheusText) {
  service_.registry().Register("fig1", Figure1Graph());
  (void)Call(
      R"({"cmd":"eval","graph":"fig1","language":"rpq","query":"a+"})");
  std::string response = Call(R"({"cmd":"metrics"})");
  auto parsed = JsonValue::Parse(response);
  ASSERT_TRUE(parsed.ok()) << response;
  EXPECT_TRUE(parsed.value().Find("ok")->AsBool()) << response;
  std::string text = parsed.value().GetString("metrics").ValueOrDie();
  // Every serving subsystem exposes at least one family.
  EXPECT_NE(text.find("# TYPE gqd_requests_total counter"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("gqd_request_latency_us_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(text.find("gqd_command_requests_total{command=\"eval\"}"),
            std::string::npos);
  EXPECT_NE(text.find("gqd_cache_hits_total"), std::string::npos);
  EXPECT_NE(text.find("gqd_pool_threads"), std::string::npos);
  EXPECT_NE(text.find("gqd_admission_admitted_total"), std::string::npos);
  // Budget-axis counters are pre-registered so dashboards see zeros
  // before the first trip.
  EXPECT_NE(text.find("gqd_budget_exhausted_total{axis=\"bytes\"} 0"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("gqd_budget_exhausted_total{axis=\"tuples\"}"),
            std::string::npos);
  EXPECT_NE(text.find("gqd_budget_exhausted_total{axis=\"wall\"}"),
            std::string::npos);
  // Failpoint sites registered anywhere in the binary are mirrored.
  EXPECT_NE(text.find("gqd_failpoint_triggered_total{site="),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("gqd_failpoint_hits_total{site="), std::string::npos);
}

TEST_F(ServeTest, StatsReportPerCommandLatencyQuantiles) {
  service_.registry().Register("fig1", Figure1Graph());
  (void)Call(
      R"({"cmd":"eval","graph":"fig1","language":"rpq","query":"a+"})");
  (void)Call(R"({"cmd":"ping"})");
  std::string stats = Call(R"({"cmd":"stats"})");
  auto parsed = JsonValue::Parse(stats);
  ASSERT_TRUE(parsed.ok()) << stats;
  const JsonValue* body = parsed.value().Find("stats");
  ASSERT_NE(body, nullptr);
  const JsonValue* per_command = body->Find("per_command_latency_us");
  ASSERT_NE(per_command, nullptr) << stats;
  const JsonValue* eval_latency = per_command->Find("eval");
  ASSERT_NE(eval_latency, nullptr) << stats;
  EXPECT_GE(eval_latency->GetInt("count").ValueOrDie(), 1);
  EXPECT_GE(eval_latency->GetInt("p99").ValueOrDie(),
            eval_latency->GetInt("p50").ValueOrDie());
  ASSERT_NE(body->Find("budget_exhausted"), nullptr) << stats;
  EXPECT_EQ(body->Find("budget_exhausted")->GetInt("bytes").ValueOrDie(), 0);
}

TEST_F(ServeTest, MalformedRequestsGetErrors) {
  EXPECT_NE(Call("this is not json").find("\"ok\":false"),
            std::string::npos);
  EXPECT_NE(Call("[1,2,3]").find("must be a JSON object"),
            std::string::npos);
  EXPECT_NE(Call(R"({"cmd":"frobnicate"})").find("unknown command"),
            std::string::npos);
  EXPECT_NE(Call(R"({"cmd":"eval"})").find("graph"), std::string::npos);
}

TEST_F(ServeTest, PingRoundTrip) {
  std::string response = Call(R"({"cmd":"ping"})");
  EXPECT_NE(response.find("\"pong\":true"), std::string::npos) << response;
}

TEST_F(ServeTest, PerRequestBudgetReturnsPartialProgress) {
  // The same hard instance as DeadlineExceededOverTheWire, but bounded by a
  // per-request byte budget instead of a deadline: the response must be a
  // *successful* budget-exhausted verdict with a partial-progress report.
  RandomGraphOptions options;
  options.num_nodes = 12;
  options.num_labels = 2;
  options.num_data_values = 6;
  options.edge_percent = 25;
  options.seed = 7;
  DataGraph g = RandomDataGraph(options);
  BinaryRelation s = RandomRelation(g.NumNodes(), 30, 11);
  std::string relation_text = WriteRelationText(g, s);
  service_.registry().Register("hard", std::move(g));

  JsonValue::Object request;
  request.emplace_back("cmd", "check");
  request.emplace_back("graph", "hard");
  request.emplace_back("checker", "krem");
  request.emplace_back("k", 3.0);
  request.emplace_back("relation", relation_text);
  // 4 MiB: enough for the assignment graph to build (~2.2 MiB of adjacency
  // on this instance), so the budget trips mid-BFS and yields a partial
  // verdict rather than a hard build-phase error.
  request.emplace_back("max_bytes", 4194304.0);
  std::string response = Call(JsonValue(std::move(request)).Serialize());
  auto parsed = JsonValue::Parse(response);
  ASSERT_TRUE(parsed.ok()) << response;
  ASSERT_TRUE(parsed.value().Find("ok")->AsBool()) << response;
  EXPECT_EQ(parsed.value().GetString("verdict").ValueOrDie(),
            "budget exhausted")
      << response;
  const JsonValue* partial = parsed.value().Find("partial");
  ASSERT_NE(partial, nullptr) << response;
  EXPECT_EQ(partial->GetString("stage").ValueOrDie(), "krem-bfs");
  EXPECT_GT(partial->GetInt("tuples_explored").ValueOrDie(), 0);
  EXPECT_GE(partial->GetInt("bytes_peak").ValueOrDie(), 4194304);
}

TEST_F(ServeTest, NegativeBudgetIsRejected) {
  service_.registry().Register("fig1", Figure1Graph());
  std::string response = Call(
      R"({"cmd":"eval","graph":"fig1","language":"rpq","query":"a",)"
      R"("max_bytes":-1})");
  EXPECT_NE(response.find("\"ok\":false"), std::string::npos) << response;
  EXPECT_NE(response.find("max_bytes"), std::string::npos) << response;
}

TEST_F(ServeTest, RpqEvalOverItsTupleBudgetIsResourceExhausted) {
  service_.registry().Register("fig1", Figure1Graph());
  const std::string eval =
      R"({"cmd":"eval","graph":"fig1","language":"rpq","query":"a+")";
  // The search is far shorter than the budget's polling stride, so only
  // the final budget check can see the overrun. (A cached result would be
  // served without a search, so the budgeted call comes first.)
  std::string response = Call(eval + R"(,"max_tuples":1})");
  auto parsed = JsonValue::Parse(response);
  ASSERT_TRUE(parsed.ok()) << response;
  EXPECT_FALSE(parsed.value().Find("ok")->AsBool()) << response;
  const JsonValue* error = parsed.value().Find("error");
  ASSERT_NE(error, nullptr) << response;
  EXPECT_EQ(error->GetString("code").ValueOrDie(), "ResourceExhausted");
  EXPECT_NE(error->GetString("message").ValueOrDie().find(
                "tuple budget exhausted"),
            std::string::npos)
      << response;
  EXPECT_NE(Call(eval + "}").find("\"ok\":true"), std::string::npos);
}

// A budgeted eval is charged whatever the cache holds: after an unbudgeted
// eval of the same query has filled the cache, the budgeted one still
// evaluates under its budget and trips it.
TEST_F(ServeTest, BudgetedEvalSkipsAWarmResultCache) {
  service_.registry().Register("fig1", Figure1Graph());
  const std::string eval =
      R"({"cmd":"eval","graph":"fig1","language":"rpq","query":"a+")";
  EXPECT_NE(Call(eval + "}").find("\"ok\":true"), std::string::npos);
  std::string response = Call(eval + R"(,"max_tuples":1})");
  auto parsed = JsonValue::Parse(response);
  ASSERT_TRUE(parsed.ok()) << response;
  EXPECT_FALSE(parsed.value().Find("ok")->AsBool()) << response;
  const JsonValue* error = parsed.value().Find("error");
  ASSERT_NE(error, nullptr) << response;
  EXPECT_EQ(error->GetString("code").ValueOrDie(), "ResourceExhausted");
  // The unbudgeted query is still served (from the cache).
  EXPECT_NE(Call(eval + "}").find("\"ok\":true"), std::string::npos);
}

/// A service behind a deliberately tiny admission gate — one slot, no wait
/// queue — plus a hard instance to hold that slot for a while.
class ServeOverloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServiceOptions options;
    options.admission.max_concurrent = 1;
    options.admission.max_queue = 0;
    options.admission.retry_after_ms = 25;
    service_ = std::make_unique<QueryService>(options);
    server_ = std::make_unique<Server>(service_.get());
    ASSERT_TRUE(server_->Start(0).ok());

    service_->registry().Register("fig1", Figure1Graph());
    RandomGraphOptions graph_options;
    graph_options.num_nodes = 12;
    graph_options.num_labels = 2;
    graph_options.num_data_values = 6;
    graph_options.edge_percent = 25;
    graph_options.seed = 7;
    DataGraph g = RandomDataGraph(graph_options);
    relation_text_ =
        WriteRelationText(g, RandomRelation(g.NumNodes(), 30, 11));
    service_->registry().Register("hard", std::move(g));
  }

  void TearDown() override {
    server_->Stop();
    server_->Wait();
  }

  /// A check request that holds the admission slot for ~deadline_ms.
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

  /// Spins until the in-flight slow request holds the only slot.
  bool WaitForSaturation() {
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
      if (service_->admission_stats().active >= 1) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }

  std::unique_ptr<QueryService> service_;
  std::unique_ptr<Server> server_;
  std::string relation_text_;
};

TEST_F(ServeOverloadTest, ShedsWithRetryHintWhenSaturated) {
  std::thread slow([this] {
    LineClient client;
    if (client.Connect(server_->port()).ok()) {
      (void)client.Call(SlowCheckRequest(800.0));
    }
  });
  ASSERT_TRUE(WaitForSaturation());

  // A heavy request beyond the (zero-length) wait queue is shed
  // immediately with the configured backoff hint.
  LineClient client;
  ASSERT_TRUE(client.Connect(server_->port()).ok());
  auto shed = client.Call(
      R"({"cmd":"eval","graph":"fig1","language":"rpq","query":"a"})");
  ASSERT_TRUE(shed.ok()) << shed.status();
  auto parsed = JsonValue::Parse(shed.value());
  ASSERT_TRUE(parsed.ok()) << shed.value();
  EXPECT_FALSE(parsed.value().Find("ok")->AsBool()) << shed.value();
  const JsonValue* error = parsed.value().Find("error");
  ASSERT_NE(error, nullptr) << shed.value();
  EXPECT_EQ(error->GetString("code").ValueOrDie(), "Unavailable");
  EXPECT_EQ(error->GetInt("retry_after_ms").ValueOrDie(), 25);

  // Cheap commands bypass admission: health checks work under full load.
  auto pong = client.Call(R"({"cmd":"ping"})");
  ASSERT_TRUE(pong.ok()) << pong.status();
  EXPECT_NE(pong.value().find("\"pong\":true"), std::string::npos);
  auto stats = client.Call(R"({"cmd":"stats"})");
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_NE(stats.value().find("\"admission\""), std::string::npos);

  slow.join();
  EXPECT_GE(service_->shed_requests(), 1u);
  EXPECT_GE(service_->admission_stats().shed, 1u);
}

TEST_F(ServeOverloadTest, CallWithRetryRidesOutTheOverload) {
  std::thread slow([this] {
    LineClient client;
    if (client.Connect(server_->port()).ok()) {
      (void)client.Call(SlowCheckRequest(400.0));
    }
  });
  ASSERT_TRUE(WaitForSaturation());

  LineClient client;
  ASSERT_TRUE(client.Connect(server_->port()).ok());
  RetryPolicy policy;
  // Each shed carries the server's 25 ms retry hint, which the client
  // honours instead of its exponential schedule — so riding out the
  // 400 ms occupancy takes ~16 evenly-spaced polls, not a handful of
  // doubling ones. 30 attempts leaves slack for jitter.
  policy.max_attempts = 30;
  policy.initial_backoff = std::chrono::milliseconds(25);
  policy.jitter_seed = 42;
  auto response = client.CallWithRetry(
      R"({"cmd":"eval","graph":"fig1","language":"rpq","query":"a"})",
      policy);
  slow.join();
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_NE(response.value().find("\"ok\":true"), std::string::npos)
      << response.value();
  EXPECT_GE(client.retries(), 1u);
}

TEST(ServeLimits, OversizedRequestLineIsRejected) {
  QueryService service;
  ServerOptions server_options;
  server_options.max_line_bytes = 1024;
  Server server(&service, server_options);
  ASSERT_TRUE(server.Start(0).ok());

  // Raw socket: LineClient always terminates its line, but this test needs
  // an *unterminated* line that outgrows the bound.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(server.port());
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&address),
                      sizeof(address)),
            0);
  std::string oversized(2048, 'x');  // > max_line_bytes, no newline
  ASSERT_EQ(::write(fd, oversized.data(), oversized.size()),
            static_cast<ssize_t>(oversized.size()));
  std::string response;
  char chunk[4096];
  for (;;) {
    ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) {
      break;
    }
    response.append(chunk, static_cast<std::size_t>(n));
    if (response.find('\n') != std::string::npos) {
      break;
    }
  }
  ::close(fd);
  EXPECT_NE(response.find("request_too_large"), std::string::npos)
      << response;

  // The limit is per-connection, not per-server: the next client is fine.
  LineClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  auto pong = client.Call(R"({"cmd":"ping"})");
  ASSERT_TRUE(pong.ok()) << pong.status();
  EXPECT_NE(pong.value().find("\"pong\":true"), std::string::npos);

  server.Stop();
  server.Wait();
}

TEST_F(ServeTest, ShutdownCommandStopsServer) {
  LineClient client;
  ASSERT_TRUE(client.Connect(server_->port()).ok());
  auto response = client.Call(R"({"cmd":"shutdown"})");
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_NE(response.value().find("\"shutting_down\":true"),
            std::string::npos);
  server_->Wait();  // must return (and quickly) once shutdown is handled
  LineClient late;
  EXPECT_FALSE(late.Connect(server_->port()).ok());
}

// --- Check setup reuse ------------------------------------------------------
//
// Served checks keep the per-graph setups (k-assignment graph + dispatch
// table, REE level monoid) on the registry entry. A warm check must answer
// byte-for-byte what a cold one does — verdict, counters and the partial
// report under every kind of budget — and setups must live exactly as long
// as the graph content they were built from.

/// One in-process request/response (no socket needed).
std::string Handle(QueryService* service, const std::string& line) {
  bool shutdown = false;
  return service->HandleLine(line, &shutdown);
}

std::string CheckLine(const std::string& graph, const std::string& checker,
                      std::size_t k, const std::string& relation,
                      std::uint64_t max_bytes = 0,
                      std::uint64_t max_tuples = 0) {
  JsonValue::Object request;
  request.emplace_back("cmd", "check");
  request.emplace_back("graph", graph);
  request.emplace_back("checker", checker);
  request.emplace_back("k", static_cast<double>(k));
  request.emplace_back("relation", relation);
  if (max_bytes != 0) {
    request.emplace_back("max_bytes", static_cast<double>(max_bytes));
  }
  if (max_tuples != 0) {
    request.emplace_back("max_tuples", static_cast<double>(max_tuples));
  }
  return JsonValue(std::move(request)).Serialize();
}

/// The stats counter gqd_check_setup_total{kind, result}, read through the
/// `stats` command.
std::int64_t SetupCount(QueryService* service, const std::string& kind,
                        const std::string& result) {
  auto stats = JsonValue::Parse(Handle(service, R"({"cmd":"stats"})"));
  const JsonValue* setup =
      stats.ValueOrDie().Find("stats")->Find("check_setup");
  return setup->Find(kind)->GetInt(result).ValueOrDie();
}

/// An a-cycle over `values.size()` nodes (node i carries data value
/// values[i]) plus b-chords i → i + 3: small level monoids, so REE checks
/// without a budget finish in milliseconds.
DataGraph CycleGraph(const std::vector<std::string>& values) {
  DataGraph g;
  const std::size_t n = values.size();
  for (std::size_t i = 0; i < n; i++) {
    g.AddNodeWithValue(values[i], "n" + std::to_string(i));
  }
  for (std::size_t i = 0; i < n; i++) {
    g.AddEdgeByName(static_cast<NodeId>(i), "a",
                    static_cast<NodeId>((i + 1) % n));
    if (i % 2 == 0) {
      g.AddEdgeByName(static_cast<NodeId>(i), "b",
                      static_cast<NodeId>((i + 3) % n));
    }
  }
  return g;
}

TEST(CheckSetupReuse, ColdAndWarmResponsesAreByteIdentical) {
  struct Graph {
    std::string name;
    DataGraph graph;
  };
  std::vector<Graph> graphs;
  graphs.push_back({"fig1", Figure1Graph()});  // n = 10, ρ not injective
  graphs.push_back({"small", CycleGraph({"x", "y", "x", "y", "z", "z"})});
  graphs.push_back({"injective", CycleGraph({"d0", "d1", "d2", "d3", "d4",
                                             "d5", "d6", "d7", "d8", "d9"})});

  struct Case {
    std::size_t graph;
    std::string checker;
    std::size_t k;
  };
  const std::vector<Case> cases = {
      {0, "rpq", 0},  {0, "krem", 0}, {0, "krem", 1}, {0, "krem", 2},
      {1, "krem", 1}, {1, "ree", 0},  {0, "ree", 0},  {2, "ree", 0},
  };

  std::size_t compared = 0;
  for (const Case& c : cases) {
    const Graph& g = graphs[c.graph];
    const std::size_t n = g.graph.NumNodes();
    BinaryRelation s = c.graph == 0 ? Figure1S2(g.graph)
                                    : RandomRelation(n, 25, 17 + c.k);
    std::string relation = WriteRelationText(g.graph, s);
    // Warm-up relation: a different S over the same graph — the setup
    // depends on the graph alone.
    std::string warmup = WriteRelationText(g.graph, RandomRelation(n, 10, 99));

    // What the cold check charges before and during its setup: the
    // relation admission estimate, then the setup build itself.
    std::size_t nnz = s.Count();
    std::uint64_t admission =
        EstimateRelationBytes(ChooseRelationBackend(n, nnz), n, nnz);
    std::uint64_t setup_bytes = 0;
    std::uint64_t setup_tuples = 0;
    if (c.checker == "ree") {
      // The packed and dense representations, the latter also on an
      // injective graph.
      const ReeRepresentation expected[] = {ReeRepresentation::kDense,
                                            ReeRepresentation::kPacked,
                                            ReeRepresentation::kDense};
      ReeRepresentation representation = ReeRepresentationFor(g.graph);
      EXPECT_EQ(representation, expected[c.graph]);
      auto monoid = CloseReeMonoid(g.graph, representation);
      ASSERT_TRUE(monoid.ok()) << monoid.status();
      setup_bytes = monoid.value().charged_bytes();
      setup_tuples = monoid.value().size();
    } else {
      auto setup = BuildKRemSetup(g.graph, c.k);
      ASSERT_TRUE(setup.ok()) << setup.status();
      setup_bytes = setup.value().assignment_graph()->BuildChargeBytes(true);
    }

    struct Budget {
      const char* what;
      std::uint64_t max_bytes;
      std::uint64_t max_tuples;
      bool expect_hit;
    };
    const std::vector<Budget> budgets = {
        {"none", 0, 0, true},
        {"tuples trip mid-search", 0,
         c.checker == "ree" ? setup_tuples / 2 : 3, c.checker != "ree"},
        {"bytes trip inside the setup build", admission + 1, 0, false},
        {"bytes trip half way through the setup", admission + setup_bytes / 2,
         0, false},
        {"bytes just enough for the setup", admission + setup_bytes, 0,
         true},
    };
    for (const Budget& budget : budgets) {
      SCOPED_TRACE(g.name + " " + c.checker + " k=" + std::to_string(c.k) +
                   " budget: " + budget.what);
      std::string line = CheckLine(g.name, c.checker, c.k, relation,
                                   budget.max_bytes, budget.max_tuples);
      QueryService cold;
      cold.registry().Register(g.name, DataGraph(g.graph));
      std::string cold_response = Handle(&cold, line);

      QueryService warm;
      warm.registry().Register(g.name, DataGraph(g.graph));
      std::string warmed = Handle(&warm, CheckLine(g.name, c.checker, c.k,
                                                   warmup));
      ASSERT_NE(warmed.find("\"ok\":true"), std::string::npos) << warmed;
      const std::string kind = c.checker == "ree" ? "ree" : "krem";
      std::int64_t hits = SetupCount(&warm, kind, "hit");
      std::string warm_response = Handle(&warm, line);
      EXPECT_EQ(warm_response, cold_response);
      if (budget.expect_hit) {
        EXPECT_EQ(SetupCount(&warm, kind, "hit"), hits + 1) << warm_response;
      }
      compared++;
    }
  }
  EXPECT_EQ(compared, cases.size() * 5);
}

TEST(CheckSetupReuse, ReloadedNameNeverReusesItsOldSetup) {
  QueryService service;
  DataGraph first = Figure1Graph();
  std::string relation = WriteRelationText(first, Figure1S2(first));
  service.registry().Register("g", std::move(first));
  Handle(&service, CheckLine("g", "krem", 1, relation));
  Handle(&service, CheckLine("g", "ree", 0, relation));
  ASSERT_EQ(SetupCount(&service, "krem", "miss"), 1);
  ASSERT_EQ(SetupCount(&service, "ree", "miss"), 1);

  // Same node names, one edge more: different content under the old name.
  DataGraph second = Figure1Graph();
  second.AddEdgeByName(0, "a", 1);
  second.AddEdgeByName(1, "b", 0);
  service.registry().Register("g", std::move(second));
  std::string krem = Handle(&service, CheckLine("g", "krem", 1, relation));
  std::string ree = Handle(&service, CheckLine("g", "ree", 0, relation));
  EXPECT_NE(krem.find("\"ok\":true"), std::string::npos) << krem;
  EXPECT_NE(ree.find("\"ok\":true"), std::string::npos) << ree;
  EXPECT_EQ(SetupCount(&service, "krem", "hit"), 0);
  EXPECT_EQ(SetupCount(&service, "ree", "hit"), 0);
  EXPECT_EQ(SetupCount(&service, "krem", "miss"), 2);
  EXPECT_EQ(SetupCount(&service, "ree", "miss"), 2);

  // The reloaded content answers exactly as a service that never saw the
  // old graph does.
  QueryService fresh;
  DataGraph again = Figure1Graph();
  again.AddEdgeByName(0, "a", 1);
  again.AddEdgeByName(1, "b", 0);
  fresh.registry().Register("g", std::move(again));
  EXPECT_EQ(krem, Handle(&fresh, CheckLine("g", "krem", 1, relation)));
  EXPECT_EQ(ree, Handle(&fresh, CheckLine("g", "ree", 0, relation)));
}

TEST(CheckSetupReuse, OneReeMonoidDecidesEveryRelationBackend) {
  // M_∞ depends on the graph alone, so the monoid a dense-S check closed
  // decides a sparse S too, and answers as a fresh service does.
  DataGraph g = Figure1Graph();
  std::string relation = WriteRelationText(g, Figure1S2(g));
  auto request = JsonValue::Parse(CheckLine("g", "ree", 0, relation))
                     .ValueOrDie()
                     .AsObject();
  request.emplace_back("relation_backend", "sparse");
  const std::string sparse_line = JsonValue(std::move(request)).Serialize();

  QueryService service;
  service.registry().Register("g", DataGraph(g));
  std::string dense = Handle(&service, CheckLine("g", "ree", 0, relation));
  EXPECT_NE(dense.find("\"relation_backend\":\"dense\""), std::string::npos)
      << dense;
  std::string sparse = Handle(&service, sparse_line);
  EXPECT_NE(sparse.find("\"relation_backend\":\"sparse\""),
            std::string::npos)
      << sparse;
  EXPECT_EQ(SetupCount(&service, "ree", "miss"), 1);
  EXPECT_EQ(SetupCount(&service, "ree", "hit"), 1);

  QueryService cold;
  cold.registry().Register("g", std::move(g));
  EXPECT_EQ(sparse, Handle(&cold, sparse_line));
}

TEST(CheckThreads, HugeThreadCountAnswersLikeOneThread) {
  // "threads" is only checked for >= 0; a count far past the hardware's is
  // clamped by the checker, so it must answer exactly like one thread
  // instead of aborting the worker.
  DataGraph g = Figure1Graph();
  std::string relation = WriteRelationText(g, Figure1S2(g));
  auto line = [&](const std::string& checker, double threads) {
    auto request = JsonValue::Parse(CheckLine("g", checker, 1, relation))
                       .ValueOrDie()
                       .AsObject();
    request.emplace_back("threads", threads);
    return JsonValue(std::move(request)).Serialize();
  };
  for (const std::string checker : {"rpq", "krem"}) {
    QueryService one, huge;
    one.registry().Register("g", Figure1Graph());
    huge.registry().Register("g", Figure1Graph());
    std::string expected = Handle(&one, line(checker, 1));
    EXPECT_NE(expected.find("\"ok\":true"), std::string::npos) << expected;
    EXPECT_EQ(Handle(&huge, line(checker, 4294967296.0)), expected)
        << checker;
  }
}

TEST(CheckSetupReuse, IdenticalContentUnderTwoNamesSharesSetups) {
  QueryService service;
  DataGraph g = Figure1Graph();
  std::string relation = WriteRelationText(g, Figure1S2(g));
  service.registry().Register("a", DataGraph(g));
  service.registry().Register("b", std::move(g));
  std::string via_a = Handle(&service, CheckLine("a", "krem", 2, relation));
  std::size_t held = service.registry().CheckSetupBytes();
  EXPECT_GT(held, 0u);
  std::string via_b = Handle(&service, CheckLine("b", "krem", 2, relation));
  EXPECT_EQ(via_a, via_b);
  EXPECT_EQ(SetupCount(&service, "krem", "miss"), 1);
  EXPECT_EQ(SetupCount(&service, "krem", "hit"), 1);
  EXPECT_EQ(service.registry().CheckSetupBytes(), held)
      << "the shared holder is counted once";
}

TEST(CheckSetupReuse, RacingFirstChecksAgreeAndHoldOneSetup) {
  QueryService service;
  DataGraph g = RandomDataGraph({.num_nodes = 12,
                                 .num_labels = 2,
                                 .num_data_values = 4,
                                 .edge_percent = 20,
                                 .seed = 21});
  std::string relation =
      WriteRelationText(g, RandomRelation(g.NumNodes(), 15, 4));
  std::size_t one_setup = BuildKRemSetup(g, 2).ValueOrDie().HeldBytes();
  service.registry().Register("race", std::move(g));
  std::string line = CheckLine("race", "krem", 2, relation);

  constexpr int kThreads = 8;
  std::vector<std::string> responses(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back(
        [&, t] { responses[t] = Handle(&service, line); });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 1; t < kThreads; t++) {
    EXPECT_EQ(responses[t], responses[0]);
  }
  EXPECT_EQ(SetupCount(&service, "krem", "hit") +
                SetupCount(&service, "krem", "miss"),
            kThreads);
  EXPECT_GE(SetupCount(&service, "krem", "miss"), 1);
  EXPECT_EQ(service.registry().CheckSetupBytes(), one_setup)
      << "the first insert wins; later builds are dropped";
  EXPECT_EQ(Handle(&service, line), responses[0]);
}

TEST(CheckSetupReuse, MetricsExportSetupCountersAndHeldBytes) {
  QueryService service;
  DataGraph g = Figure1Graph();
  std::string relation = WriteRelationText(g, Figure1S2(g));
  service.registry().Register("fig1", std::move(g));
  Handle(&service, CheckLine("fig1", "ree", 0, relation));
  Handle(&service, CheckLine("fig1", "ree", 0, relation));
  std::string metrics = JsonValue::Parse(Handle(&service,
                                                R"({"cmd":"metrics"})"))
                            .ValueOrDie()
                            .GetString("metrics")
                            .ValueOrDie();
  EXPECT_NE(metrics.find(
                R"(gqd_check_setup_total{kind="ree",result="hit"} 1)"),
            std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find(
                R"(gqd_check_setup_total{kind="ree",result="miss"} 1)"),
            std::string::npos);
  EXPECT_NE(metrics.find("gqd_check_setup_bytes " +
                         std::to_string(service.registry().CheckSetupBytes())),
            std::string::npos);
  auto stats = JsonValue::Parse(Handle(&service, R"({"cmd":"stats"})"));
  EXPECT_EQ(stats.ValueOrDie()
                .Find("stats")
                ->Find("check_setup")
                ->GetInt("bytes")
                .ValueOrDie(),
            static_cast<std::int64_t>(service.registry().CheckSetupBytes()));
}

// --- Golden responses -------------------------------------------------------
//
// A fixed list of request lines goes through one QueryService in order:
// load, info, single and batched eval in every language, each checker cold
// and warm, budget trips, lint and the error paths. Every response must
// match the recorded bytes, with trace ids and load times masked. Edit
// responses.jsonl only when a change is meant to alter a response, and say
// so.

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
  }
  return lines;
}

std::string MaskVolatileFields(const std::string& response) {
  static const std::regex kTraceId("\"trace_id\":\"[0-9a-f]+\"");
  static const std::regex kLoadMicros("\"load_micros\":[0-9]+");
  std::string masked =
      std::regex_replace(response, kTraceId, "\"trace_id\":\"MASKED\"");
  return std::regex_replace(masked, kLoadMicros, "\"load_micros\":0");
}

TEST(ServeGolden, ResponsesMatchTheGoldenBytes) {
  const std::string dir = GQD_TESTS_DATA_DIR "/golden_serve/";
  QueryService service;
  std::vector<std::string> requests;
  std::vector<std::string> responses;
  for (const std::string& line : ReadLines(dir + "requests.jsonl")) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    requests.push_back(line);
    responses.push_back(MaskVolatileFields(Handle(&service, line)));
  }
  ASSERT_GT(requests.size(), 30u);
  std::vector<std::string> expected = ReadLines(dir + "responses.jsonl");
  ASSERT_EQ(expected.size(), responses.size());
  for (std::size_t i = 0; i < responses.size(); i++) {
    EXPECT_EQ(responses[i], expected[i]) << "request: " << requests[i];
  }
}

}  // namespace
}  // namespace gqd
