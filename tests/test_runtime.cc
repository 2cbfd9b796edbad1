// Tests for the serving runtime: JSON model, thread pool, graph registry,
// result cache, cancellation tokens, and deadline propagation through the
// evaluators and definability checkers.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/json.h"
#include "common/thread_pool.h"
#include "definability/krem_definability.h"
#include "definability/ree_definability.h"
#include "eval/eval_options.h"
#include "eval/rem_eval.h"
#include "eval/rpq_eval.h"
#include "graph/generators.h"
#include "regex/parser.h"
#include "rem/parser.h"
#include "runtime/graph_registry.h"
#include "runtime/result_cache.h"
#include "runtime/service.h"
#include "runtime/stats.h"

namespace gqd {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// ---------------------------------------------------------------- JSON --

TEST(Json, ParsesScalarsAndContainers) {
  auto v = JsonValue::Parse(
      R"({"s":"a\nb","n":42,"f":-1.5,"t":true,"x":null,"a":[1,2]})");
  ASSERT_TRUE(v.ok()) << v.status();
  const JsonValue& root = v.value();
  EXPECT_EQ(root.GetString("s").ValueOrDie(), "a\nb");
  EXPECT_EQ(root.GetInt("n").ValueOrDie(), 42);
  EXPECT_DOUBLE_EQ(root.Find("f")->AsNumber(), -1.5);
  EXPECT_TRUE(root.Find("t")->AsBool());
  EXPECT_TRUE(root.Find("x")->is_null());
  ASSERT_TRUE(root.Find("a")->is_array());
  EXPECT_EQ(root.Find("a")->AsArray().size(), 2u);
  EXPECT_EQ(root.Find("missing"), nullptr);
}

TEST(Json, RoundTripsThroughSerialize) {
  const std::string text =
      R"({"cmd":"eval","graph":"g","queries":["a+","a.a"],"deadline_ms":5})";
  auto v = JsonValue::Parse(text);
  ASSERT_TRUE(v.ok());
  auto again = JsonValue::Parse(v.value().Serialize());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().Serialize(), v.value().Serialize());
}

TEST(Json, SerializeEscapesControlCharacters) {
  JsonValue v(std::string("tab\there\nquote\""));
  EXPECT_EQ(v.Serialize(), "\"tab\\there\\nquote\\\"\"");
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_FALSE(JsonValue::Parse("{").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":1} trailing").ok());
  EXPECT_FALSE(JsonValue::Parse("\"unterminated").ok());
  EXPECT_FALSE(JsonValue::Parse("[1,]").ok());
  EXPECT_FALSE(JsonValue::Parse("").ok());
}

TEST(Json, MissingFieldErrorsNameTheKey) {
  auto v = JsonValue::Parse("{\"cmd\":\"eval\"}");
  ASSERT_TRUE(v.ok());
  auto missing = v.value().GetString("graph");
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.status().message().find("graph"), std::string::npos);
}

// --------------------------------------------------------- CancelToken --

TEST(CancelToken, FreshTokenIsNotExpired) {
  CancelToken token;
  EXPECT_FALSE(token.Expired());
  EXPECT_TRUE(token.Check().ok());
}

TEST(CancelToken, CancelLatches) {
  CancelToken token;
  token.Cancel();
  EXPECT_TRUE(token.Expired());
  EXPECT_EQ(token.Check().code(), StatusCode::kDeadlineExceeded);
}

TEST(CancelToken, PastDeadlineExpires) {
  CancelToken token(std::chrono::nanoseconds(0));
  EXPECT_TRUE(token.Expired());
  EXPECT_EQ(token.Check().code(), StatusCode::kDeadlineExceeded);
}

// ----------------------------------------------------------- ThreadPool --

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  constexpr int kTasks = 200;
  std::atomic<int> done{0};
  for (int i = 0; i < kTasks; i++) {
    pool.Submit([&] {
      counter.fetch_add(1, std::memory_order_relaxed);
      done.fetch_add(1, std::memory_order_release);
    });
  }
  while (done.load(std::memory_order_acquire) < kTasks) {
    std::this_thread::yield();
  }
  EXPECT_EQ(counter.load(), kTasks);
  // A worker counts a task as executed only after the task returns, so the
  // last `done` increment can be seen before the pool's own counter: wait
  // (bounded) for the counter to catch up rather than racing it.
  ThreadPool::Stats stats = pool.GetStats();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (stats.tasks_executed < static_cast<std::uint64_t>(kTasks) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
    stats = pool.GetStats();
  }
  EXPECT_EQ(stats.num_threads, 4u);
  EXPECT_EQ(stats.tasks_executed, static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(stats.queued_tasks, 0u);
}

TEST(ThreadPool, WorkerSubmittedTasksRun) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  pool.Submit([&] {
    // Recursive fan-out from inside a worker goes to the worker's own
    // queue and must still execute (possibly via a steal).
    for (int i = 0; i < 8; i++) {
      pool.Submit([&] { done.fetch_add(1, std::memory_order_release); });
    }
    done.fetch_add(1, std::memory_order_release);
  });
  while (done.load(std::memory_order_acquire) < 9) {
    std::this_thread::yield();
  }
  SUCCEED();
}

// -------------------------------------------------------- GraphRegistry --

TEST(GraphRegistry, LoadGetAndFingerprint) {
  GraphRegistry registry;
  const std::string text = "node u 0\nnode v 1\nedge u a v\n";
  auto entry = registry.Load("g", text);
  ASSERT_TRUE(entry.ok()) << entry.status();
  EXPECT_EQ(entry.value().fingerprint.size(), 16u);
  EXPECT_EQ(entry.value().graph->NumNodes(), 2u);

  auto fetched = registry.Get("g");
  ASSERT_TRUE(fetched.ok());
  // Same parsed object is shared, not re-parsed.
  EXPECT_EQ(fetched.value().graph.get(), entry.value().graph.get());

  // Same content => same fingerprint, under any name.
  auto other = registry.Load("h", text);
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(other.value().fingerprint, entry.value().fingerprint);

  // Different content => different fingerprint.
  auto changed = registry.Load("g", "node u 0\nnode v 2\nedge u a v\n");
  ASSERT_TRUE(changed.ok());
  EXPECT_NE(changed.value().fingerprint, entry.value().fingerprint);

  EXPECT_EQ(registry.Names(), (std::vector<std::string>{"g", "h"}));
}

TEST(GraphRegistry, UnknownNameIsNotFound) {
  GraphRegistry registry;
  auto missing = registry.Get("nope");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(GraphRegistry, ParseErrorsCarryLineNumbers) {
  GraphRegistry registry;
  auto bad = registry.Load("g", "node u 0\nbogus line here\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line 2"), std::string::npos)
      << bad.status();
}

// ---------------------------------------------------------- ResultCache --

TEST(ResultCache, HitReturnsSharedValueAndCounts) {
  ResultCache cache(64);
  std::string key = ResultCache::MakeKey("fp", "rpq", "a+");
  EXPECT_EQ(cache.Get(key), nullptr);
  auto value = std::make_shared<const BinaryRelation>(3);
  cache.Put(key, value);
  EXPECT_EQ(cache.Get(key).get(), value.get());
  ResultCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ResultCache, DistinctComponentsDistinctKeys) {
  EXPECT_NE(ResultCache::MakeKey("fp", "rpq", "a+"),
            ResultCache::MakeKey("fp", "rem", "a+"));
  EXPECT_NE(ResultCache::MakeKey("fp1", "rpq", "a+"),
            ResultCache::MakeKey("fp2", "rpq", "a+"));
  // The separator keeps "ab"+"c" and "a"+"bc" apart.
  EXPECT_NE(ResultCache::MakeKey("f", "rpqx", "y"),
            ResultCache::MakeKey("f", "rpq", "xy"));
}

TEST(ResultCache, EvictsBeyondCapacity) {
  ResultCache cache(8);  // one entry per shard
  auto value = std::make_shared<const BinaryRelation>(1);
  for (int i = 0; i < 100; i++) {
    cache.Put(ResultCache::MakeKey("fp", "rpq", std::to_string(i)), value);
  }
  ResultCache::Stats stats = cache.GetStats();
  EXPECT_LE(stats.entries, 8u);
  EXPECT_GT(stats.evictions, 0u);
}

// ---------------------------------------------------------- ServerStats --

TEST(ServerStats, RecordsAndSerializes) {
  ServerStats stats;
  stats.Record("eval", true, std::chrono::microseconds(3));
  stats.Record("eval", true, std::chrono::milliseconds(2));
  stats.Record("lint", false, std::chrono::microseconds(1));
  EXPECT_EQ(stats.total_requests(), 3u);
  ThreadPool::Stats pool;
  pool.num_threads = 4;
  ResultCache::Stats cache;
  cache.hits = 7;
  std::string json = stats.ToJson(pool, cache);
  auto parsed = JsonValue::Parse(json);
  ASSERT_TRUE(parsed.ok()) << json;
  EXPECT_EQ(parsed.value().GetInt("requests").ValueOrDie(), 3);
  EXPECT_EQ(parsed.value().GetInt("errors").ValueOrDie(), 1);
  EXPECT_EQ(parsed.value().Find("per_command")->Find("eval")->AsNumber(), 2);
  EXPECT_EQ(parsed.value().Find("cache")->Find("hits")->AsNumber(), 7);
  EXPECT_EQ(parsed.value().Find("pool")->Find("num_threads")->AsNumber(), 4);
}

// ------------------------------------------------- deadline propagation --

TEST(Deadline, EvalReturnsDeadlineExceeded) {
  std::vector<std::uint32_t> values;
  for (int i = 0; i < 400; i++) {
    values.push_back(static_cast<std::uint32_t>(i % 7));
  }
  DataGraph g = LineGraph(values);
  CancelToken token(std::chrono::nanoseconds(0));
  EvalOptions options;
  options.cancel = &token;
  auto result =
      EvaluateRem(g, ParseRem("$r1. a+ [r1=]").ValueOrDie(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(Deadline, KRemCheckerStopsWithinGrace) {
  // This instance runs for minutes unconstrained (the macro-tuple BFS on a
  // 12-node, 2-label, 6-value graph with k=3 explores an enormous space);
  // with a 100 ms deadline it must come back almost immediately.
  RandomGraphOptions options;
  options.num_nodes = 12;
  options.num_labels = 2;
  options.num_data_values = 6;
  options.edge_percent = 25;
  options.seed = 7;
  DataGraph g = RandomDataGraph(options);
  BinaryRelation s = RandomRelation(g.NumNodes(), 30, 11);
  CancelToken token(std::chrono::milliseconds(100));
  KRemDefinabilityOptions check_options;
  check_options.max_tuples = 100'000'000;
  check_options.cancel = &token;
  auto start = Clock::now();
  auto result = CheckKRemDefinability(g, s, 3, check_options);
  double elapsed_ms = MsSince(start);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  // Deadline 100 ms + generous grace for slow CI machines.
  EXPECT_LT(elapsed_ms, 2000.0);
}

TEST(Deadline, ReeCheckerStopsWithinGrace) {
  RandomGraphOptions options;
  options.num_nodes = 14;
  options.num_labels = 2;
  options.num_data_values = 7;
  options.edge_percent = 30;
  options.seed = 5;
  DataGraph g = RandomDataGraph(options);
  BinaryRelation s = RandomRelation(g.NumNodes(), 30, 13);
  CancelToken token(std::chrono::milliseconds(100));
  ReeDefinabilityOptions check_options;
  check_options.max_monoid_size = 100'000'000;
  check_options.cancel = &token;
  auto start = Clock::now();
  auto result = CheckReeDefinability(g, s, check_options);
  double elapsed_ms = MsSince(start);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(elapsed_ms, 2000.0);
}

// ------------------------------------------------------ service caching --

TEST(ServiceCache, HitIsFasterAndBitIdentical) {
  QueryService service;
  std::vector<std::uint32_t> values;
  for (int i = 0; i < 400; i++) {
    values.push_back(static_cast<std::uint32_t>(i % 7));
  }
  service.registry().Register("line", LineGraph(values));
  const std::string request =
      R"({"cmd":"eval","graph":"line","language":"rem",)"
      R"("query":"$r1. a+ [r1=]"})";
  bool shutdown = false;

  auto cold_start = Clock::now();
  std::string cold = service.HandleLine(request, &shutdown);
  double cold_ms = MsSince(cold_start);
  ASSERT_NE(cold.find("\"ok\":true"), std::string::npos) << cold;

  // Best warm run of three (one-shot timing on a loaded CI box is noisy).
  double warm_ms = 1e18;
  std::string warm;
  for (int i = 0; i < 3; i++) {
    auto warm_start = Clock::now();
    warm = service.HandleLine(request, &shutdown);
    warm_ms = std::min(warm_ms, MsSince(warm_start));
  }
  // Bit-identical response, and the cache hit actually skipped the BFS.
  EXPECT_EQ(warm, cold);
  EXPECT_GE(service.cache_stats().hits, 3u);
  EXPECT_LT(warm_ms * 5.0, cold_ms)
      << "cold=" << cold_ms << "ms warm=" << warm_ms << "ms";
}

TEST(ServiceCache, NormalizationSharesEntries) {
  QueryService service;
  service.registry().Register("line",
                              LineGraph({0, 1, 0, 1}, "a"));
  bool shutdown = false;
  std::string first = service.HandleLine(
      R"({"cmd":"eval","graph":"line","language":"rpq","query":"a.a"})",
      &shutdown);
  ASSERT_NE(first.find("\"ok\":true"), std::string::npos) << first;
  ResultCache::Stats before = service.cache_stats();
  // Different surface syntax, same canonical form => cache hit.
  std::string second = service.HandleLine(
      R"({"cmd":"eval","graph":"line","language":"rpq","query":"a . a"})",
      &shutdown);
  ASSERT_NE(second.find("\"ok\":true"), std::string::npos) << second;
  EXPECT_EQ(service.cache_stats().hits, before.hits + 1);
}

}  // namespace
}  // namespace gqd
