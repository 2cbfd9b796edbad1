// E10 — serving-layer benchmarks: request dispatch, cache hit/miss paths,
// batched fan-out across the worker pool, and full TCP round trips.
//
// Complements `gqd bench-serve --json` (the closed-loop multi-client
// driver): these microbenchmarks isolate each layer, so a regression in
// e.g. the JSON parser shows up separately from socket overhead.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/json.h"
#include "graph/examples.h"
#include "graph/generators.h"
#include "graph/serialization.h"
#include "runtime/client.h"
#include "runtime/server.h"
#include "runtime/service.h"

namespace gqd {
namespace {

const char* kEvalRequest =
    R"({"cmd":"eval","graph":"fig1","language":"rpq","query":"a.a.a"})";

// --- JSON layer -------------------------------------------------------------

void BM_JsonParseRequest(benchmark::State& state) {
  for (auto _ : state) {
    auto parsed = JsonValue::Parse(kEvalRequest);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_JsonParseRequest);

// --- Service dispatch (no sockets) ------------------------------------------

void BM_ServeCacheHit(benchmark::State& state) {
  QueryService service;
  service.registry().Register("fig1", Figure1Graph());
  bool shutdown = false;
  (void)service.HandleLine(kEvalRequest, &shutdown);  // warm the cache
  for (auto _ : state) {
    std::string response = service.HandleLine(kEvalRequest, &shutdown);
    benchmark::DoNotOptimize(response);
  }
}
BENCHMARK(BM_ServeCacheHit);

void BM_ServeCacheMiss(benchmark::State& state) {
  // A 1-entry-per-shard cache thrashed by 64 distinct queries: every
  // request pays parse + evaluate + insert (the cold path).
  ServiceOptions options;
  options.cache_capacity = 1;
  QueryService service(options);
  service.registry().Register("fig1", Figure1Graph());
  std::vector<std::string> requests;
  for (int i = 0; i < 64; i++) {
    std::string query = "a";
    for (int j = 0; j < i % 8; j++) {
      query += ".a";
    }
    query += i % 2 == 0 ? "" : "+";
    requests.push_back(
        R"({"cmd":"eval","graph":"fig1","language":"rpq","query":")" +
        query + "\"}");
  }
  bool shutdown = false;
  std::size_t i = 0;
  for (auto _ : state) {
    std::string response =
        service.HandleLine(requests[i++ % requests.size()], &shutdown);
    benchmark::DoNotOptimize(response);
  }
}
BENCHMARK(BM_ServeCacheMiss);

void BM_ServeBatchEval(benchmark::State& state) {
  // One request fanning state.range(0) REM queries across the pool on a
  // 120-node line graph (each query is ~ms of BFS work).
  QueryService service;
  std::vector<std::uint32_t> values;
  for (int i = 0; i < 120; i++) {
    values.push_back(static_cast<std::uint32_t>(i % 5));
  }
  service.registry().Register("line", LineGraph(values));
  ServiceOptions cold_options;
  cold_options.cache_capacity = 1;  // keep every iteration on the cold path
  JsonValue::Array queries;
  for (std::int64_t i = 0; i < state.range(0); i++) {
    // Distinct register names dodge the normalization cache.
    std::string r = "r" + std::to_string(i + 1);
    queries.emplace_back("$" + r + ". a+ [" + r + "=]");
  }
  JsonValue::Object request;
  request.emplace_back("cmd", "eval");
  request.emplace_back("graph", "line");
  request.emplace_back("language", "rem");
  request.emplace_back("queries", JsonValue(std::move(queries)));
  std::string line = JsonValue(std::move(request)).Serialize();
  bool shutdown = false;
  for (auto _ : state) {
    QueryService fresh(cold_options);
    fresh.registry().Register("line", LineGraph(values));
    std::string response = fresh.HandleLine(line, &shutdown);
    benchmark::DoNotOptimize(response);
  }
}
BENCHMARK(BM_ServeBatchEval)->Arg(1)->Arg(4)->Arg(16);

// --- Full TCP round trip ----------------------------------------------------

void BM_ServeTcpRoundTrip(benchmark::State& state) {
  QueryService service;
  service.registry().Register("fig1", Figure1Graph());
  Server server(&service);
  if (!server.Start(0).ok()) {
    state.SkipWithError("could not bind a loopback port");
    return;
  }
  LineClient client;
  if (!client.Connect(server.port()).ok()) {
    state.SkipWithError("could not connect");
    return;
  }
  for (auto _ : state) {
    auto response = client.Call(kEvalRequest);
    benchmark::DoNotOptimize(response);
  }
  client.Close();
  server.Stop();
  server.Wait();
}
BENCHMARK(BM_ServeTcpRoundTrip);

}  // namespace
}  // namespace gqd
