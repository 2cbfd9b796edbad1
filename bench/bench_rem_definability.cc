// E2 + E3 — the k-RDPQ_mem definability space bound (Theorem 22) and the
// unbounded-REM wall (Theorem 24 / Lemma 23).
//
// Theorem 22 puts k-RDPQ_mem-definability in NSPACE(O(n²δ^k)); the
// macro-tuple BFS's state space is 2^(n²(δ+1)^k). The series sweep n, δ
// and k on random graphs and report `macro_tuples` (tuples explored) —
// the measured shape should grow explosively in k and δ and stay moderate
// in n at fixed k. BM_RemDefinability (k = δ, Lemma 23) demonstrates the
// doubly-exponential wall the paper's EXPSPACE-completeness predicts:
// already at δ = 3 most instances exhaust the budget.
//
// All runs use *non-definable-leaning* random relations: refuting
// definability requires exhausting the reachable macro space, which is the
// honest cost (definable instances exit early).

#include <benchmark/benchmark.h>

#include "definability/krem_definability.h"
#include "definability/rpq_definability.h"
#include "graph/generators.h"
#include "graph/sparse_relation.h"

namespace gqd {
namespace {

void RunKRem(benchmark::State& state, std::size_t n, std::size_t delta,
             std::size_t k, std::size_t num_threads = 1) {
  DataGraph g = RandomDataGraph({.num_nodes = n,
                                 .num_labels = 1,
                                 .num_data_values = delta,
                                 .edge_percent = 30,
                                 .seed = 99});
  BinaryRelation s = RandomRelation(n, 20, 1234);
  KRemDefinabilityOptions options;
  options.max_tuples = 50'000;
  options.num_threads = num_threads;
  std::size_t tuples = 0;
  int verdict = 0;
  for (auto _ : state) {
    auto result = CheckKRemDefinability(g, s, k, options);
    benchmark::DoNotOptimize(result);
    tuples = result.ValueOrDie().tuples_explored;
    verdict = static_cast<int>(result.ValueOrDie().verdict);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["delta"] = static_cast<double>(delta);
  state.counters["k"] = static_cast<double>(k);
  state.counters["macro_tuples"] = static_cast<double>(tuples);
  state.counters["tuples_per_sec"] =
      benchmark::Counter(static_cast<double>(tuples),
                         benchmark::Counter::kIsIterationInvariantRate);
  state.counters["verdict"] = verdict;  // 0 def, 1 not, 2 exhausted
}

void BM_KRemDefinability_SweepN(benchmark::State& state) {
  RunKRem(state, static_cast<std::size_t>(state.range(0)), 2, 1);
}
BENCHMARK(BM_KRemDefinability_SweepN)->DenseRange(3, 7);

// Frontier-parallel successor generation on the largest SweepN config.
// Results are bit-identical across thread counts (deterministic merge);
// only wall time moves.
void BM_KRemDefinability_Threads(benchmark::State& state) {
  RunKRem(state, 7, 2, 1, static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_KRemDefinability_Threads)->Arg(1)->Arg(2)->Arg(4);

void BM_KRemDefinability_SweepK(benchmark::State& state) {
  RunKRem(state, 4, 2, static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_KRemDefinability_SweepK)->DenseRange(0, 3);

void BM_KRemDefinability_SweepDelta(benchmark::State& state) {
  RunKRem(state, 4, static_cast<std::size_t>(state.range(0)), 1);
}
BENCHMARK(BM_KRemDefinability_SweepDelta)->DenseRange(1, 4);

/// E12 — the Discussion-§6 structural question: definability on graphs
/// with few cycles. On a DAG every data path is bounded by the longest
/// path, so the reachable macro-tuple space collapses; a single back edge
/// reopens unbounded witnesses. Same n, δ, k and edge count — only the
/// cycle structure differs.
void RunDagVersusCycle(benchmark::State& state, bool add_back_edge) {
  // A layered DAG: 6 nodes in 3 layers, forward edges only.
  DataGraph g;
  g.AddLabel("a");
  g.AddDataValue("0");
  g.AddDataValue("1");
  std::vector<NodeId> nodes;
  for (int i = 0; i < 6; i++) {
    nodes.push_back(
        g.AddNodeWithValue(i % 2 == 0 ? "0" : "1", "n" + std::to_string(i)));
  }
  for (int i = 0; i < 4; i++) {
    g.AddEdgeByName(nodes[i], "a", nodes[i + 1]);
    if (i + 2 < 6) {
      g.AddEdgeByName(nodes[i], "a", nodes[i + 2]);
    }
  }
  if (add_back_edge) {
    g.AddEdgeByName(nodes[5], "a", nodes[0]);
  }
  BinaryRelation s(g.NumNodes());
  s.Set(nodes[0], nodes[5]);
  KRemDefinabilityOptions options;
  options.max_tuples = 50'000;
  std::size_t tuples = 0;
  int verdict = 0;
  for (auto _ : state) {
    auto result = CheckKRemDefinability(g, s, 1, options);
    benchmark::DoNotOptimize(result);
    tuples = result.ValueOrDie().tuples_explored;
    verdict = static_cast<int>(result.ValueOrDie().verdict);
  }
  state.counters["back_edge"] = add_back_edge ? 1 : 0;
  state.counters["macro_tuples"] = static_cast<double>(tuples);
  state.counters["verdict"] = verdict;
}

void BM_KRemDefinability_Dag(benchmark::State& state) {
  RunDagVersusCycle(state, false);
}
BENCHMARK(BM_KRemDefinability_Dag);

void BM_KRemDefinability_WithCycle(benchmark::State& state) {
  RunDagVersusCycle(state, true);
}
BENCHMARK(BM_KRemDefinability_WithCycle);

/// Label-local "banded" graph: the node range splits into `bands`
/// contiguous bands and band b's outgoing edges all carry label b. Each
/// (store_mask, label, pattern) transition therefore draws its sources
/// from one band — the narrow source-mask word spans and single-target
/// rows the dispatch table specializes for. Real graphs show the same
/// locality (edge labels correlate with node kinds).
DataGraph BandedGraph(std::size_t n, std::size_t bands, std::size_t delta) {
  DataGraph g;
  std::vector<std::string> labels(bands);
  for (std::size_t b = 0; b < bands; b++) {
    labels[b] = "l" + std::to_string(b);
    g.AddLabel(labels[b]);
  }
  for (std::size_t i = 0; i < n; i++) {
    g.AddNodeWithValue(std::to_string(i % delta), "n" + std::to_string(i));
  }
  for (std::size_t u = 0; u < n; u++) {
    const std::string& label = labels[u * bands / n];
    g.AddEdgeByName(static_cast<NodeId>(u), label,
                    static_cast<NodeId>((u + 1) % n));
    g.AddEdgeByName(static_cast<NodeId>(u), label,
                    static_cast<NodeId>((u * 7 + 3) % n));
  }
  return g;
}

/// Plan-dispatch ablation: the same medium banded workload through the
/// planned engine (per-transition kernels from the KernelDispatchTable —
/// span-clipped scans plus single-target/CSR inner loops) and the
/// reference walk it runs when no table is built. run_benches.sh pairs the
/// *_Plan/*_NoPlan entries into a plan-dispatch speedup record.
void RunKRemMediumSparse(benchmark::State& state, KRemEngine engine) {
  DataGraph g = BandedGraph(128, 16, 15);
  BinaryRelation s = RandomRelation(128, 15, 4321);
  KRemDefinabilityOptions options;
  options.max_tuples = 5'000;
  options.engine = engine;
  std::size_t tuples = 0;
  int verdict = 0;
  for (auto _ : state) {
    auto result = CheckKRemDefinability(g, s, 1, options);
    benchmark::DoNotOptimize(result);
    tuples = result.ValueOrDie().tuples_explored;
    verdict = static_cast<int>(result.ValueOrDie().verdict);
  }
  state.counters["macro_tuples"] = static_cast<double>(tuples);
  state.counters["tuples_per_sec"] =
      benchmark::Counter(static_cast<double>(tuples),
                         benchmark::Counter::kIsIterationInvariantRate);
  state.counters["verdict"] = verdict;
}

void BM_KRemDefinability_MediumSparse_Plan(benchmark::State& state) {
  RunKRemMediumSparse(state, KRemEngine::kPlanned);
}
BENCHMARK(BM_KRemDefinability_MediumSparse_Plan);

void BM_KRemDefinability_MediumSparse_NoPlan(benchmark::State& state) {
  RunKRemMediumSparse(state, KRemEngine::kReference);
}
BENCHMARK(BM_KRemDefinability_MediumSparse_NoPlan);

/// Lemma 23: unbounded-REM definability at k = δ — the EXPSPACE wall.
void BM_RemDefinability_Unbounded(benchmark::State& state) {
  std::size_t delta = static_cast<std::size_t>(state.range(0));
  DataGraph g = RandomDataGraph({.num_nodes = 4,
                                 .num_labels = 1,
                                 .num_data_values = delta,
                                 .edge_percent = 30,
                                 .seed = 99});
  BinaryRelation s = RandomRelation(4, 20, 1234);
  KRemDefinabilityOptions options;
  options.max_tuples = 20'000;
  std::size_t tuples = 0;
  int verdict = 0;
  for (auto _ : state) {
    auto result = CheckRemDefinability(g, s, options);
    benchmark::DoNotOptimize(result);
    tuples = result.ValueOrDie().tuples_explored;
    verdict = static_cast<int>(result.ValueOrDie().verdict);
  }
  state.counters["delta_eq_k"] = static_cast<double>(delta);
  state.counters["macro_tuples"] = static_cast<double>(tuples);
  state.counters["verdict"] = verdict;
}
BENCHMARK(BM_RemDefinability_Unbounded)->DenseRange(1, 3);

/// A side×side grid (a east, b south) and its a.b relation: one pair per
/// cell with a south-east neighbour, (side − 1)² in all.
struct GridAb {
  DataGraph graph;
  std::vector<std::pair<NodeId, NodeId>> pairs;
};

GridAb MakeGridAb(std::size_t side) {
  GridOptions grid;
  grid.rows = side;
  grid.cols = side;
  DataGraphSink sink;
  GenerateGrid(grid, &sink);
  GridAb out{sink.Take(), {}};
  for (std::size_t r = 0; r + 1 < side; r++) {
    for (std::size_t c = 0; c + 1 < side; c++) {
      out.pairs.emplace_back(static_cast<NodeId>(r * side + c),
                             static_cast<NodeId>((r + 1) * side + c + 1));
    }
  }
  return out;
}

/// RPQ check of the a.b relation on a side×side grid, timed from the
/// canonical pair list to the verdict: relation build plus search plus
/// witnesses, as one served check pays. One macro tuple accepts all
/// (side − 1)² pairs. The auto tuple store is dense at 100² and sparse at
/// 300² and 1000². At 1000² this is sparse-grid's rpq leg, less its
/// container open and its 400 MB byte budget.
void BM_RpqDefinability_SparseGrid(benchmark::State& state) {
  GridAb grid = MakeGridAb(static_cast<std::size_t>(state.range(0)));
  std::size_t tuples = 0;
  int verdict = 0;
  for (auto _ : state) {
    AdaptiveRelation s =
        AdaptiveRelation::FromPairs(grid.graph.NumNodes(), grid.pairs);
    auto result = CheckRpqDefinability(grid.graph, s);
    benchmark::DoNotOptimize(result);
    tuples = result.ValueOrDie().tuples_explored;
    verdict = static_cast<int>(result.ValueOrDie().verdict);
  }
  state.counters["pairs"] = static_cast<double>(grid.pairs.size());
  state.counters["macro_tuples"] = static_cast<double>(tuples);
  state.counters["verdict"] = verdict;
}
BENCHMARK(BM_RpqDefinability_SparseGrid)
    ->Arg(100)
    ->Arg(300)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

/// The same check with one register (k = 1), as sparse-grid's 300² leg
/// runs it: the auto tuple store is sparse, so the time covers the setup
/// (with no assignment graph since successors come from the graph's
/// out-edges) and the search.
void BM_KRemDefinability_SparseGrid(benchmark::State& state) {
  GridAb grid = MakeGridAb(static_cast<std::size_t>(state.range(0)));
  std::size_t tuples = 0;
  int verdict = 0;
  for (auto _ : state) {
    AdaptiveRelation s =
        AdaptiveRelation::FromPairs(grid.graph.NumNodes(), grid.pairs);
    auto result = CheckKRemDefinability(grid.graph, s, 1);
    benchmark::DoNotOptimize(result);
    tuples = result.ValueOrDie().tuples_explored;
    verdict = static_cast<int>(result.ValueOrDie().verdict);
  }
  state.counters["pairs"] = static_cast<double>(grid.pairs.size());
  state.counters["macro_tuples"] = static_cast<double>(tuples);
  state.counters["verdict"] = verdict;
}
BENCHMARK(BM_KRemDefinability_SparseGrid)
    ->Arg(300)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace gqd
