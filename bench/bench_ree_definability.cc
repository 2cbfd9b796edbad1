// E4 — the RDPQ_= level-closure algorithm (Definition 27, Lemmas 28–31).
//
// Paper claims exercised:
//   * the hierarchy stabilizes within n² levels (Lemma 28) — counter
//     `levels` stays far below n² in practice;
//   * the cost driver is the composition-monoid size (`monoid_size`),
//     which grows with graph density and value diversity — the PSPACE
//     flavor made measurable.

#include <benchmark/benchmark.h>

#include <string>

#include "definability/ree_definability.h"
#include "graph/generators.h"

namespace gqd {
namespace {

void RunRee(benchmark::State& state, std::size_t n, std::size_t delta,
            std::size_t labels, std::uint32_t edge_percent) {
  DataGraph g = RandomDataGraph({.num_nodes = n,
                                 .num_labels = labels,
                                 .num_data_values = delta,
                                 .edge_percent = edge_percent,
                                 .seed = 17});
  BinaryRelation s = RandomRelation(n, 20, 4321);
  ReeDefinabilityOptions options;
  options.max_monoid_size = 300'000;
  std::size_t monoid = 0, levels = 0;
  int verdict = 0;
  for (auto _ : state) {
    auto result = CheckReeDefinability(g, s, options);
    benchmark::DoNotOptimize(result);
    monoid = result.ValueOrDie().monoid_size;
    levels = result.ValueOrDie().levels_used;
    verdict = static_cast<int>(result.ValueOrDie().verdict);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["delta"] = static_cast<double>(delta);
  state.counters["monoid_size"] = static_cast<double>(monoid);
  state.counters["elements_per_sec"] =
      benchmark::Counter(static_cast<double>(monoid),
                         benchmark::Counter::kIsIterationInvariantRate);
  state.counters["levels"] = static_cast<double>(levels);
  state.counters["level_bound_n2"] = static_cast<double>(n * n);
  state.counters["verdict"] = verdict;
}

void BM_ReeDefinability_SweepN(benchmark::State& state) {
  RunRee(state, static_cast<std::size_t>(state.range(0)), 2, 1, 25);
}
BENCHMARK(BM_ReeDefinability_SweepN)->DenseRange(3, 6);

void BM_ReeDefinability_SweepDelta(benchmark::State& state) {
  RunRee(state, 4, static_cast<std::size_t>(state.range(0)), 1, 25);
}
BENCHMARK(BM_ReeDefinability_SweepDelta)->DenseRange(1, 4);

void BM_ReeDefinability_SweepDensity(benchmark::State& state) {
  RunRee(state, 4, 2, 1, static_cast<std::uint32_t>(state.range(0)));
}
BENCHMARK(BM_ReeDefinability_SweepDensity)->Arg(10)->Arg(20)->Arg(30)->Arg(40);

void BM_ReeDefinability_SweepLabels(benchmark::State& state) {
  RunRee(state, 4, 2, static_cast<std::size_t>(state.range(0)), 20);
}
BENCHMARK(BM_ReeDefinability_SweepLabels)->DenseRange(1, 3);

/// n nodes with pairwise-distinct data values (ρ injective, so every value
/// class is a single node) on a cycle: node u's one `a`-successor lies one
/// to three steps ahead. The monoid grows from ~100 elements at n = 16 to
/// ~650 at n = 64.
DataGraph InjectiveGraph(std::size_t n) {
  DataGraph g;
  LabelId a = g.AddLabel("a");
  for (std::size_t i = 0; i < n; i++) {
    g.AddNodeWithValue("v" + std::to_string(i), "n" + std::to_string(i));
  }
  SplitMix64 rng(17);
  for (std::size_t u = 0; u < n; u++) {
    g.AddEdge(static_cast<NodeId>(u), a,
              static_cast<NodeId>((u + 1 + rng.NextBelow(3)) % n));
  }
  return g;
}

/// Injective graphs are the extreme of the =/≠ restrictions: each value
/// class mask holds one bit.
void BM_ReeDefinability_Injective(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  DataGraph g = InjectiveGraph(n);
  BinaryRelation s = RandomRelation(n, 20, 4321);
  std::size_t monoid = 0, levels = 0;
  for (auto _ : state) {
    auto result = CheckReeDefinability(g, s);
    benchmark::DoNotOptimize(result);
    monoid = result.ValueOrDie().monoid_size;
    levels = result.ValueOrDie().levels_used;
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["monoid_size"] = static_cast<double>(monoid);
  state.counters["elements_per_sec"] =
      benchmark::Counter(static_cast<double>(monoid),
                         benchmark::Counter::kIsIterationInvariantRate);
  state.counters["levels"] = static_cast<double>(levels);
}
BENCHMARK(BM_ReeDefinability_Injective)->Arg(16)->Arg(32)->Arg(64);

}  // namespace
}  // namespace gqd
