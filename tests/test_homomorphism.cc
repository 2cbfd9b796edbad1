// Unit tests for the CSP engine and data-graph homomorphisms (Def. 33).

#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "graph/examples.h"
#include "graph/generators.h"
#include "homomorphism/csp.h"
#include "homomorphism/data_graph_hom.h"

namespace gqd {
namespace {

TEST(Csp, TrivialSatisfiable) {
  Csp csp = Csp::Full(2, 3);
  // x != y.
  DynamicBitset neq(9);
  for (std::uint32_t a = 0; a < 3; a++) {
    for (std::uint32_t b = 0; b < 3; b++) {
      if (a != b) {
        neq.Set(a * 3 + b);
      }
    }
  }
  csp.AddConstraint(0, 1, neq);
  auto solution = SolveCsp(csp);
  ASSERT_TRUE(solution.ok());
  ASSERT_TRUE(solution.value().has_value());
  EXPECT_NE((*solution.value())[0], (*solution.value())[1]);
}

TEST(Csp, DetectsUnsatisfiable) {
  // 3 mutually-different variables over a 2-value domain.
  Csp csp = Csp::Full(3, 2);
  DynamicBitset neq(4);
  neq.Set(0 * 2 + 1);
  neq.Set(1 * 2 + 0);
  csp.AddConstraint(0, 1, neq);
  csp.AddConstraint(1, 2, neq);
  csp.AddConstraint(0, 2, neq);
  auto solution = SolveCsp(csp);
  ASSERT_TRUE(solution.ok());
  EXPECT_FALSE(solution.value().has_value());
}

TEST(Csp, PinRestrictsSolution) {
  Csp csp = Csp::Full(2, 4);
  csp.Pin(0, 2);
  auto solution = SolveCsp(csp);
  ASSERT_TRUE(solution.ok());
  ASSERT_TRUE(solution.value().has_value());
  EXPECT_EQ((*solution.value())[0], 2u);
}

TEST(Csp, EnumerationCountsGraphColorings) {
  // Proper 3-colorings of a triangle: 3! = 6.
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
  auto solutions = EnumerateCspSolutions(csp);
  ASSERT_TRUE(solutions.ok());
  EXPECT_EQ(solutions.value().size(), 6u);
}

TEST(Csp, Ac3OffMatchesAc3On) {
  // Same solutions either way; AC-3 just prunes the search.
  for (std::uint64_t seed = 1; seed <= 6; seed++) {
    SplitMix64 rng(seed);
    Csp csp = Csp::Full(4, 4);
    for (std::size_t i = 0; i < 4; i++) {
      for (std::size_t j = i + 1; j < 4; j++) {
        DynamicBitset allowed(16);
        for (std::size_t bit = 0; bit < 16; bit++) {
          if (rng.NextBool(60, 100)) {
            allowed.Set(bit);
          }
        }
        csp.AddConstraint(i, j, allowed);
      }
    }
    CspOptions with, without;
    with.use_ac3 = true;
    without.use_ac3 = false;
    auto a = SolveCsp(csp, with);
    auto b = SolveCsp(csp, without);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.value().has_value(), b.value().has_value()) << seed;
  }
}

TEST(Csp, BudgetIsReported) {
  // A hard unsatisfiable instance with a tiny node budget.
  Csp csp = Csp::Full(8, 8);
  DynamicBitset neq(64);
  for (std::uint32_t a = 0; a < 8; a++) {
    for (std::uint32_t b = 0; b < 8; b++) {
      if (a != b) {
        neq.Set(a * 8 + b);
      }
    }
  }
  // 9-clique coloring with 8 colors is unsat, but we only have 8 vars;
  // make it unsat by pinning two vars equal and constraining them apart.
  csp.AddConstraint(0, 1, neq);
  csp.Pin(0, 3);
  csp.Pin(1, 3);
  CspOptions options;
  options.use_ac3 = false;  // otherwise the initial AC-3 pass refutes it
  options.max_nodes = 0;    // forces exhaustion immediately
  auto result = SolveCsp(csp, options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(Csp, DeadlineCancelsMidSearch) {
  // All-different with one more variable than values: unsatisfiable, but
  // AC-3 over != constraints only prunes singletons, so refuting it by
  // backtracking is astronomically expensive. The strided cancel poll must
  // stop the search shortly after the deadline instead.
  constexpr std::size_t kVariables = 13;
  constexpr std::uint32_t kValues = 12;
  Csp csp = Csp::Full(kVariables, kValues);
  DynamicBitset neq(kValues * kValues);
  for (std::uint32_t a = 0; a < kValues; a++) {
    for (std::uint32_t b = 0; b < kValues; b++) {
      if (a != b) {
        neq.Set(a * kValues + b);
      }
    }
  }
  for (std::size_t i = 0; i < kVariables; i++) {
    for (std::size_t j = i + 1; j < kVariables; j++) {
      csp.AddConstraint(i, j, neq);
    }
  }
  CancelToken cancel(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::milliseconds(20)));
  CspOptions options;
  options.cancel = &cancel;
  auto start = std::chrono::steady_clock::now();
  auto result = SolveCsp(csp, options);
  double elapsed_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status();
  EXPECT_LT(elapsed_ms, 5000.0);
}

/// A seeded random CSP for the word-boundary pins below: 5 variables over
/// `domain_size` values, a constraint on most variable pairs, some values
/// carved out of the domains, and one pin.
Csp WordBoundaryCsp(std::size_t domain_size, std::uint64_t seed) {
  constexpr std::size_t kVariables = 5;
  constexpr std::uint32_t kPercents[] = {10, 25, 50, 80};
  SplitMix64 rng(seed * 1000 + domain_size);
  std::uint32_t percent = kPercents[seed % 4];
  Csp csp = Csp::Full(kVariables, domain_size);
  for (std::size_t i = 0; i < kVariables; i++) {
    for (std::size_t j = i + 1; j < kVariables; j++) {
      if (!rng.NextBool(3, 4)) {
        continue;
      }
      DynamicBitset allowed(domain_size * domain_size);
      for (std::size_t bit = 0; bit < allowed.size(); bit++) {
        if (rng.NextBool(percent, 100)) {
          allowed.Set(bit);
        }
      }
      csp.AddConstraint(i, j, allowed);
    }
  }
  for (std::size_t v = 0; v < kVariables; v++) {
    for (std::size_t value = 0; value < domain_size; value++) {
      if (rng.NextBool(1, 8)) {
        csp.domains[v].Reset(value);
      }
    }
  }
  csp.Pin(rng.NextBelow(kVariables),
          static_cast<std::uint32_t>(rng.NextBelow(domain_size)));
  return csp;
}

TEST(Csp, Ac3PinnedAcrossTheWordBoundary) {
  // Solutions, search nodes and arc revisions on domains that end just
  // before, at and after a 64-bit word boundary, with AC-3 on and off.
  // Pinned from the engine's bit-by-bit revisions; the word-parallel ones
  // must reproduce them exactly.
  const std::vector<std::string> expected = {
      "D=1 seed=1 ac3=1 sol=none nodes=0 props=8",
      "D=1 seed=1 ac3=0 sol=none nodes=1 props=0",
      "D=1 seed=2 ac3=1 sol=none nodes=0 props=6",
      "D=1 seed=2 ac3=0 sol=none nodes=1 props=0",
      "D=1 seed=3 ac3=1 sol=0,0,0,0,0 nodes=1 props=20",
      "D=1 seed=3 ac3=0 sol=0,0,0,0,0 nodes=1 props=0",
      "D=1 seed=4 ac3=1 sol=none nodes=0 props=2",
      "D=1 seed=4 ac3=0 sol=none nodes=1 props=0",
      "D=1 seed=5 ac3=1 sol=none nodes=0 props=4",
      "D=1 seed=5 ac3=0 sol=none nodes=1 props=0",
      "D=5 seed=1 ac3=1 sol=none nodes=0 props=12",
      "D=5 seed=1 ac3=0 sol=none nodes=4 props=0",
      "D=5 seed=2 ac3=1 sol=3,0,0,0,1 nodes=5 props=92",
      "D=5 seed=2 ac3=0 sol=3,0,0,0,1 nodes=5 props=0",
      "D=5 seed=3 ac3=1 sol=3,1,1,1,0 nodes=5 props=86",
      "D=5 seed=3 ac3=0 sol=3,1,1,1,0 nodes=5 props=0",
      "D=5 seed=4 ac3=1 sol=none nodes=0 props=2",
      "D=5 seed=4 ac3=0 sol=none nodes=4 props=0",
      "D=5 seed=5 ac3=1 sol=none nodes=0 props=10",
      "D=5 seed=5 ac3=0 sol=none nodes=11 props=0",
      "D=63 seed=1 ac3=1 sol=none nodes=0 props=2",
      "D=63 seed=1 ac3=0 sol=none nodes=1 props=0",
      "D=63 seed=2 ac3=1 sol=21,2,5,0,4 nodes=5 props=116",
      "D=63 seed=2 ac3=0 sol=21,2,1,2,4 nodes=5 props=0",
      "D=63 seed=3 ac3=1 sol=33,5,5,3,1 nodes=5 props=148",
      "D=63 seed=3 ac3=0 sol=33,12,4,0,1 nodes=5 props=0",
      "D=63 seed=4 ac3=1 sol=none nodes=0 props=14",
      "D=63 seed=4 ac3=0 sol=none nodes=53 props=0",
      "D=63 seed=5 ac3=1 sol=1,32,1,25,61 nodes=4 props=104",
      "D=63 seed=5 ac3=0 sol=1,35,53,0,61 nodes=6 props=0",
      "D=64 seed=1 ac3=1 sol=2,51,7,32,16 nodes=3 props=108",
      "D=64 seed=1 ac3=0 sol=17,51,0,61,20 nodes=5 props=0",
      "D=64 seed=2 ac3=1 sol=1,4,3,0,30 nodes=5 props=116",
      "D=64 seed=2 ac3=0 sol=1,5,0,0,30 nodes=5 props=0",
      "D=64 seed=3 ac3=1 sol=0,0,0,0,0 nodes=5 props=118",
      "D=64 seed=3 ac3=0 sol=0,0,0,0,0 nodes=5 props=0",
      "D=64 seed=4 ac3=1 sol=none nodes=0 props=2",
      "D=64 seed=4 ac3=0 sol=none nodes=1 props=0",
      "D=64 seed=5 ac3=1 sol=56,22,2,60,1 nodes=2 props=96",
      "D=64 seed=5 ac3=0 sol=56,22,2,60,1 nodes=6 props=0",
      "D=65 seed=1 ac3=1 sol=38,14,64,22,4 nodes=4 props=140",
      "D=65 seed=1 ac3=0 sol=38,14,64,22,4 nodes=6 props=0",
      "D=65 seed=2 ac3=1 sol=0,51,14,0,3 nodes=5 props=114",
      "D=65 seed=2 ac3=0 sol=0,51,2,2,2 nodes=5 props=0",
      "D=65 seed=3 ac3=1 sol=none nodes=0 props=6",
      "D=65 seed=3 ac3=0 sol=none nodes=1 props=0",
      "D=65 seed=4 ac3=1 sol=none nodes=0 props=40",
      "D=65 seed=4 ac3=0 sol=none nodes=15 props=0",
      "D=65 seed=5 ac3=1 sol=1,22,4,5,7 nodes=5 props=100",
      "D=65 seed=5 ac3=0 sol=1,22,4,5,7 nodes=5 props=0",
      "D=130 seed=1 ac3=1 sol=27,2,99,18,19 nodes=4 props=114",
      "D=130 seed=1 ac3=0 sol=27,78,4,18,19 nodes=5 props=0",
      "D=130 seed=2 ac3=1 sol=0,4,94,1,0 nodes=5 props=64",
      "D=130 seed=2 ac3=0 sol=0,4,94,1,0 nodes=5 props=0",
      "D=130 seed=3 ac3=1 sol=0,0,2,0,1 nodes=5 props=126",
      "D=130 seed=3 ac3=0 sol=0,0,2,0,1 nodes=5 props=0",
      "D=130 seed=4 ac3=1 sol=11,116,30,72,0 nodes=3 props=66",
      "D=130 seed=4 ac3=0 sol=20,116,116,25,0 nodes=61 props=0",
      "D=130 seed=5 ac3=1 sol=123,3,18,0,16 nodes=5 props=92",
      "D=130 seed=5 ac3=0 sol=123,3,2,0,56 nodes=5 props=0"};
  std::vector<std::string> actual;
  for (std::size_t domain_size : {1, 5, 63, 64, 65, 130}) {
    for (std::uint64_t seed = 1; seed <= 5; seed++) {
      Csp csp = WordBoundaryCsp(domain_size, seed);
      for (bool ac3 : {true, false}) {
        CspOptions options;
        options.use_ac3 = ac3;
        options.max_nodes = 200'000;
        CspStats stats;
        auto solved = SolveCsp(csp, options, &stats);
        std::string line = "D=" + std::to_string(domain_size) +
                           " seed=" + std::to_string(seed) +
                           " ac3=" + std::to_string(ac3) + " sol=";
        if (!solved.ok()) {
          line += "error";
        } else if (!solved.value().has_value()) {
          line += "none";
        } else {
          for (std::size_t v = 0; v < solved.value()->size(); v++) {
            line += (v == 0 ? "" : ",") +
                    std::to_string((*solved.value())[v]);
          }
        }
        line += " nodes=" + std::to_string(stats.nodes_expanded) +
                " props=" + std::to_string(stats.propagations);
        actual.push_back(std::move(line));
      }
    }
  }
  EXPECT_EQ(actual, expected);
}

TEST(DataGraphHom, IdentityIsAlwaysHomomorphism) {
  DataGraph g = Figure1Graph();
  NodeMapping identity(g.NumNodes());
  for (NodeId v = 0; v < g.NumNodes(); v++) {
    identity[v] = v;
  }
  EXPECT_TRUE(IsDataGraphHomomorphism(g, identity));
}

TEST(DataGraphHom, RejectsEdgeViolation) {
  DataGraph g = Figure1Graph();
  Figure1Nodes n = Figure1NodeIds(g);
  NodeMapping mapping(g.NumNodes());
  for (NodeId v = 0; v < g.NumNodes(); v++) {
    mapping[v] = v;
  }
  mapping[n.v2] = n.v4;  // v1 -a-> v2 needs v1 -a-> v4, which is absent
  EXPECT_FALSE(IsDataGraphHomomorphism(g, mapping));
}

TEST(DataGraphHom, Reachability) {
  DataGraph g = Figure1Graph();
  Figure1Nodes n = Figure1NodeIds(g);
  BinaryRelation reach = Reachability(g);
  EXPECT_TRUE(reach.Test(n.v1, n.v1));   // reflexive
  EXPECT_TRUE(reach.Test(n.v1, n.w4));   // v1 →* v'4
  EXPECT_FALSE(reach.Test(n.v4, n.v1));  // v4 is a sink
}

/// Oracle: enumerate all n^n mappings and filter by Definition 33.
std::vector<NodeMapping> NaiveHomomorphisms(const DataGraph& g) {
  std::vector<NodeMapping> result;
  std::size_t n = g.NumNodes();
  NodeMapping mapping(n, 0);
  while (true) {
    if (IsDataGraphHomomorphism(g, mapping)) {
      result.push_back(mapping);
    }
    std::size_t i = n;
    while (i > 0) {
      i--;
      if (++mapping[i] < n) {
        break;
      }
      mapping[i] = 0;
      if (i == 0) {
        return result;
      }
    }
  }
}

class HomEnumerationTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HomEnumerationTest, CspEnumerationMatchesNaive) {
  DataGraph g = RandomDataGraph({.num_nodes = 5,
                                 .num_labels = 2,
                                 .num_data_values = 2,
                                 .edge_percent = 25,
                                 .seed = GetParam()});
  auto csp_homs = EnumerateHomomorphisms(g);
  ASSERT_TRUE(csp_homs.ok());
  std::vector<NodeMapping> naive = NaiveHomomorphisms(g);
  // Compare as sets.
  std::set<NodeMapping> a(csp_homs.value().begin(), csp_homs.value().end());
  std::set<NodeMapping> b(naive.begin(), naive.end());
  EXPECT_EQ(a, b) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, HomEnumerationTest,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(DataGraphHom, PinsSeedTheSearch) {
  DataGraph g = Figure1Graph();
  Figure1Nodes n = Figure1NodeIds(g);
  // Pinning the identity on every node succeeds.
  std::vector<std::pair<NodeId, NodeId>> pins;
  for (NodeId v = 0; v < g.NumNodes(); v++) {
    pins.emplace_back(v, v);
  }
  auto hom = FindHomomorphismWithPins(g, pins);
  ASSERT_TRUE(hom.ok());
  EXPECT_TRUE(hom.value().has_value());
  // Pinning v1 -> v4 (a sink with a different value situation) must fail:
  // v1 has out-edges, v4 has none, violating single-step compatibility.
  auto bad = FindHomomorphismWithPins(g, {{n.v1, n.v4}});
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(bad.value().has_value());
}

}  // namespace
}  // namespace gqd
