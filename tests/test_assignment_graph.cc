// Unit tests for the k-assignment graph T_G (Definition 19).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/budget.h"
#include "definability/assignment_graph.h"
#include "graph/examples.h"
#include "graph/generators.h"

namespace gqd {
namespace {

TEST(AssignmentGraph, StateCountIsNTimesDeltaPlusOnePowK) {
  DataGraph g = Figure1Graph();  // n = 10, δ = 4
  for (std::size_t k = 0; k <= 2; k++) {
    auto ag = AssignmentGraph::Build(g, k);
    ASSERT_TRUE(ag.ok()) << ag.status();
    std::size_t expected = 10;
    for (std::size_t i = 0; i < k; i++) {
      expected *= 5;  // δ + 1
    }
    EXPECT_EQ(ag.value().num_states(), expected) << "k = " << k;
  }
}

TEST(AssignmentGraph, InitialStateHasBottomAssignment) {
  DataGraph g = Figure1Graph();
  auto ag = AssignmentGraph::Build(g, 2).ValueOrDie();
  for (NodeId v = 0; v < g.NumNodes(); v++) {
    AgState s = ag.InitialState(v);
    EXPECT_EQ(ag.NodeOf(s), v);
    RegisterAssignment sigma = ag.AssignmentOf(s);
    ASSERT_EQ(sigma.size(), 2u);
    EXPECT_EQ(sigma[0], kEmptyRegister);
    EXPECT_EQ(sigma[1], kEmptyRegister);
  }
}

TEST(AssignmentGraph, SuccessorsFollowEdgesAndStoreSemantics) {
  // Line v0(7) -a-> v1(7) -a-> v2(9): storing at v0 then moving to v1
  // (same value) yields pattern bit set; moving on to v2 (different) does
  // not.
  DataGraph g;
  g.AddLabel("a");
  g.AddDataValue("7");
  g.AddDataValue("9");
  NodeId v0 = g.AddNodeWithValue("7", "v0");
  NodeId v1 = g.AddNodeWithValue("7", "v1");
  NodeId v2 = g.AddNodeWithValue("9", "v2");
  g.AddEdgeByName(v0, "a", v1);
  g.AddEdgeByName(v1, "a", v2);

  auto ag = AssignmentGraph::Build(g, 1).ValueOrDie();
  AgState start = ag.InitialState(v0);

  // Store into r1 (mask 1) and read the a-edge.
  const auto& successors = ag.SuccessorsOf(/*store_mask=*/1, /*label=*/0,
                                           start);
  ASSERT_EQ(successors.size(), 1u);
  EXPECT_EQ(ag.NodeOf(successors[0].state), v1);
  // σ' holds ρ(v0) = "7"; target v1 also has "7": pattern bit 0 set.
  EXPECT_EQ(successors[0].pattern, 1);
  RegisterAssignment sigma = ag.AssignmentOf(successors[0].state);
  EXPECT_EQ(sigma[0], g.DataValueOf(v0));

  // Continue without storing: v1 -> v2, register still "7", v2 is "9".
  const auto& next = ag.SuccessorsOf(/*store_mask=*/0, /*label=*/0,
                                     successors[0].state);
  ASSERT_EQ(next.size(), 1u);
  EXPECT_EQ(ag.NodeOf(next[0].state), v2);
  EXPECT_EQ(next[0].pattern, 0);

  // Without storing at v0: register stays ⊥, pattern 0 at v1.
  const auto& unstored = ag.SuccessorsOf(/*store_mask=*/0, /*label=*/0,
                                         start);
  ASSERT_EQ(unstored.size(), 1u);
  EXPECT_EQ(unstored[0].pattern, 0);
  EXPECT_EQ(ag.AssignmentOf(unstored[0].state)[0], kEmptyRegister);
}

TEST(AssignmentGraph, NoEdgesMeansNoSuccessors) {
  DataGraph g;
  g.AddLabel("a");
  g.AddDataValue("0");
  g.AddNodeWithValue("0", "only");
  auto ag = AssignmentGraph::Build(g, 1).ValueOrDie();
  EXPECT_TRUE(ag.SuccessorsOf(0, 0, ag.InitialState(0)).empty());
  EXPECT_TRUE(ag.SuccessorsOf(1, 0, ag.InitialState(0)).empty());
}

TEST(AssignmentGraph, RejectsTooManyRegisters) {
  DataGraph g = Figure1Graph();
  auto ag = AssignmentGraph::Build(g, 5);
  EXPECT_FALSE(ag.ok());
  EXPECT_EQ(ag.status().code(), StatusCode::kOutOfRange);
}

TEST(AssignmentGraph, RejectsHugeStateSpaces) {
  DataGraph g = RandomDataGraph({.num_nodes = 200,
                                 .num_labels = 1,
                                 .num_data_values = 30,
                                 .edge_percent = 5,
                                 .seed = 1});
  auto ag = AssignmentGraph::Build(g, 4);
  EXPECT_FALSE(ag.ok());
}

/// A 28-node path with 28 distinct values: at k = 4 it has
/// 28 · 29^4 ≈ 19.8M states, over the 2^24 cap, in a few hundred bytes of
/// graph.
DataGraph HighDeltaPath() {
  DataGraph g;
  std::vector<NodeId> nodes;
  for (int i = 0; i < 28; i++) {
    nodes.push_back(g.AddNodeWithValue("v" + std::to_string(i),
                                       "n" + std::to_string(i)));
  }
  for (int i = 0; i + 1 < 28; i++) {
    g.AddEdgeByName(nodes[i], "a", nodes[i + 1]);
  }
  return g;
}

TEST(AssignmentGraph, OverCapUnderAByteBudgetIsResourceExhausted) {
  DataGraph g = HighDeltaPath();
  ResourceBudget bytes(std::uint64_t{1} << 30, 0);
  auto budgeted = AssignmentGraph::Build(g, 4, &bytes);
  ASSERT_FALSE(budgeted.ok());
  EXPECT_EQ(budgeted.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(budgeted.status().message().find("bytes of adjacency"),
            std::string::npos)
      << budgeted.status();
  EXPECT_EQ(bytes.bytes_used(), 0u) << "refused before allocating";

  // No byte limit: the cap stays a hard OutOfRange.
  auto unbudgeted = AssignmentGraph::Build(g, 4);
  ASSERT_FALSE(unbudgeted.ok());
  EXPECT_EQ(unbudgeted.status().code(), StatusCode::kOutOfRange);
  ResourceBudget tuples_only(0, 1000);
  auto tuples = AssignmentGraph::Build(g, 4, &tuples_only);
  ASSERT_FALSE(tuples.ok());
  EXPECT_EQ(tuples.status().code(), StatusCode::kOutOfRange);

  // Under the cap a byte budget admits exactly what it admitted before.
  ResourceBudget roomy(std::uint64_t{1} << 30, 0);
  EXPECT_TRUE(AssignmentGraph::Build(g, 1, &roomy).ok());
}

TEST(AssignmentGraph, ChargeReuseReplaysTheBuildCharges) {
  DataGraph g = Figure1Graph();
  for (std::uint64_t max_bytes : {std::uint64_t{0}, std::uint64_t{1} << 30}) {
    SCOPED_TRACE(max_bytes);
    ResourceBudget cold(max_bytes, 1000);
    auto ag = AssignmentGraph::Build(g, 2, &cold);
    ASSERT_TRUE(ag.ok()) << ag.status();
    EXPECT_TRUE(ag.value().has_kernel());
    EXPECT_EQ(cold.bytes_used(), ag.value().BuildChargeBytes(max_bytes != 0));

    ResourceBudget warm(max_bytes, 1000);
    ASSERT_TRUE(ag.value().ChargeReuse(&warm).ok());
    EXPECT_EQ(warm.bytes_used(), cold.bytes_used());
    EXPECT_EQ(warm.bytes_peak(), cold.bytes_peak());
    EXPECT_EQ(warm.tuples_used(), cold.tuples_used());
  }
}

TEST(AssignmentGraph, KernelDroppedForABudgetIsRecorded) {
  DataGraph g = Figure1Graph();
  auto full = AssignmentGraph::Build(g, 2).ValueOrDie();
  // Room for the successor lists but not the kernel rows.
  ResourceBudget tight(full.BuildChargeBytes(false) + 64, 0);
  auto degraded = AssignmentGraph::Build(g, 2, &tight);
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  EXPECT_FALSE(degraded.value().has_kernel());
  EXPECT_TRUE(degraded.value().kernel_dropped_for_budget());
  EXPECT_FALSE(full.kernel_dropped_for_budget());
}

TEST(AssignmentGraph, ReleasingKernelRowsKeepsTheRecordedCharges) {
  DataGraph g = Figure1Graph();
  auto ag = AssignmentGraph::Build(g, 1).ValueOrDie();
  ASSERT_TRUE(ag.has_kernel());
  auto successor_count = [&] {
    std::size_t count = 0;
    for (AgState s = 0; s < ag.num_states(); s++) {
      count += ag.SuccessorsOf(1, 0, s).size();
    }
    return count;
  };
  std::size_t successors = successor_count();
  std::uint64_t charged = ag.BuildChargeBytes(true);
  std::size_t held = ag.HeldBytes();
  ag.ReleaseKernelRows();
  EXPECT_FALSE(ag.has_kernel());
  EXPECT_EQ(ag.BuildChargeBytes(true), charged);
  EXPECT_LT(ag.HeldBytes(), held);
  EXPECT_EQ(successor_count(), successors) << "successor lists stay";
}

// --- CSR layout against Definition 19 --------------------------------------

/// Every register assignment over values {0..δ-1} ∪ {⊥}.
std::vector<RegisterAssignment> AllAssignments(std::size_t k,
                                               std::size_t num_values) {
  std::vector<RegisterAssignment> all = {RegisterAssignment{}};
  for (std::size_t r = 0; r < k; r++) {
    std::vector<RegisterAssignment> longer;
    for (const RegisterAssignment& prefix : all) {
      for (std::size_t d = 0; d <= num_values; d++) {
        RegisterAssignment next = prefix;
        next.push_back(d == num_values ? kEmptyRegister
                                       : static_cast<std::uint32_t>(d));
        longer.push_back(next);
      }
    }
    all = std::move(longer);
  }
  return all;
}

/// (target state, pattern) entries of one (mask, letter, state) row.
using Row = std::vector<std::pair<AgState, std::uint32_t>>;

/// T_G's transitions straight from Definition 19: for each (v, σ), store set
/// r̄ and edge (v, a, v'), σ' = σ[r̄ → ρ(v)] and the pattern {r : σ'(r) =
/// ρ(v')}. States are located through NodeOf/AssignmentOf only.
std::map<std::tuple<std::uint32_t, LabelId, AgState>, Row> OracleRows(
    const DataGraph& g, const AssignmentGraph& ag) {
  std::map<std::pair<NodeId, RegisterAssignment>, AgState> state_of;
  for (AgState s = 0; s < ag.num_states(); s++) {
    EXPECT_TRUE(state_of.emplace(std::make_pair(ag.NodeOf(s),
                                                ag.AssignmentOf(s)),
                                 s)
                    .second)
        << "state " << s << " decodes like an earlier one";
  }
  std::map<std::tuple<std::uint32_t, LabelId, AgState>, Row> rows;
  for (NodeId v = 0; v < g.NumNodes(); v++) {
    for (const RegisterAssignment& sigma :
         AllAssignments(ag.k(), g.NumDataValues())) {
      AgState s = state_of.at({v, sigma});
      for (std::uint32_t mask = 0; mask < ag.num_store_masks(); mask++) {
        RegisterAssignment sigma_prime = sigma;
        for (std::size_t r = 0; r < ag.k(); r++) {
          if (mask & (1u << r)) {
            sigma_prime[r] = g.DataValueOf(v);
          }
        }
        for (const Edge& e : g.edges()) {
          if (e.from != v) {
            continue;
          }
          std::uint32_t pattern = 0;
          for (std::size_t r = 0; r < ag.k(); r++) {
            if (sigma_prime[r] == g.DataValueOf(e.to)) {
              pattern |= 1u << r;
            }
          }
          rows[{mask, e.label, s}].emplace_back(
              state_of.at({e.to, sigma_prime}), pattern);
        }
      }
    }
  }
  return rows;
}

TEST(AssignmentGraph, CsrRowsMatchDefinition19OnRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 12; seed++) {
    DataGraph g = RandomDataGraph({.num_nodes = 2 + seed % 11,
                                   .num_labels = 1 + seed % 3,
                                   .num_data_values = 1 + seed % 3,
                                   .edge_percent = 25,
                                   .seed = seed});
    for (std::size_t k = 0; k <= 3; k++) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " k " +
                   std::to_string(k));
      auto built = AssignmentGraph::Build(g, k);
      ASSERT_TRUE(built.ok()) << built.status();
      const AssignmentGraph& ag = built.value();
      auto oracle = OracleRows(g, ag);
      std::size_t entries = 0;
      for (std::uint32_t mask = 0; mask < ag.num_store_masks(); mask++) {
        for (LabelId a = 0; a < ag.num_labels(); a++) {
          for (AgState s = 0; s < ag.num_states(); s++) {
            Row actual;
            for (const auto& successor : ag.SuccessorsOf(mask, a, s)) {
              actual.emplace_back(successor.state, successor.pattern);
            }
            entries += actual.size();
            Row expected;
            auto it = oracle.find({mask, a, s});
            if (it != oracle.end()) {
              expected = it->second;
            }
            std::sort(actual.begin(), actual.end());
            std::sort(expected.begin(), expected.end());
            ASSERT_EQ(actual, expected)
                << "mask " << mask << " letter " << a << " state " << s;
            if (!ag.has_kernel()) {
              continue;
            }
            std::uint32_t achieved = 0;
            for (std::uint32_t p = 0; p < ag.num_patterns(); p++) {
              std::vector<AgState> from_row;
              const std::uint64_t* row = ag.KernelRow(mask, a, p, s);
              for (AgState t = 0; t < ag.num_states(); t++) {
                if ((row[t >> 6] >> (t & 63)) & 1u) {
                  from_row.push_back(t);
                }
              }
              std::vector<AgState> from_oracle;
              for (const auto& [t, pattern] : expected) {
                if (pattern == p) {
                  from_oracle.push_back(t);
                  achieved |= 1u << p;
                }
              }
              from_oracle.erase(
                  std::unique(from_oracle.begin(), from_oracle.end()),
                  from_oracle.end());
              EXPECT_EQ(from_row, from_oracle) << "kernel pattern " << p;
            }
            EXPECT_EQ(ag.AchievedPatternsAt(mask, a, s), achieved);
          }
        }
      }
      // Exactly 2^k·(δ+1)^k·|E| entries.
      std::size_t codes = 1;
      for (std::size_t r = 0; r < k; r++) {
        codes *= g.NumDataValues() + 1;
      }
      EXPECT_EQ(entries, ag.num_store_masks() * codes * g.NumEdges());
    }
  }
}

TEST(AssignmentGraph, ChargeReuseFollowsBuildsChargeOrder) {
  DataGraph g = RandomDataGraph({.num_nodes = 9,
                                 .num_labels = 2,
                                 .num_data_values = 3,
                                 .edge_percent = 30,
                                 .seed = 7});
  auto full = AssignmentGraph::Build(g, 2).ValueOrDie();
  ASSERT_TRUE(full.has_kernel());
  const std::uint64_t adjacency = full.BuildChargeBytes(false);
  ASSERT_LT(adjacency, full.BuildChargeBytes(true));

  // Below the up-front adjacency charge: refused before the kernel is even
  // considered, with only that charge recorded.
  ResourceBudget short_budget(adjacency - 1, 0);
  auto refused = AssignmentGraph::Build(g, 2, &short_budget);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(short_budget.bytes_used(), adjacency);
  EXPECT_EQ(short_budget.bytes_peak(), adjacency);
  // The replay trips at the same point with the same charge.
  ResourceBudget short_replay(adjacency - 1, 0);
  Status replayed = full.ChargeReuse(&short_replay);
  EXPECT_EQ(replayed.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(short_replay.bytes_used(), adjacency);

  // With room for everything, Build and ChargeReuse charge exactly
  // BuildChargeBytes(true); without a byte limit the kernel is not charged.
  for (std::uint64_t max_bytes :
       {full.BuildChargeBytes(true), std::uint64_t{0}}) {
    SCOPED_TRACE(max_bytes);
    std::uint64_t expected = full.BuildChargeBytes(max_bytes != 0);
    ResourceBudget cold(max_bytes, 0);
    auto built = AssignmentGraph::Build(g, 2, &cold);
    ASSERT_TRUE(built.ok()) << built.status();
    EXPECT_TRUE(built.value().has_kernel());
    EXPECT_EQ(cold.bytes_used(), expected);
    ResourceBudget warm(max_bytes, 0);
    ASSERT_TRUE(full.ChargeReuse(&warm).ok());
    EXPECT_EQ(warm.bytes_used(), expected);
    EXPECT_EQ(warm.bytes_peak(), cold.bytes_peak());
  }
  EXPECT_GE(full.HeldBytes(), full.BuildChargeBytes(true));
}

TEST(AssignmentGraph, KZeroHasSingletonAssignment) {
  DataGraph g = Figure1Graph();
  auto ag = AssignmentGraph::Build(g, 0).ValueOrDie();
  EXPECT_EQ(ag.num_states(), g.NumNodes());
  EXPECT_EQ(ag.num_patterns(), 1u);
  EXPECT_EQ(ag.num_store_masks(), 1u);
  EXPECT_TRUE(ag.AssignmentOf(ag.InitialState(3)).empty());
}

}  // namespace
}  // namespace gqd
