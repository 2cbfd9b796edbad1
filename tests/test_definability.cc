// Integration tests for the four definability checkers against the paper's
// Example 12 / Example 14 claims on the Figure-1 graph, plus synthesis
// round-trips and cross-checker implication properties on random graphs.

#include <gtest/gtest.h>

#include <chrono>

#include "analysis/plan/kernel_class.h"
#include "common/budget.h"
#include "common/cancel.h"
#include "definability/krem_definability.h"
#include "definability/ree_definability.h"
#include "definability/rpq_definability.h"
#include "definability/ucrdpq_definability.h"
#include "eval/rem_eval.h"
#include "eval/ree_eval.h"
#include "eval/rpq_eval.h"
#include "graph/examples.h"
#include "graph/generators.h"
#include "graph/sparse_relation.h"
#include "rem/parser.h"
#include "ree/parser.h"
#include "regex/parser.h"

namespace gqd {
namespace {

// --- Figure 1 / Example 12 ------------------------------------------------

TEST(RpqDefinability, S1IsRpqDefinable) {
  DataGraph g = Figure1Graph();
  auto result = CheckRpqDefinability(g, Figure1S1(g));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value().verdict, DefinabilityVerdict::kDefinable);
  // The defining regex round-trips through the RPQ evaluator.
  RegexPtr regex = RegexFromWitnesses(result.value(), g.labels());
  EXPECT_EQ(EvaluateRpq(g, regex), Figure1S1(g)) << RegexToString(regex);
}

TEST(RpqDefinability, S2IsNotRpqDefinable) {
  // Example 12: "Neither S2 nor S3 can be defined using RPQs."
  DataGraph g = Figure1Graph();
  auto result = CheckRpqDefinability(g, Figure1S2(g));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value().verdict, DefinabilityVerdict::kNotDefinable);
}

TEST(RpqDefinability, S3IsNotRpqDefinable) {
  DataGraph g = Figure1Graph();
  auto result = CheckRpqDefinability(g, Figure1S3(g));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value().verdict, DefinabilityVerdict::kNotDefinable);
}

TEST(KRemDefinability, S2IsTwoRemDefinable) {
  // Example 12: e2 = ↓r1·a·↓r2·a[r1=]·a[r2=] defines S2 with 2 registers.
  DataGraph g = Figure1Graph();
  auto result = CheckKRemDefinability(g, Figure1S2(g), 2);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result.value().verdict, DefinabilityVerdict::kDefinable);
  // Round-trip: the union of synthesized witnesses evaluates to exactly S2.
  BinaryRelation defined(g.NumNodes());
  for (const KRemWitness& witness : result.value().witnesses) {
    RemPtr e = BasicRemFromBlocks(witness.blocks, 2, g.labels());
    BinaryRelation rel = EvaluateRem(g, e);
    EXPECT_TRUE(rel.Test(witness.from, witness.to)) << RemToString(e);
    EXPECT_TRUE(rel.IsSubsetOf(Figure1S2(g))) << RemToString(e);
    defined.UnionWith(rel);
  }
  EXPECT_EQ(defined, Figure1S2(g));
}

TEST(KRemDefinability, S2IsNotOneRemDefinable) {
  // Example 12 argues S2 needs the interleaved check — 2 registers.
  DataGraph g = Figure1Graph();
  auto result = CheckKRemDefinability(g, Figure1S2(g), 1);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value().verdict, DefinabilityVerdict::kNotDefinable);
}

TEST(KRemDefinability, S3IsTwoRemDefinableButNotOne) {
  // Example 12: "S3 cannot be defined by an RDPQ_mem that uses a 1-REM.
  // A 2-REM would work though."
  DataGraph g = Figure1Graph();
  auto with_two = CheckKRemDefinability(g, Figure1S3(g), 2);
  ASSERT_TRUE(with_two.ok()) << with_two.status();
  EXPECT_EQ(with_two.value().verdict, DefinabilityVerdict::kDefinable);
  auto with_one = CheckKRemDefinability(g, Figure1S3(g), 1);
  ASSERT_TRUE(with_one.ok()) << with_one.status();
  EXPECT_EQ(with_one.value().verdict, DefinabilityVerdict::kNotDefinable);
}

TEST(KRemDefinability, S1IsZeroRemDefinable) {
  // S1 is RPQ-definable, i.e. 0-REM-definable.
  DataGraph g = Figure1Graph();
  auto result = CheckKRemDefinability(g, Figure1S1(g), 0);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value().verdict, DefinabilityVerdict::kDefinable);
}

TEST(KRemDefinability, MonotoneInK) {
  // Definable with k registers ⇒ definable with k+1 (property sweep on
  // Figure 1's three relations, k = 0, 1, 2).
  DataGraph g = Figure1Graph();
  for (const BinaryRelation& s :
       {Figure1S1(g), Figure1S2(g), Figure1S3(g)}) {
    bool definable_before = false;
    for (std::size_t k = 0; k <= 2; k++) {
      auto result = CheckKRemDefinability(g, s, k);
      ASSERT_TRUE(result.ok());
      bool definable =
          result.value().verdict == DefinabilityVerdict::kDefinable;
      if (definable_before) {
        EXPECT_TRUE(definable) << "k=" << k;
      }
      definable_before = definable;
    }
  }
}

TEST(ReeDefinability, S3IsReeDefinable) {
  DataGraph g = Figure1Graph();
  auto result = CheckReeDefinability(g, Figure1S3(g));
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result.value().verdict, DefinabilityVerdict::kDefinable);
  // Round-trip: the synthesized REE evaluates to exactly S3.
  EXPECT_EQ(EvaluateRee(g, result.value().defining_expression),
            Figure1S3(g))
      << ReeToString(result.value().defining_expression);
}

TEST(ReeDefinability, S2IsNotReeDefinable) {
  // Example 12: "For the same reason, S2 cannot be defined using RDPQ_=."
  DataGraph g = Figure1Graph();
  auto result = CheckReeDefinability(g, Figure1S2(g));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value().verdict, DefinabilityVerdict::kNotDefinable);
}

TEST(ReeDefinability, S1IsReeDefinable) {
  DataGraph g = Figure1Graph();
  auto result = CheckReeDefinability(g, Figure1S1(g));
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result.value().verdict, DefinabilityVerdict::kDefinable);
  EXPECT_EQ(EvaluateRee(g, result.value().defining_expression),
            Figure1S1(g));
}

TEST(ReeDefinability, EmptyRelationDefinable) {
  DataGraph g = Figure1Graph();
  auto result = CheckReeDefinability(g, BinaryRelation(g.NumNodes()));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().verdict, DefinabilityVerdict::kDefinable);
  EXPECT_TRUE(
      EvaluateRee(g, result.value().defining_expression).Empty());
}

TEST(UcrdpqDefinability, Example14RelationIsDefinable) {
  // {(v1, v2)} is UCRDPQ-definable (by Q4) even though no RDPQ defines it.
  DataGraph g = Figure1Graph();
  Figure1Nodes n = Figure1NodeIds(g);
  TupleRelation s(2);
  s.Insert({n.v1, n.v2});
  auto result = CheckUcrdpqDefinability(g, s);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value().verdict, DefinabilityVerdict::kDefinable);
  // ... while no RDPQ_mem (2 registers suffice to probe) defines it:
  BinaryRelation binary(g.NumNodes());
  binary.Set(n.v1, n.v2);
  auto rem = CheckKRemDefinability(g, binary, 2);
  ASSERT_TRUE(rem.ok());
  EXPECT_EQ(rem.value().verdict, DefinabilityVerdict::kNotDefinable);
  auto ree = CheckReeDefinability(g, binary);
  ASSERT_TRUE(ree.ok());
  EXPECT_EQ(ree.value().verdict, DefinabilityVerdict::kNotDefinable);
}

TEST(UcrdpqDefinability, AllFigure1RelationsDefinable) {
  // REM/REE-definable relations are UCRDPQ-definable (single-atom CRDPQ).
  DataGraph g = Figure1Graph();
  for (const BinaryRelation& s :
       {Figure1S1(g), Figure1S2(g), Figure1S3(g)}) {
    auto result = CheckUcrdpqDefinability(g, s);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().verdict, DefinabilityVerdict::kDefinable);
  }
}

TEST(UcrdpqDefinability, NonDefinableProducesCertificate) {
  // A relation violated by some homomorphism. On Figure 1, {(v1, v4)}
  // alone: the path 0a1a0a1 also connects via automorphic images, and a
  // homomorphism moving the primed chain onto... — we simply assert that
  // whenever the checker says "not definable" it hands back a certificate
  // that passes Definition 33 and maps a tuple of S outside S.
  DataGraph g = Figure1Graph();
  Figure1Nodes n = Figure1NodeIds(g);
  TupleRelation s(2);
  s.Insert({n.v1, n.v4});  // S2 without (v'1, v'4)
  auto result = CheckUcrdpqDefinability(g, s);
  ASSERT_TRUE(result.ok()) << result.status();
  if (result.value().verdict == DefinabilityVerdict::kNotDefinable) {
    ASSERT_TRUE(result.value().violating_homomorphism.has_value());
    ASSERT_TRUE(result.value().violated_tuple.has_value());
    const NodeMapping& h = *result.value().violating_homomorphism;
    EXPECT_TRUE(IsDataGraphHomomorphism(g, h));
    NodeTuple image;
    for (NodeId v : *result.value().violated_tuple) {
      image.push_back(h[v]);
    }
    EXPECT_FALSE(s.Contains(image));
  }
}

TEST(UcrdpqDefinability, DeadlineCancelsSeedLoop) {
  // An expired deadline must surface as DeadlineExceeded from inside the
  // seeded-search loop — even when every individual CSP search is far too
  // small to reach the engine's strided cancel poll.
  DataGraph g = Figure1Graph();
  BinaryRelation s = Figure1S2(g);
  CancelToken cancel{std::chrono::nanoseconds(0)};
  UcrdpqDefinabilityOptions options;
  options.csp.cancel = &cancel;
  auto result = CheckUcrdpqDefinability(g, s, options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status();
}

TEST(UcrdpqDefinability, ByteBudgetRefusesTheCspBeforeBuildingIt) {
  // A 2000-node path has ~2M reachable pairs, each a table of 2000 rows:
  // about a terabyte. The byte budget must refuse them before any is
  // allocated.
  std::vector<std::uint32_t> values(2000);
  for (std::size_t i = 0; i < values.size(); i++) {
    values[i] = static_cast<std::uint32_t>(i % 3);
  }
  DataGraph g = LineGraph(values);
  BinaryRelation s(g.NumNodes());
  s.Set(0, 1);
  ResourceBudget budget(20'000'000, 0);
  UcrdpqDefinabilityOptions options;
  options.csp.budget = &budget;
  auto result = CheckUcrdpqDefinability(g, s, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(result.status().message().find("homomorphism CSP too large"),
            std::string::npos)
      << result.status();
  EXPECT_GT(budget.bytes_used(), std::uint64_t{500'000'000'000});
}

TEST(UcrdpqDefinability, ByteBudgetChargesTheSeedMemo) {
  // Room for the tables but not for one memoized first-pin closure: the
  // seed loop stops with a budget verdict and a partial-progress report.
  DataGraph g = RandomDataGraph({.num_nodes = 12,
                                 .num_labels = 2,
                                 .num_data_values = 2,
                                 .edge_percent = 15,
                                 .seed = 3});
  BinaryRelation s = RandomRelation(12, 10, 4);
  ResourceBudget probe(1, 0);
  UcrdpqDefinabilityOptions options;
  options.csp.budget = &probe;
  ASSERT_FALSE(CheckUcrdpqDefinability(g, s, options).ok());
  const std::uint64_t table_bytes = probe.bytes_used();
  ResourceBudget tight(table_bytes + 1, 0);
  options.csp.budget = &tight;
  auto result = CheckUcrdpqDefinability(g, s, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value().verdict, DefinabilityVerdict::kBudgetExhausted);
  ASSERT_TRUE(result.value().partial.has_value());
  EXPECT_EQ(result.value().partial->stage, "ucrdpq-csp");
  EXPECT_GT(result.value().seeds_tried, 0u);
}

TEST(UcrdpqDefinability, RoomyByteBudgetKeepsVerdictAndSeeds) {
  for (std::uint64_t seed = 1; seed <= 8; seed++) {
    std::size_t n = 6 + seed % 6;
    DataGraph g = RandomDataGraph({.num_nodes = n,
                                   .num_labels = 1 + seed % 2,
                                   .num_data_values = 2,
                                   .edge_percent = 20,
                                   .seed = seed});
    BinaryRelation s = RandomRelation(n, 15, seed + 50);
    auto unbudgeted = CheckUcrdpqDefinability(g, s);
    ResourceBudget budget(1'000'000'000, 0);
    UcrdpqDefinabilityOptions options;
    options.csp.budget = &budget;
    auto budgeted = CheckUcrdpqDefinability(g, s, options);
    ASSERT_TRUE(unbudgeted.ok()) << seed;
    ASSERT_TRUE(budgeted.ok()) << seed;
    EXPECT_EQ(unbudgeted.value().verdict, budgeted.value().verdict) << seed;
    EXPECT_EQ(unbudgeted.value().seeds_tried, budgeted.value().seeds_tried)
        << seed;
    EXPECT_EQ(unbudgeted.value().violating_homomorphism,
              budgeted.value().violating_homomorphism)
        << seed;
    EXPECT_FALSE(budgeted.value().partial.has_value()) << seed;
    EXPECT_GT(budget.bytes_peak(), 0u) << seed;
  }
}

TEST(UcrdpqDefinability, HalfOfS2) {
  // {(v1,v4)} vs S2: the primed chain v'1..v'4 maps onto v1..v4 by an
  // automorphism-like homomorphism only if data compatibility allows; the
  // checker must agree with naive enumeration either way.
  DataGraph g = Figure1Graph();
  Figure1Nodes n = Figure1NodeIds(g);
  TupleRelation s(2);
  s.Insert({n.v1, n.v4});
  auto fast = CheckUcrdpqDefinability(g, s);
  ASSERT_TRUE(fast.ok());
  // Naive oracle over all homomorphisms.
  auto homs = EnumerateHomomorphisms(g);
  ASSERT_TRUE(homs.ok());
  bool preserved = true;
  for (const NodeMapping& h : homs.value()) {
    if (!s.Contains({h[n.v1], h[n.v4]})) {
      preserved = false;
      break;
    }
  }
  EXPECT_EQ(fast.value().verdict == DefinabilityVerdict::kDefinable,
            preserved);
}

// --- Synthesis round-trips on random graphs --------------------------------

class DefinabilityRoundTrip : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  DataGraph MakeGraph() {
    return RandomDataGraph({.num_nodes = 4,
                            .num_labels = 2,
                            .num_data_values = 2,
                            .edge_percent = 30,
                            .seed = GetParam()});
  }
};

TEST_P(DefinabilityRoundTrip, EvaluatedReeIsReeDefinable) {
  // S := Q(G) for a concrete REE Q must be REE-definable, and the
  // synthesized expression must evaluate back to S.
  DataGraph g = MakeGraph();
  for (const char* text :
       {"(a)=", "a b", "((a)!= (b)!=)!=", "(a+)=", "a | (b)="}) {
    BinaryRelation s = EvaluateRee(g, ParseRee(text).ValueOrDie());
    auto result = CheckReeDefinability(g, s);
    ASSERT_TRUE(result.ok()) << text;
    ASSERT_EQ(result.value().verdict, DefinabilityVerdict::kDefinable)
        << text << " seed " << GetParam();
    if (!s.Empty()) {
      EXPECT_EQ(EvaluateRee(g, result.value().defining_expression), s)
          << text;
    }
  }
}

TEST_P(DefinabilityRoundTrip, EvaluatedRemIsKRemDefinable) {
  // S := Q(G) for a k-register REM Q must be k-REM-definable.
  DataGraph g = MakeGraph();
  struct Case {
    const char* text;
    std::size_t k;
  };
  for (const Case& c : {Case{"$r1. a[r1=]", 1}, Case{"$r1. a b[r1=]", 1},
                        Case{"$r1. a $r2. b a[r2=]", 2},
                        Case{"a (a | b)", 0}}) {
    BinaryRelation s = EvaluateRem(g, ParseRem(c.text).ValueOrDie());
    auto result = CheckKRemDefinability(g, s, c.k);
    ASSERT_TRUE(result.ok()) << c.text;
    ASSERT_EQ(result.value().verdict, DefinabilityVerdict::kDefinable)
        << c.text << " seed " << GetParam();
    // Union of witnesses re-evaluates to exactly S.
    BinaryRelation defined(g.NumNodes());
    for (const KRemWitness& witness : result.value().witnesses) {
      RemPtr e = BasicRemFromBlocks(witness.blocks, c.k, g.labels());
      defined.UnionWith(EvaluateRem(g, e));
    }
    EXPECT_EQ(defined, s) << c.text;
  }
}

TEST_P(DefinabilityRoundTrip, ImplicationChain) {
  // RPQ-definable ⇒ REE-definable ⇒ REM-definable ⇒ UCRDPQ-definable,
  // checked on random relations (skipping any budget-exhausted verdicts).
  DataGraph g = MakeGraph();
  BinaryRelation s = RandomRelation(g.NumNodes(), 20, GetParam() * 977 + 5);
  // Keep the REM leg's budget small: not-definable verdicts require
  // exhausting the macro-tuple space (the paper's EXPSPACE wall), and the
  // implications below skip budget-exhausted verdicts anyway.
  KRemDefinabilityOptions rem_options;
  rem_options.max_tuples = 5'000;
  auto rpq = CheckRpqDefinability(g, s, rem_options);
  auto ree = CheckReeDefinability(g, s);
  auto rem = CheckRemDefinability(g, s, rem_options);  // δ = 2: exact k
  auto ucrdpq = CheckUcrdpqDefinability(g, s);
  ASSERT_TRUE(rpq.ok() && ree.ok() && rem.ok() && ucrdpq.ok());
  auto definable = [](DefinabilityVerdict v) {
    return v == DefinabilityVerdict::kDefinable;
  };
  auto decided = [](DefinabilityVerdict v) {
    return v != DefinabilityVerdict::kBudgetExhausted;
  };
  if (decided(rpq.value().verdict) && decided(ree.value().verdict) &&
      definable(rpq.value().verdict)) {
    EXPECT_TRUE(definable(ree.value().verdict));
  }
  if (decided(ree.value().verdict) && decided(rem.value().verdict) &&
      definable(ree.value().verdict)) {
    EXPECT_TRUE(definable(rem.value().verdict));
  }
  if (decided(rem.value().verdict) && decided(ucrdpq.value().verdict) &&
      definable(rem.value().verdict)) {
    EXPECT_TRUE(definable(ucrdpq.value().verdict));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, DefinabilityRoundTrip,
                         ::testing::Range<std::uint64_t>(1, 11));

// --- Edge cases -------------------------------------------------------------

TEST(Definability, EmptyRelationRemAlwaysDefinable) {
  DataGraph g = Figure1Graph();
  auto result = CheckKRemDefinability(g, BinaryRelation(g.NumNodes()), 1);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().verdict, DefinabilityVerdict::kDefinable);
}

TEST(Definability, EmptyRelationRpqDependsOnGraph) {
  // On a graph where every word connects some pair (single self-loop),
  // ∅ is NOT RPQ-definable; on a dag it is (any long-enough word).
  DataGraph loop;
  loop.AddLabel("a");
  loop.AddDataValue("0");
  NodeId u = loop.AddNodeWithValue("0", "u");
  loop.AddEdgeByName(u, "a", u);
  auto on_loop = CheckRpqDefinability(loop, BinaryRelation(1));
  ASSERT_TRUE(on_loop.ok());
  EXPECT_EQ(on_loop.value().verdict, DefinabilityVerdict::kNotDefinable);

  DataGraph line = LineGraph({0, 1});
  auto on_line = CheckRpqDefinability(line, BinaryRelation(2));
  ASSERT_TRUE(on_line.ok());
  EXPECT_EQ(on_line.value().verdict, DefinabilityVerdict::kDefinable);
  ASSERT_TRUE(on_line.value().empty_relation_witness.has_value());
  // The killing word connects no pair.
  RegexPtr regex = RegexFromWitnesses(on_line.value(), line.labels());
  EXPECT_TRUE(EvaluateRpq(line, regex).Empty());
}

// On a rows×cols grid (a east, b south) T_w keeps exactly the nodes at
// row ≥ #b(w) and column ≥ #a(w), so the killing-word walk over node subsets
// first reaches ∅ at depth min(rows, cols), after ~78 subsets on 12×12.
TEST(Definability, EmptyRelationRpqWalkStopsAtItsBudget) {
  GridOptions grid;
  grid.rows = 12;
  grid.cols = 12;
  DataGraphSink sink;
  GenerateGrid(grid, &sink);
  DataGraph g = sink.Take();
  BinaryRelation empty(g.NumNodes());

  auto unbounded = CheckRpqDefinability(g, empty);
  ASSERT_TRUE(unbounded.ok()) << unbounded.status();
  ASSERT_EQ(unbounded.value().verdict, DefinabilityVerdict::kDefinable);
  ASSERT_TRUE(unbounded.value().empty_relation_witness.has_value());
  EXPECT_EQ(unbounded.value().empty_relation_witness->size(), 12u);
  EXPECT_TRUE(
      EvaluateRpq(g, RegexFromWitnesses(unbounded.value(), g.labels()))
          .Empty());

  // A byte budget with room for a few subsets: exhausted, with the stage.
  ResourceBudget bytes(1000, 0);
  KRemDefinabilityOptions options;
  options.budget = &bytes;
  auto tripped = CheckRpqDefinability(g, empty, options);
  ASSERT_TRUE(tripped.ok()) << tripped.status();
  EXPECT_EQ(tripped.value().verdict, DefinabilityVerdict::kBudgetExhausted);
  EXPECT_FALSE(tripped.value().empty_relation_witness.has_value());
  ASSERT_TRUE(tripped.value().partial.has_value());
  EXPECT_EQ(tripped.value().partial->stage, "rpq-killing-word");
  EXPECT_GT(tripped.value().partial->tuples_explored, 1u);
  EXPECT_GT(tripped.value().partial->bytes_peak, 1000u);
  EXPECT_EQ(bytes.tuples_used(), tripped.value().partial->tuples_explored);

  // The max_tuples cap is a budget outcome too, never "not definable".
  KRemDefinabilityOptions capped;
  capped.max_tuples = 5;
  auto cut = CheckRpqDefinability(g, empty, capped);
  ASSERT_TRUE(cut.ok()) << cut.status();
  EXPECT_EQ(cut.value().verdict, DefinabilityVerdict::kBudgetExhausted);
  EXPECT_FALSE(cut.value().partial.has_value());

  CancelToken cancelled;
  cancelled.Cancel();
  KRemDefinabilityOptions cancelling;
  cancelling.cancel = &cancelled;
  auto stopped = CheckRpqDefinability(g, empty, cancelling);
  ASSERT_FALSE(stopped.ok());
  EXPECT_EQ(stopped.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(Definability, FullDiagonalDefinableByEpsilon) {
  DataGraph g = Figure1Graph();
  BinaryRelation diagonal = BinaryRelation::Identity(g.NumNodes());
  auto result = CheckKRemDefinability(g, diagonal, 0);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().verdict, DefinabilityVerdict::kDefinable);
  // Every pair's witness is the empty block sequence (ε).
  for (const KRemWitness& w : result.value().witnesses) {
    EXPECT_TRUE(w.blocks.empty());
  }
}

TEST(Definability, SingleDiagonalPairNotDefinableByEpsilon) {
  // {(v1, v1)} alone: ε connects every node to itself, so ε is not a
  // witness; some other expression may or may not exist.
  DataGraph g = Figure1Graph();
  Figure1Nodes n = Figure1NodeIds(g);
  BinaryRelation s(g.NumNodes());
  s.Set(n.v1, n.v1);
  auto result = CheckKRemDefinability(g, s, 1);
  ASSERT_TRUE(result.ok());
  if (result.value().verdict == DefinabilityVerdict::kDefinable) {
    for (const KRemWitness& w : result.value().witnesses) {
      EXPECT_FALSE(w.blocks.empty());
    }
  }
}

TEST(Definability, MismatchedRelationSizeRejected) {
  DataGraph g = Figure1Graph();
  BinaryRelation wrong(3);
  EXPECT_FALSE(CheckKRemDefinability(g, wrong, 1).ok());
  EXPECT_FALSE(CheckReeDefinability(g, wrong).ok());
}

TEST(Definability, KTooLargeRejected) {
  DataGraph g = Figure1Graph();
  auto result = CheckKRemDefinability(g, Figure1S2(g), 5);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

TEST(Definability, BudgetExhaustionReported) {
  DataGraph g = Figure1Graph();
  KRemDefinabilityOptions options;
  options.max_tuples = 2;
  auto result = CheckKRemDefinability(g, Figure1S2(g), 2, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().verdict, DefinabilityVerdict::kBudgetExhausted);
}

// --- Per-graph setups (Definition 19, Lemma 30) -----------------------------

// One setup or monoid decides every S over its graph exactly as the cold
// checker does: the setup depends on the graph (and k) alone.
TEST(DefinabilitySetups, OneSetupDecidesEveryRelationLikeTheColdCheck) {
  DataGraph g = Figure1Graph();
  std::vector<BinaryRelation> relations = {Figure1S1(g), Figure1S2(g),
                                           Figure1S3(g)};
  for (std::uint64_t seed = 1; seed <= 4; seed++) {
    relations.push_back(RandomRelation(g.NumNodes(), 15, seed));
  }
  for (std::size_t k = 0; k <= 2; k++) {
    SCOPED_TRACE(k);
    KRemSetup setup = BuildKRemSetup(g, k).ValueOrDie();
    for (const BinaryRelation& s : relations) {
      AdaptiveRelation adaptive = AdaptiveRelation::FromPairs(
          g.NumNodes(), s.Pairs(), RelationBackend::kAuto);
      auto cold = CheckKRemDefinability(g, s, k).ValueOrDie();
      auto warm = CheckKRemDefinability(setup, g, adaptive).ValueOrDie();
      EXPECT_EQ(warm.verdict, cold.verdict);
      EXPECT_EQ(warm.tuples_explored, cold.tuples_explored);
      ASSERT_EQ(warm.witnesses.size(), cold.witnesses.size());
      for (std::size_t i = 0; i < warm.witnesses.size(); i++) {
        EXPECT_EQ(warm.witnesses[i].blocks.size(),
                  cold.witnesses[i].blocks.size());
      }
      if (k == 0) {
        auto rpq_cold = CheckRpqDefinability(g, s).ValueOrDie();
        auto rpq_warm = CheckRpqDefinability(setup, g, adaptive).ValueOrDie();
        EXPECT_EQ(rpq_warm.verdict, rpq_cold.verdict);
        EXPECT_EQ(rpq_warm.witness_words, rpq_cold.witness_words);
      }
    }
  }
  for (ReeRepresentation representation :
       {ReeRepresentation::kDense, ReeRepresentation::kBlocked}) {
    RelationBackend backend = representation == ReeRepresentation::kDense
                                  ? RelationBackend::kDense
                                  : RelationBackend::kSparse;
    ReeMonoid monoid = CloseReeMonoid(g, representation).ValueOrDie();
    EXPECT_TRUE(monoid.complete());
    for (const BinaryRelation& s : relations) {
      AdaptiveRelation adaptive =
          AdaptiveRelation::FromPairs(g.NumNodes(), s.Pairs(), backend);
      auto cold = CheckReeDefinability(g, adaptive).ValueOrDie();
      auto warm = CheckReeDefinability(monoid, g, adaptive).ValueOrDie();
      EXPECT_EQ(warm.verdict, cold.verdict);
      EXPECT_EQ(warm.levels_used, cold.levels_used);
      EXPECT_EQ(warm.monoid_size, cold.monoid_size);
      EXPECT_EQ(warm.defining_expression == nullptr,
                cold.defining_expression == nullptr);
      if (warm.defining_expression != nullptr) {
        EXPECT_EQ(ReeToString(warm.defining_expression),
                  ReeToString(cold.defining_expression));
      }
    }
  }
}

TEST(DefinabilitySetups, MismatchedSetupsAreRejected) {
  DataGraph g = Figure1Graph();
  AdaptiveRelation s = AdaptiveRelation::FromPairs(
      g.NumNodes(), Figure1S2(g).Pairs(), RelationBackend::kDense);
  ReeMonoid blocked =
      CloseReeMonoid(g, ReeRepresentation::kBlocked).ValueOrDie();
  auto ree = CheckReeDefinability(blocked, g, s);
  ASSERT_FALSE(ree.ok());
  EXPECT_EQ(ree.status().code(), StatusCode::kInvalidArgument);

  KRemSetup sparse = BuildKRemSetup(g, 1, {.tuple_store =
                                               KRemTupleStore::kSparseFrontier})
                         .ValueOrDie();
  auto krem = CheckKRemDefinability(sparse, g, s);  // default store: dense
  ASSERT_FALSE(krem.ok());
  EXPECT_EQ(krem.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(CheckRpqDefinability(sparse, g, s).ok()) << "k = 1 setup";
}

// A held setup keeps only what the planned engine reads, and a budget that
// could change the build, or non-default caps, rule reuse out.
TEST(DefinabilitySetups, ReuseRulesFollowTheRecordedBuild) {
  DataGraph g = Figure1Graph();
  KRemSetup setup = BuildKRemSetup(g, 2).ValueOrDie();
  ASSERT_NE(setup.dispatch(), nullptr);
  ASSERT_TRUE(setup.dispatch()->enabled());
  bool has_dense = setup.dispatch()->class_counts()[static_cast<std::size_t>(
                       TransitionKernelClass::kDense)] != 0;
  EXPECT_EQ(setup.assignment_graph().has_kernel(), has_dense);

  KRemDefinabilityOptions options;
  EXPECT_TRUE(setup.ReusableFor(options));
  const std::uint64_t charges =
      setup.assignment_graph().BuildChargeBytes(true);
  ResourceBudget roomy(charges, 0);
  options.budget = &roomy;
  EXPECT_TRUE(setup.ReusableFor(options));
  ResourceBudget tight(charges - 1, 0);
  options.budget = &tight;
  EXPECT_FALSE(setup.ReusableFor(options));
  ResourceBudget tuples_only(0, 1);
  options.budget = &tuples_only;
  EXPECT_TRUE(setup.ReusableFor(options)) << "the build charges no tuples";
  options.budget = nullptr;
  options.engine = KRemEngine::kReference;
  EXPECT_FALSE(setup.ReusableFor(options));

  ReeMonoid monoid = CloseReeMonoid(g, ReeRepresentation::kDense).ValueOrDie();
  ReeDefinabilityOptions ree_options;
  EXPECT_TRUE(monoid.ReusableFor(ree_options));
  ResourceBudget few_tuples(0, monoid.size() - 1);
  ree_options.budget = &few_tuples;
  EXPECT_FALSE(monoid.ReusableFor(ree_options));
  ResourceBudget enough(monoid.charged_bytes(), monoid.size());
  ree_options.budget = &enough;
  EXPECT_TRUE(monoid.ReusableFor(ree_options));
  ree_options.budget = nullptr;
  ree_options.max_levels = 1;
  EXPECT_FALSE(monoid.ReusableFor(ree_options));

  ReeDefinabilityOptions capped;
  capped.max_monoid_size = 3;
  ReeMonoid stopped =
      CloseReeMonoid(g, ReeRepresentation::kDense, capped).ValueOrDie();
  EXPECT_FALSE(stopped.complete());
  EXPECT_FALSE(stopped.ReusableFor({}));
}

// --- Theorem 32's reduction: constant-value graphs --------------------------

TEST(Theorem32, ConstantValueGraphReeEqualsRpq) {
  // On a graph with a single data value, RDPQ_=-definability coincides
  // with RPQ-definability (used in the paper's PSPACE-hardness proof).
  for (std::uint64_t seed = 1; seed <= 8; seed++) {
    DataGraph g = RandomDataGraph({.num_nodes = 4,
                                   .num_labels = 2,
                                   .num_data_values = 1,
                                   .edge_percent = 30,
                                   .seed = seed});
    for (std::uint32_t percent : {15u, 40u}) {
      BinaryRelation s =
          RandomRelation(g.NumNodes(), percent, seed * 31 + percent);
      if (s.Empty()) {
        // The paper's Theorem-32 proof assumes T non-empty: ∅ is always
        // RDPQ_=-definable ((ε)≠) but RPQ-definable only on some graphs.
        continue;
      }
      auto rpq = CheckRpqDefinability(g, s);
      auto ree = CheckReeDefinability(g, s);
      ASSERT_TRUE(rpq.ok() && ree.ok());
      if (rpq.value().verdict != DefinabilityVerdict::kBudgetExhausted &&
          ree.value().verdict != DefinabilityVerdict::kBudgetExhausted) {
        EXPECT_EQ(rpq.value().verdict, ree.value().verdict)
            << "seed " << seed << " percent " << percent;
      }
    }
  }
}

}  // namespace
}  // namespace gqd
