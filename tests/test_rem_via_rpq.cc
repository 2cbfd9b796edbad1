// Cross-validation of the paper's alternative EXPSPACE route (Section 3
// opening): RDPQ_mem-definability on G versus RPQ-definability on the
// automorphism-closure graph G_aut. The two checkers implement the same
// decision problem through entirely different machinery (assignment-graph
// macro tuples vs δ! value-annotated copies), so agreement is a strong
// correctness signal for both.

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "oracles/rem_via_rpq.h"

namespace gqd {
namespace {

TEST(AutomorphismClosure, ShapeIsDeltaFactorialCopies) {
  DataGraph g = LineGraph({0, 1, 0});  // δ = 2
  BinaryRelation s(3);
  s.Set(0, 2);
  auto closure = BuildAutomorphismClosure(g, s);
  ASSERT_TRUE(closure.ok()) << closure.status();
  EXPECT_EQ(closure.value().num_copies, 2u);  // 2! permutations
  EXPECT_EQ(closure.value().graph.NumNodes(), 6u);
  EXPECT_EQ(closure.value().graph.NumEdges(), 4u);
  // The lifted relation has a pair in every copy.
  EXPECT_EQ(closure.value().lifted_relation.Count(), 2u);
  EXPECT_TRUE(closure.value().lifted_relation.Test(0, 2));
  EXPECT_TRUE(closure.value().lifted_relation.Test(3, 5));
}

TEST(AutomorphismClosure, AnnotatedLettersDifferAcrossCopies) {
  DataGraph g = LineGraph({0, 1});  // one edge, δ = 2
  BinaryRelation s(2);
  s.Set(0, 1);
  auto closure = BuildAutomorphismClosure(g, s);
  ASSERT_TRUE(closure.ok());
  // Copy of identity permutation: letter "0|a|1"; swapped copy: "1|a|0".
  EXPECT_TRUE(closure.value().graph.labels().Find("0|a|1").has_value());
  EXPECT_TRUE(closure.value().graph.labels().Find("1|a|0").has_value());
}

TEST(AutomorphismClosure, RefusesLargeDelta) {
  DataGraph g = RandomDataGraph({.num_nodes = 8,
                                 .num_labels = 1,
                                 .num_data_values = 6,
                                 .edge_percent = 20,
                                 .seed = 1});
  BinaryRelation s(8);
  s.Set(0, 1);
  EXPECT_FALSE(BuildAutomorphismClosure(g, s).ok());
}

TEST(RemViaRpq, DefinableSingletonOnLine) {
  // Line 0a1a0a1: the full-length path's automorphism class connects only
  // (v0, v3), so {(v0, v3)} is REM-definable.
  DataGraph g = LineGraph({0, 1, 0, 1});
  BinaryRelation s(4);
  s.Set(0, 3);
  auto via_rpq = CheckRemDefinabilityViaRpq(g, s);
  ASSERT_TRUE(via_rpq.ok()) << via_rpq.status();
  EXPECT_EQ(via_rpq.value().verdict, DefinabilityVerdict::kDefinable);
  auto direct = CheckRemDefinability(g, s);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(direct.value().verdict, DefinabilityVerdict::kDefinable);
}

TEST(RemViaRpq, NonDefinableSingletonOnLine) {
  // {(v0, v2)}: its only path 0a1a0 is automorphic to 1a0a1 = v1→v3, so no
  // REM can separate them.
  DataGraph g = LineGraph({0, 1, 0, 1});
  BinaryRelation s(4);
  s.Set(0, 2);
  auto via_rpq = CheckRemDefinabilityViaRpq(g, s);
  ASSERT_TRUE(via_rpq.ok()) << via_rpq.status();
  EXPECT_EQ(via_rpq.value().verdict, DefinabilityVerdict::kNotDefinable);
  auto direct = CheckRemDefinability(g, s);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(direct.value().verdict, DefinabilityVerdict::kNotDefinable);
}

TEST(RemViaRpq, BothPathsTogetherAreDefinable) {
  // {(v0, v2), (v1, v3)} is the full automorphism class — definable.
  DataGraph g = LineGraph({0, 1, 0, 1});
  BinaryRelation s(4);
  s.Set(0, 2);
  s.Set(1, 3);
  auto via_rpq = CheckRemDefinabilityViaRpq(g, s);
  ASSERT_TRUE(via_rpq.ok());
  EXPECT_EQ(via_rpq.value().verdict, DefinabilityVerdict::kDefinable);
}

TEST(RemViaRpq, EmptyRelationShortCircuits) {
  DataGraph g = LineGraph({0, 1});
  auto result = CheckRemDefinabilityViaRpq(g, BinaryRelation(2));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().verdict, DefinabilityVerdict::kDefinable);
  EXPECT_EQ(result.value().num_copies, 0u);  // never built
}

class RemViaRpqAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RemViaRpqAgreement, MatchesDirectChecker) {
  DataGraph g = RandomDataGraph({.num_nodes = 4,
                                 .num_labels = 2,
                                 .num_data_values = 2,
                                 .edge_percent = 25,
                                 .seed = GetParam()});
  KRemDefinabilityOptions options;
  options.max_tuples = 30'000;
  for (std::uint32_t percent : {10u, 25u}) {
    BinaryRelation s =
        RandomRelation(4, percent, GetParam() * 7919 + percent);
    auto direct = CheckRemDefinability(g, s, options);
    auto via_rpq = CheckRemDefinabilityViaRpq(g, s, options);
    ASSERT_TRUE(direct.ok() && via_rpq.ok());
    if (direct.value().verdict != DefinabilityVerdict::kBudgetExhausted &&
        via_rpq.value().verdict != DefinabilityVerdict::kBudgetExhausted) {
      EXPECT_EQ(direct.value().verdict, via_rpq.value().verdict)
          << "seed " << GetParam() << " percent " << percent;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, RemViaRpqAgreement,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace gqd
