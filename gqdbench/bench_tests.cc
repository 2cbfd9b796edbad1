// Unit tests of the benchmark's own machinery: span self times, the
// percentile rules, and seed determinism of the generated inputs.

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/serialization.h"
#include "instances.h"
#include "spans.h"
#include "stats.h"

namespace gqdbench {
namespace {

Span MakeSpan(const char* name, std::uint64_t id, std::uint64_t parent,
              std::int64_t start_ms, std::int64_t end_ms) {
  Span span;
  span.name = name;
  span.id = id;
  span.parent = parent;
  span.request = 1;
  span.start_ns = start_ms * 1'000'000;
  span.end_ns = end_ms * 1'000'000;
  return span;
}

TEST(SelfTime, SubtractsTheUnionOfChildren) {
  // request [0, 100) ⊃ route [10, 90) ⊃ two workers [20, 50) and [40, 70)
  // (overlapping: their union is [20, 70)), plus a child that sticks out of
  // its parent and a probe root.
  std::vector<Span> spans = {
      MakeSpan("request", 1, 0, 0, 100),
      MakeSpan("route", 2, 1, 10, 90),
      MakeSpan("handle", 3, 2, 20, 50),
      MakeSpan("handle", 4, 2, 40, 70),
      MakeSpan("late", 5, 2, 85, 95),
      MakeSpan("probe", 6, 0, 200, 207),
  };
  std::map<std::string, SelfTime> self = SelfTimes(spans);
  EXPECT_DOUBLE_EQ(self["request"].total_ms, 20);  // 100 - 80
  EXPECT_DOUBLE_EQ(self["route"].total_ms, 25);    // 80 - 50 - 5 (clipped)
  EXPECT_DOUBLE_EQ(self["handle"].total_ms, 60);
  EXPECT_EQ(self["handle"].count, 2u);
  EXPECT_DOUBLE_EQ(self["handle"].mean_ms(), 30);
  EXPECT_DOUBLE_EQ(self["late"].total_ms, 10);
  EXPECT_DOUBLE_EQ(self["probe"].total_ms, 7);
}

TEST(SelfTime, NestedChildrenCountOnlyAtTheirParent) {
  std::vector<Span> spans = {
      MakeSpan("op", 1, 0, 0, 10),
      MakeSpan("check", 2, 1, 1, 9),
      MakeSpan("inner", 3, 2, 2, 8),
  };
  std::map<std::string, SelfTime> self = SelfTimes(spans);
  EXPECT_DOUBLE_EQ(self["op"].total_ms, 2);
  EXPECT_DOUBLE_EQ(self["check"].total_ms, 2);
  EXPECT_DOUBLE_EQ(self["inner"].total_ms, 6);
}

TEST(Percentile, NearestRank) {
  std::vector<double> values;
  for (int i = 100; i >= 1; i--) {
    values.push_back(i);
  }
  EXPECT_DOUBLE_EQ(Percentile(values, 50), 50);
  EXPECT_DOUBLE_EQ(Percentile(values, 90), 90);
  EXPECT_DOUBLE_EQ(Percentile(values, 99), 99);
  EXPECT_DOUBLE_EQ(Percentile(values, 100), 100);
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0);
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2);
}

TEST(Percentile, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(100, 90), 10u);
  EXPECT_EQ(SamplesBeyond(99, 90), 9u);
  EXPECT_DOUBLE_EQ(SupportedTailPercentile(19), 0);
  EXPECT_DOUBLE_EQ(SupportedTailPercentile(20), 50);
  EXPECT_DOUBLE_EQ(SupportedTailPercentile(99), 50);
  EXPECT_DOUBLE_EQ(SupportedTailPercentile(100), 90);
  EXPECT_DOUBLE_EQ(SupportedTailPercentile(999), 90);
  EXPECT_DOUBLE_EQ(SupportedTailPercentile(1000), 99);
  EXPECT_DOUBLE_EQ(SupportedTailPercentile(10000), 99.9);
}

TEST(Percentile, MedianOverBlocks) {
  // Three blocks of 10 samples whose p90s are 9, 90 and 19: the median is
  // 19, where the p90 of all 30 samples is 70.
  std::vector<double> values;
  for (double scale : {1.0, 10.0}) {
    for (int i = 1; i <= 10; i++) {
      values.push_back(scale * i);
    }
  }
  for (int i = 1; i <= 10; i++) {
    values.push_back(10 + i);
  }
  EXPECT_DOUBLE_EQ(BlockPercentile(values, 90, 10), 19);
  EXPECT_DOUBLE_EQ(Percentile(values, 90), 70);
  // Fewer than two whole blocks: the percentile of all samples.
  EXPECT_DOUBLE_EQ(BlockPercentile(values, 90, 16), Percentile(values, 90));
  // A trailing partial block is left out.
  values.push_back(1000);
  EXPECT_DOUBLE_EQ(BlockPercentile(values, 90, 10), 19);
}

std::vector<std::string> Fingerprints(const CheckBurstPool& pool) {
  std::vector<std::string> out;
  for (const auto& graph : pool.graphs) {
    out.push_back(gqd::FingerprintToHex(gqd::FingerprintGraphText(*graph.graph)));
  }
  return out;
}

TEST(Seeds, SameSeedSameInputs) {
  CheckBurstPool a = MakeCheckBurstPool(PoolSeed("default"));
  CheckBurstPool b = MakeCheckBurstPool(PoolSeed("default"));
  EXPECT_EQ(Fingerprints(a), Fingerprints(b));
  ASSERT_EQ(a.instances.size(), b.instances.size());
  for (std::size_t i = 0; i < a.instances.size(); i++) {
    EXPECT_EQ(a.instances[i].input_hash, b.instances[i].input_hash);
  }
  EXPECT_EQ(CheckBurstStreams(a, 7, 3, 100), CheckBurstStreams(b, 7, 3, 100));
  EXPECT_NE(CheckBurstStreams(a, 7, 3, 100), CheckBurstStreams(a, 8, 3, 100));

  EvalRoutedPool e1 = MakeEvalRoutedPool(PoolSeed("default"));
  EvalRoutedPool e2 = MakeEvalRoutedPool(PoolSeed("default"));
  ASSERT_EQ(e1.queries.size(), e2.queries.size());
  for (std::size_t i = 0; i < e1.queries.size(); i++) {
    EXPECT_EQ(e1.queries[i].input_hash, e2.queries[i].input_hash);
  }
  auto s1 = EvalRoutedStreams(e1, 3, 3, 200);
  auto s2 = EvalRoutedStreams(e2, 3, 3, 200);
  for (std::size_t c = 0; c < s1.size(); c++) {
    for (std::size_t i = 0; i < s1[c].size(); i++) {
      EXPECT_EQ(s1[c][i].query, s2[c][i].query);
      EXPECT_EQ(s1[c][i].is_load, s2[c][i].is_load);
    }
  }

  auto d1 = MakeDeepCheckPool(PoolSeed("default"));
  auto d2 = MakeDeepCheckPool(PoolSeed("default"));
  ASSERT_EQ(d1.size(), d2.size());
  for (std::size_t i = 0; i < d1.size(); i++) {
    EXPECT_EQ(d1[i].input_hash, d2[i].input_hash);
  }
  EXPECT_EQ(SeededOrder(20, 5), SeededOrder(20, 5));
}

TEST(Seeds, PoolsDiffer) {
  EXPECT_NE(Fingerprints(MakeCheckBurstPool(PoolSeed("default"))),
            Fingerprints(MakeCheckBurstPool(PoolSeed("heldout"))));
}

TEST(Seeds, GridFingerprintFollowsTheSeed) {
  auto fingerprint = [](std::uint64_t seed) {
    gqd::GridOptions grid;
    grid.rows = 20;
    grid.cols = 20;
    grid.seed = MixSeed(seed, 20);
    gqd::DataGraphSink sink;
    gqd::GenerateGrid(grid, &sink);
    return gqd::FingerprintGraphText(sink.Take());
  };
  EXPECT_EQ(fingerprint(4), fingerprint(4));
  EXPECT_NE(fingerprint(4), fingerprint(5));
}

TEST(Grid, WordPairsAreTheEastThenSouthSteps) {
  Pairs pairs = GridWordPairs(3);
  Pairs expected = {{0, 4}, {1, 5}, {3, 7}, {4, 8}};
  EXPECT_EQ(pairs, expected);
}

}  // namespace
}  // namespace gqdbench
