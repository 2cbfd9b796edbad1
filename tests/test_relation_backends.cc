// Property and differential tests for the density-adaptive relation layer
// (graph/sparse_relation.h) and the .gqdr relation container
// (storage/relation_store.h).
//
// The contract under test: every physical representation of a pair set —
// dense matrix, CSR coordinate list, blocked array/bitmap rows — describes
// exactly the same relation (membership, canonical pair order, REE operator
// results), the array↔bitmap flip point sits precisely at ArrayThreshold,
// and a relation survives the container and pair-text formats byte-for-byte
// while corrupted containers fail with a Status instead of crashing.

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/relation.h"
#include "graph/serialization.h"
#include "graph/sparse_relation.h"
#include "storage/relation_store.h"

namespace gqd {
namespace {

using Pairs = std::vector<std::pair<NodeId, NodeId>>;

/// Deterministic pair sample: `draws` draws of (u, v) over n nodes.
Pairs RandomPairs(std::size_t n, std::size_t draws, std::uint64_t seed) {
  SplitMix64 rng(seed);
  Pairs pairs;
  pairs.reserve(draws);
  for (std::size_t i = 0; i < draws; i++) {
    pairs.emplace_back(static_cast<NodeId>(rng.NextBelow(n)),
                       static_cast<NodeId>(rng.NextBelow(n)));
  }
  return pairs;
}

TEST(RelationBackendNames, RoundTrip) {
  for (RelationBackend backend :
       {RelationBackend::kAuto, RelationBackend::kDense,
        RelationBackend::kSparse, RelationBackend::kBlocked}) {
    RelationBackend parsed;
    ASSERT_TRUE(ParseRelationBackend(RelationBackendName(backend), &parsed));
    EXPECT_EQ(parsed, backend);
  }
  RelationBackend parsed;
  EXPECT_FALSE(ParseRelationBackend("roaring", &parsed));
  EXPECT_FALSE(ParseRelationBackend("", &parsed));
}

TEST(ChooseRelationBackend, SmallGraphsStayDense) {
  // n ≤ 4096 ⇒ the matrix is at most 2 MB; dense wins outright.
  EXPECT_EQ(ChooseRelationBackend(16, 0), RelationBackend::kDense);
  EXPECT_EQ(ChooseRelationBackend(4096, 100), RelationBackend::kDense);
}

TEST(ChooseRelationBackend, SparseWhenRowsAreLight) {
  // nnz ≤ 8n on a big graph: a handful of entries per row.
  EXPECT_EQ(ChooseRelationBackend(100'000, 100'000),
            RelationBackend::kSparse);
  EXPECT_EQ(ChooseRelationBackend(1'000'000, 8'000'000),
            RelationBackend::kSparse);
}

TEST(ChooseRelationBackend, BlockedInBetweenDenseWhenHeavy) {
  std::size_t n = 100'000;
  EXPECT_EQ(ChooseRelationBackend(n, 9 * n), RelationBackend::kBlocked);
  // Average row degree at n/32: containers cannot beat the matrix.
  EXPECT_EQ(ChooseRelationBackend(n, n * (n / 32)), RelationBackend::kDense);
}

TEST(EstimateRelationBytes, TracksRepresentationCosts) {
  std::size_t n = 1'000'000;
  std::size_t nnz = 5'000;
  // Dense is the n²/8 matrix regardless of nnz.
  EXPECT_GE(EstimateRelationBytes(RelationBackend::kDense, n, nnz),
            n * n / 8);
  // Sparse is O(n + nnz) — a million-node relation in megabytes.
  EXPECT_LT(EstimateRelationBytes(RelationBackend::kSparse, n, nnz),
            std::size_t{100} << 20);
  // kAuto estimates what ChooseRelationBackend would build.
  EXPECT_EQ(EstimateRelationBytes(RelationBackend::kAuto, n, nnz),
            EstimateRelationBytes(ChooseRelationBackend(n, nnz), n, nnz));
  // More pairs never get cheaper.
  EXPECT_LE(EstimateRelationBytes(RelationBackend::kSparse, n, nnz),
            EstimateRelationBytes(RelationBackend::kSparse, n, 10 * nnz));
}

TEST(SparseBinaryRelation, MatchesDenseMembershipOnRandomSweeps) {
  for (std::uint64_t seed = 1; seed <= 8; seed++) {
    std::size_t n = 24 + seed;
    Pairs pairs = RandomPairs(n, 3 * n, seed);
    BinaryRelation dense = BinaryRelation::FromPairs(n, pairs);
    SparseBinaryRelation sparse = SparseBinaryRelation::FromPairs(n, pairs);
    EXPECT_EQ(sparse.Nnz(), dense.Count()) << "seed " << seed;
    for (NodeId u = 0; u < n; u++) {
      std::size_t degree = 0;
      for (NodeId v = 0; v < n; v++) {
        EXPECT_EQ(sparse.Test(u, v), dense.Test(u, v))
            << "seed " << seed << " (" << u << "," << v << ")";
        degree += dense.Test(u, v) ? 1 : 0;
      }
      EXPECT_EQ(sparse.RowDegree(u), degree) << "seed " << seed;
    }
    EXPECT_EQ(sparse.Pairs(), dense.Pairs()) << "seed " << seed;
  }
}

TEST(BlockedBinaryRelation, MatchesDenseMembershipOnRandomSweeps) {
  for (std::uint64_t seed = 1; seed <= 8; seed++) {
    std::size_t n = 24 + seed;
    Pairs pairs = RandomPairs(n, 4 * n, seed * 11);
    BinaryRelation dense = BinaryRelation::FromPairs(n, pairs);
    BlockedBinaryRelation blocked =
        BlockedBinaryRelation::FromPairs(n, pairs);
    EXPECT_EQ(blocked.Nnz(), dense.Count()) << "seed " << seed;
    for (NodeId u = 0; u < n; u++) {
      for (NodeId v = 0; v < n; v++) {
        EXPECT_EQ(blocked.Test(u, v), dense.Test(u, v))
            << "seed " << seed << " (" << u << "," << v << ")";
      }
    }
    EXPECT_EQ(blocked.Pairs(), dense.Pairs()) << "seed " << seed;
    EXPECT_EQ(blocked.ToDense(), dense) << "seed " << seed;
    EXPECT_EQ(BlockedBinaryRelation::FromDense(dense), blocked)
        << "seed " << seed;
  }
}

TEST(BlockedBinaryRelation, ArrayFlipsToBitmapExactlyAtThreshold) {
  std::size_t n = 512;
  std::size_t threshold = BlockedBinaryRelation::ArrayThreshold(n);
  ASSERT_GT(threshold, 1u);
  // Row 0 holds exactly `threshold` entries (stays array), row 1 exactly
  // `threshold + 1` (must flip), row 2 one entry, row 3 none.
  Pairs pairs;
  for (std::size_t i = 0; i < threshold; i++) {
    pairs.emplace_back(0, static_cast<NodeId>(i));
  }
  for (std::size_t i = 0; i < threshold + 1; i++) {
    pairs.emplace_back(1, static_cast<NodeId>(i));
  }
  pairs.emplace_back(2, 7);
  BlockedBinaryRelation r = BlockedBinaryRelation::FromPairs(n, pairs);
  EXPECT_FALSE(r.RowIsBitmap(0));
  EXPECT_TRUE(r.RowIsBitmap(1));
  EXPECT_FALSE(r.RowIsBitmap(2));
  EXPECT_FALSE(r.RowIsBitmap(3));
  EXPECT_EQ(r.RowDegree(0), threshold);
  EXPECT_EQ(r.RowDegree(1), threshold + 1);
  // The same boundary holds after a mutation re-canonicalizes the row:
  // dropping one entry from the bitmap row lands it back in an array.
  DynamicBitset scratch(n);
  for (std::size_t i = 0; i < threshold; i++) {
    scratch.Set(i);
  }
  r.SetRowFromBitset(1, scratch);
  EXPECT_FALSE(r.RowIsBitmap(1));
  EXPECT_EQ(r.RowDegree(1), threshold);
}

TEST(BlockedBinaryRelation, EmptyAndFullRows) {
  std::size_t n = 200;
  Pairs pairs;
  for (NodeId v = 0; v < n; v++) {
    pairs.emplace_back(3, v);  // full row
  }
  BlockedBinaryRelation r = BlockedBinaryRelation::FromPairs(n, pairs);
  EXPECT_TRUE(r.RowIsBitmap(3));
  EXPECT_EQ(r.RowDegree(3), n);
  EXPECT_EQ(r.RowDegree(0), 0u);
  std::size_t visited = 0;
  r.ForEachInRow(3, [&](NodeId v) {
    EXPECT_EQ(v, visited);
    visited++;
  });
  EXPECT_EQ(visited, n);
  r.ForEachInRow(0, [&](NodeId) { FAIL() << "empty row visited"; });
  // An all-empty relation and its properties.
  BlockedBinaryRelation empty(n);
  EXPECT_TRUE(empty.Empty());
  EXPECT_TRUE(empty.IsSubsetOf(r));
  EXPECT_FALSE(r.IsSubsetOf(empty));
}

TEST(BlockedBinaryRelation, OperatorsMatchDense) {
  // Union, composition, =/≠ restriction, subset, equality and hashing all
  // agree with the dense oracles — the REE closure builds on exactly these.
  for (std::uint64_t seed = 1; seed <= 6; seed++) {
    DataGraph g = RandomDataGraph({.num_nodes = 40,
                                   .num_labels = 2,
                                   .num_data_values = 3,
                                   .edge_percent = 15,
                                   .seed = seed});
    std::size_t n = g.NumNodes();
    ValueClassMasks masks(g);
    Pairs pa = RandomPairs(n, 5 * n, seed * 3 + 1);
    Pairs pb = RandomPairs(n, 2 * n, seed * 3 + 2);
    BinaryRelation da = BinaryRelation::FromPairs(n, pa);
    BinaryRelation db = BinaryRelation::FromPairs(n, pb);
    BlockedBinaryRelation ba = BlockedBinaryRelation::FromPairs(n, pa);
    BlockedBinaryRelation bb = BlockedBinaryRelation::FromPairs(n, pb);

    EXPECT_EQ(ba.Compose(bb).ToDense(), da.Compose(db)) << "seed " << seed;
    EXPECT_EQ(ba.EqRestrict(masks).ToDense(), da.EqRestrict(masks))
        << "seed " << seed;
    EXPECT_EQ(ba.NeqRestrict(masks).ToDense(), da.NeqRestrict(masks))
        << "seed " << seed;
    BlockedBinaryRelation bu = ba;
    bu.UnionWith(bb);
    BinaryRelation du = da;
    du.UnionWith(db);
    EXPECT_EQ(bu.ToDense(), du) << "seed " << seed;
    EXPECT_EQ(ba.IsSubsetOf(bu), da.IsSubsetOf(du)) << "seed " << seed;
    EXPECT_EQ(BlockedBinaryRelation::Identity(n).ToDense(),
              BinaryRelation::Identity(n));
    for (LabelId a = 0; a < g.NumLabels(); a++) {
      EXPECT_EQ(BlockedBinaryRelation::FromEdges(g, a).ToDense(),
                BinaryRelation::FromEdges(g, a))
          << "seed " << seed << " label " << a;
    }
    // Canonical containers ⇒ equal relations are physically equal and
    // hash equal however they were built.
    BlockedBinaryRelation rebuilt =
        BlockedBinaryRelation::FromDense(da);
    EXPECT_EQ(rebuilt, ba) << "seed " << seed;
    EXPECT_EQ(rebuilt.Hash(), ba.Hash()) << "seed " << seed;
  }
}

TEST(AdaptiveRelation, AllBackendsAgreeOnPairsAndMembership) {
  for (std::uint64_t seed = 1; seed <= 6; seed++) {
    std::size_t n = 30;
    Pairs pairs = RandomPairs(n, 4 * n, seed * 17);
    BinaryRelation oracle = BinaryRelation::FromPairs(n, pairs);
    for (RelationBackend backend :
         {RelationBackend::kDense, RelationBackend::kSparse,
          RelationBackend::kBlocked}) {
      AdaptiveRelation r = AdaptiveRelation::FromPairs(n, pairs, backend);
      EXPECT_EQ(r.backend(), backend);
      EXPECT_EQ(r.Nnz(), oracle.Count()) << "seed " << seed;
      EXPECT_EQ(r.Pairs(), oracle.Pairs()) << "seed " << seed;
      EXPECT_EQ(r.ToDense(), oracle) << "seed " << seed;
      for (NodeId u = 0; u < n; u++) {
        for (NodeId v = 0; v < n; v++) {
          EXPECT_EQ(r.Test(u, v), oracle.Test(u, v)) << "seed " << seed;
        }
      }
    }
    // kAuto picks dense here (n ≤ 4096) — and says so.
    AdaptiveRelation chosen = AdaptiveRelation::FromPairs(n, pairs);
    EXPECT_EQ(chosen.backend(), RelationBackend::kDense);
  }
}

// Canonical input (strictly row-major) skips the sort; everything else is
// sorted and deduplicated. Either way every backend ends up with the same
// canonical pairs.
TEST(AdaptiveRelation, EveryInputOrderCanonicalizesAlike) {
  const std::size_t n = 40;
  Pairs canonical = BinaryRelation::FromPairs(n, RandomPairs(n, 90, 5)).Pairs();
  ASSERT_GT(canonical.size(), 10u);
  Pairs unsorted(canonical.rbegin(), canonical.rend());
  Pairs duplicated;
  for (const auto& pair : canonical) {
    duplicated.push_back(pair);
    duplicated.push_back(pair);
  }
  struct Input {
    const char* name;
    Pairs pairs;
    Pairs expected;
  };
  for (const Input& input : {Input{"unsorted", unsorted, canonical},
                             Input{"sorted with duplicates", duplicated,
                                   canonical},
                             Input{"sorted unique", canonical, canonical},
                             Input{"empty", {}, {}}}) {
    SCOPED_TRACE(input.name);
    for (RelationBackend backend :
         {RelationBackend::kDense, RelationBackend::kSparse,
          RelationBackend::kBlocked}) {
      AdaptiveRelation r =
          AdaptiveRelation::FromPairs(n, input.pairs, backend);
      EXPECT_EQ(r.Pairs(), input.expected) << RelationBackendName(backend);
      EXPECT_EQ(r.Nnz(), input.expected.size())
          << RelationBackendName(backend);
    }
    SparseBinaryRelation sparse = SparseBinaryRelation::FromPairs(n, input.pairs);
    EXPECT_EQ(sparse.Pairs(), input.expected);
    EXPECT_EQ(sparse.Nnz(), input.expected.size());
    BlockedBinaryRelation blocked =
        BlockedBinaryRelation::FromPairs(n, input.pairs);
    EXPECT_EQ(blocked.Pairs(), input.expected);
    EXPECT_EQ(blocked.Nnz(), input.expected.size());
  }
}

TEST(AdaptiveRelation, ByteSizeReflectsBackend) {
  // At a million nodes the sparse representation must be orders of
  // magnitude under the dense matrix the estimate refuses.
  std::size_t n = 1'000'000;
  Pairs pairs = RandomPairs(n, 5'000, 9);
  AdaptiveRelation r = AdaptiveRelation::FromPairs(n, pairs);
  EXPECT_EQ(r.backend(), RelationBackend::kSparse);
  EXPECT_LT(r.ByteSize(), std::size_t{64} << 20);
  EXPECT_GT(EstimateRelationBytes(RelationBackend::kDense, n, pairs.size()),
            std::size_t{100} << 30);
}

// --- Relation container (.gqdr) ------------------------------------------

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "gqd_relation_" + name + ".gqdr";
}

TEST(RelationStore, WriteOpenRoundTripsCanonically) {
  std::size_t n = 100;
  Pairs pairs = RandomPairs(n, 300, 21);
  // The writer canonicalizes; the reader must hand back exactly the
  // canonical (row-major sorted, deduplicated) order.
  BinaryRelation oracle = BinaryRelation::FromPairs(n, pairs);
  std::string path = TempPath("roundtrip");
  ASSERT_TRUE(WriteRelationContainer(n, pairs, /*graph_fingerprint=*/0x1234,
                                     path)
                  .ok());
  EXPECT_TRUE(IsRelationContainerFile(path));
  auto stored = OpenRelationContainer(path);
  ASSERT_TRUE(stored.ok()) << stored.status();
  EXPECT_EQ(stored.value().pairs, oracle.Pairs());
  EXPECT_EQ(stored.value().info.num_nodes, n);
  EXPECT_EQ(stored.value().info.num_pairs, oracle.Count());
  EXPECT_EQ(stored.value().info.graph_fingerprint, 0x1234u);
  // Header statistics match a direct recount.
  std::size_t distinct = 0;
  std::size_t max_degree = 0;
  for (NodeId u = 0; u < n; u++) {
    std::size_t degree = oracle.Row(u).Count();
    distinct += degree > 0 ? 1 : 0;
    max_degree = std::max(max_degree, degree);
  }
  EXPECT_EQ(stored.value().info.distinct_sources, distinct);
  EXPECT_EQ(stored.value().info.max_row_degree, max_degree);
  std::remove(path.c_str());
}

TEST(RelationStore, FingerprintBindingIsEnforced) {
  std::string path = TempPath("binding");
  ASSERT_TRUE(WriteRelationContainer(10, {{0, 1}}, 0xabcd, path).ok());
  EXPECT_TRUE(OpenRelationContainer(path, 0xabcd).ok());
  // 0 = caller doesn't care; a different fingerprint is a refusal.
  EXPECT_TRUE(OpenRelationContainer(path, 0).ok());
  EXPECT_FALSE(OpenRelationContainer(path, 0xbeef).ok());
  // An unbound container (fingerprint 0) admits any expectation.
  ASSERT_TRUE(WriteRelationContainer(10, {{0, 1}}, 0, path).ok());
  EXPECT_TRUE(OpenRelationContainer(path, 0xbeef).ok());
  std::remove(path.c_str());
}

TEST(RelationStore, CorruptionFailsWithStatusNotCrash) {
  std::size_t n = 50;
  Pairs pairs = RandomPairs(n, 200, 33);
  std::string path = TempPath("corrupt");
  ASSERT_TRUE(WriteRelationContainer(n, pairs, 0, path).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 128u);
  // Flip one byte at every offset; every mutation must fail cleanly or —
  // never — crash. (A flip inside `reserved` may legitimately still load
  // on format versions ignoring it, so only checksum-covered payload bytes
  // and the header fields that feed validation are asserted to fail.)
  for (std::size_t at : {std::size_t{0}, std::size_t{4}, std::size_t{8},
                         std::size_t{16}, std::size_t{40},
                         std::size_t{128}, bytes.size() - 1}) {
    std::string mutated = bytes;
    mutated[at] = static_cast<char>(mutated[at] ^ 0x5a);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << mutated;
    out.close();
    auto r = OpenRelationContainer(path);
    EXPECT_FALSE(r.ok()) << "byte " << at << " flip not detected";
  }
  // Truncations at every boundary class: inside the header, at the header
  // edge, mid-payload.
  for (std::size_t keep : {std::size_t{0}, std::size_t{7}, std::size_t{127},
                           std::size_t{128}, bytes.size() - 5}) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes.substr(0, keep);
    out.close();
    auto r = OpenRelationContainer(path);
    EXPECT_FALSE(r.ok()) << "truncation to " << keep << " not detected";
  }
  std::remove(path.c_str());
}

TEST(RelationStore, PairTextParity) {
  // text -> pairs -> container -> pairs -> text is a fixed point, and both
  // loaders feed AdaptiveRelation identically.
  DataGraph g = RandomDataGraph({.num_nodes = 30,
                                 .num_labels = 1,
                                 .num_data_values = 2,
                                 .edge_percent = 20,
                                 .seed = 5});
  Pairs pairs = RandomPairs(g.NumNodes(), 90, 44);
  std::string text = WriteRelationPairsText(g, pairs);
  auto parsed = ReadRelationPairsText(g, text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value(),
            BinaryRelation::FromPairs(g.NumNodes(), pairs).Pairs());
  EXPECT_EQ(WriteRelationPairsText(g, parsed.value()), text);
  std::string path = TempPath("parity");
  ASSERT_TRUE(
      WriteRelationContainer(g.NumNodes(), parsed.value(), 0, path).ok());
  auto stored = OpenRelationContainer(path);
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(stored.value().pairs, parsed.value());
  // The dense parser (ReadRelationText) and the pair parser agree.
  auto dense = ReadRelationText(g, text);
  ASSERT_TRUE(dense.ok());
  EXPECT_EQ(AdaptiveRelation::FromPairs(g.NumNodes(), parsed.value())
                .ToDense(),
            dense.value());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gqd
