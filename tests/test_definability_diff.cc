// Differential tests for the word-parallel successor kernels.
//
// The k-REM and REE checkers each keep two engines: the planned engine
// (dispatch-table specialized kernels / packed, rowized and diagonal
// relations, incremental subset unions) and the reference engine (the
// shape of the original per-successor, from-scratch implementation). Both
// explore in the same canonical order, so on every input they must agree
// not just on the verdict but on the exact exploration cost and the exact
// synthesized witnesses — which is what these tests pin down over
// randomized small instances, alongside bit-identical results at every
// thread count and deadline handling on the frontier-parallel path.

#include <chrono>
#include <cstdint>

#include <gtest/gtest.h>

#include "common/cancel.h"
#include "definability/krem_definability.h"
#include "definability/ree_definability.h"
#include "definability/rpq_definability.h"
#include "definability/ucrdpq_definability.h"
#include "eval/rem_eval.h"
#include "eval/ree_eval.h"
#include "graph/generators.h"
#include "graph/sparse_relation.h"
#include "homomorphism/data_graph_hom.h"
#include "ree/parser.h"
#include "rem/parser.h"
#include "storage/container.h"
#include "storage/graph_store.h"

namespace gqd {
namespace {

struct RandomCase {
  DataGraph graph;
  BinaryRelation relation;
  std::size_t k;
};

/// A deterministic family of small instances: n ≤ 6, k ≤ 2, varying label
/// and value counts. Small enough to finish in milliseconds, varied enough
/// to hit definable, non-definable and budget-exhausted outcomes.
RandomCase MakeCase(std::uint64_t seed) {
  std::size_t n = 3 + seed % 4;  // 3..6
  DataGraph graph = RandomDataGraph({.num_nodes = n,
                                     .num_labels = 1 + seed % 2,
                                     .num_data_values = 2 + seed % 2,
                                     .edge_percent =
                                         static_cast<std::uint32_t>(
                                             30 + 5 * (seed % 4)),
                                     .seed = seed});
  BinaryRelation relation = RandomRelation(n, 25, seed * 7 + 1);
  return RandomCase{std::move(graph), std::move(relation), seed % 3};
}

bool SameBlocks(const std::vector<BasicRemBlock>& a,
                const std::vector<BasicRemBlock>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); i++) {
    if (a[i].store_mask != b[i].store_mask || a[i].label != b[i].label ||
        a[i].condition != b[i].condition) {
      return false;
    }
  }
  return true;
}

void ExpectSameKRemResult(const KRemDefinabilityResult& a,
                          const KRemDefinabilityResult& b,
                          std::uint64_t seed) {
  EXPECT_EQ(a.verdict, b.verdict) << "seed " << seed;
  EXPECT_EQ(a.tuples_explored, b.tuples_explored) << "seed " << seed;
  ASSERT_EQ(a.witnesses.size(), b.witnesses.size()) << "seed " << seed;
  for (std::size_t w = 0; w < a.witnesses.size(); w++) {
    EXPECT_EQ(a.witnesses[w].from, b.witnesses[w].from) << "seed " << seed;
    EXPECT_EQ(a.witnesses[w].to, b.witnesses[w].to) << "seed " << seed;
    EXPECT_TRUE(SameBlocks(a.witnesses[w].blocks, b.witnesses[w].blocks))
        << "seed " << seed << " witness " << w;
  }
}

TEST(KRemDiff, KernelMatchesReferenceOnRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 24; seed++) {
    RandomCase c = MakeCase(seed);
    KRemDefinabilityOptions planned, reference;
    planned.max_tuples = reference.max_tuples = 20'000;
    planned.engine = KRemEngine::kPlanned;
    reference.engine = KRemEngine::kReference;
    auto a = CheckKRemDefinability(c.graph, c.relation, c.k, planned);
    auto b = CheckKRemDefinability(c.graph, c.relation, c.k, reference);
    ASSERT_TRUE(a.ok()) << "seed " << seed;
    ASSERT_TRUE(b.ok()) << "seed " << seed;
    ExpectSameKRemResult(a.value(), b.value(), seed);

    // Witness validity: the union of the evaluated witnesses must be
    // exactly S (Lemma 21's characterization, checked end to end).
    if (a.value().verdict == DefinabilityVerdict::kDefinable) {
      BinaryRelation defined(c.graph.NumNodes());
      for (const KRemWitness& witness : a.value().witnesses) {
        RemPtr e = BasicRemFromBlocks(witness.blocks, c.k, c.graph.labels());
        BinaryRelation rel = EvaluateRem(c.graph, e);
        EXPECT_TRUE(rel.Test(witness.from, witness.to)) << "seed " << seed;
        defined.UnionWith(rel);
      }
      EXPECT_EQ(defined, c.relation) << "seed " << seed;
    }
  }
}

TEST(KRemDiff, ThreadCountsProduceIdenticalResults) {
  // A count far past the hardware's is clamped before any worker or queue
  // exists, so it neither aborts nor changes the result.
  for (std::uint64_t seed = 1; seed <= 16; seed++) {
    RandomCase c = MakeCase(seed);
    KRemDefinabilityOptions sequential;
    sequential.max_tuples = 20'000;
    auto base = CheckKRemDefinability(c.graph, c.relation, c.k, sequential);
    ASSERT_TRUE(base.ok()) << "seed " << seed;
    for (std::size_t threads :
         {std::size_t{2}, std::size_t{4}, SIZE_MAX / 2}) {
      KRemDefinabilityOptions parallel = sequential;
      parallel.num_threads = threads;
      auto r = CheckKRemDefinability(c.graph, c.relation, c.k, parallel);
      ASSERT_TRUE(r.ok()) << "seed " << seed << " threads " << threads;
      ExpectSameKRemResult(base.value(), r.value(), seed);
    }
  }
}

TEST(KRemDiff, ParallelReferenceEngineAlsoAgrees) {
  // The reference engine runs on the same frontier-parallel scaffolding;
  // cross engine × thread count must still be one result.
  RandomCase c = MakeCase(3);
  KRemDefinabilityOptions options;
  options.max_tuples = 20'000;
  auto base = CheckKRemDefinability(c.graph, c.relation, c.k, options);
  ASSERT_TRUE(base.ok());
  options.engine = KRemEngine::kReference;
  options.num_threads = 4;
  auto r = CheckKRemDefinability(c.graph, c.relation, c.k, options);
  ASSERT_TRUE(r.ok());
  ExpectSameKRemResult(base.value(), r.value(), 3);
}

TEST(KRemDiff, DeadlineHonoredUnderThreads) {
  RandomCase c = MakeCase(1);
  CancelToken expired(std::chrono::nanoseconds(0));
  for (std::size_t threads : {1, 4}) {
    KRemDefinabilityOptions options;
    options.num_threads = threads;
    options.cancel = &expired;
    auto r = CheckKRemDefinability(c.graph, c.relation, 2, options);
    EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
        << "threads " << threads;
  }
}

TEST(KRemDiff, DeadlineDuringSearchUnderThreads) {
  // A running (not pre-expired) deadline that trips mid-search: the
  // checker must return DeadlineExceeded, not a verdict, once the budget
  // of a few microseconds runs out on a non-trivial instance.
  DataGraph g = RandomDataGraph({.num_nodes = 6,
                                 .num_labels = 2,
                                 .num_data_values = 3,
                                 .edge_percent = 40,
                                 .seed = 5});
  BinaryRelation s = RandomRelation(6, 25, 11);
  CancelToken deadline(std::chrono::microseconds(50));
  KRemDefinabilityOptions options;
  options.num_threads = 4;
  options.cancel = &deadline;
  auto r = CheckKRemDefinability(g, s, 2, options);
  if (!r.ok()) {
    EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  }
  // A fast machine may legitimately finish first; either way, no crash,
  // no partial result.
}

TEST(ReeDiff, KernelMatchesReferenceOnSmallGraphs) {
  // n ≤ 6 exercises the packed SmallRelation path against the generic
  // per-bit reference.
  for (std::uint64_t seed = 1; seed <= 16; seed++) {
    RandomCase c = MakeCase(seed);
    ReeDefinabilityOptions kernel, reference;
    kernel.max_monoid_size = reference.max_monoid_size = 20'000;
    reference.engine = ReeEngine::kReference;
    auto a = CheckReeDefinability(c.graph, c.relation, kernel);
    auto b = CheckReeDefinability(c.graph, c.relation, reference);
    ASSERT_TRUE(a.ok()) << "seed " << seed;
    ASSERT_TRUE(b.ok()) << "seed " << seed;
    EXPECT_EQ(a.value().verdict, b.value().verdict) << "seed " << seed;
    EXPECT_EQ(a.value().levels_used, b.value().levels_used)
        << "seed " << seed;
    EXPECT_EQ(a.value().monoid_size, b.value().monoid_size)
        << "seed " << seed;
    if (a.value().verdict == DefinabilityVerdict::kDefinable &&
        !c.relation.Empty()) {
      EXPECT_EQ(EvaluateRee(c.graph, a.value().defining_expression),
                c.relation)
          << "seed " << seed;
      EXPECT_EQ(EvaluateRee(c.graph, b.value().defining_expression),
                c.relation)
          << "seed " << seed;
    }
  }
}

TEST(ReeDiff, KernelMatchesReferenceOnBigGraphs) {
  // n > 8 exercises the rowized ValueClassMasks path against the per-bit
  // reference. Low density keeps the monoid small.
  for (std::uint64_t seed = 1; seed <= 6; seed++) {
    DataGraph g = RandomDataGraph({.num_nodes = 10,
                                   .num_labels = 1,
                                   .num_data_values = 2,
                                   .edge_percent = 8,
                                   .seed = seed});
    BinaryRelation s = RandomRelation(10, 10, seed * 3 + 2);
    ReeDefinabilityOptions kernel, reference;
    kernel.max_monoid_size = reference.max_monoid_size = 20'000;
    reference.engine = ReeEngine::kReference;
    auto a = CheckReeDefinability(g, s, kernel);
    auto b = CheckReeDefinability(g, s, reference);
    ASSERT_TRUE(a.ok()) << "seed " << seed;
    ASSERT_TRUE(b.ok()) << "seed " << seed;
    EXPECT_EQ(a.value().verdict, b.value().verdict) << "seed " << seed;
    EXPECT_EQ(a.value().levels_used, b.value().levels_used)
        << "seed " << seed;
    EXPECT_EQ(a.value().monoid_size, b.value().monoid_size)
        << "seed " << seed;
  }
}

TEST(KRemDiff, PlannedMatchesKernelAndReference) {
  // The planned engine (dispatch-table specialized inner loops) computes
  // the same pattern-part bits as the reference engine, so both must agree
  // on verdicts, witnesses and exploration cost exactly.
  for (std::uint64_t seed = 1; seed <= 24; seed++) {
    RandomCase c = MakeCase(seed);
    KRemDefinabilityOptions planned, reference;
    planned.max_tuples = reference.max_tuples = 20'000;
    planned.engine = KRemEngine::kPlanned;
    reference.engine = KRemEngine::kReference;
    auto p = CheckKRemDefinability(c.graph, c.relation, c.k, planned);
    auto b = CheckKRemDefinability(c.graph, c.relation, c.k, reference);
    ASSERT_TRUE(p.ok()) << "seed " << seed;
    ASSERT_TRUE(b.ok()) << "seed " << seed;
    ExpectSameKRemResult(p.value(), b.value(), seed);
  }
}

TEST(KRemDiff, PlannedThreadCountsProduceIdenticalResults) {
  for (std::uint64_t seed = 1; seed <= 12; seed++) {
    RandomCase c = MakeCase(seed);
    KRemDefinabilityOptions sequential;
    sequential.max_tuples = 20'000;
    sequential.engine = KRemEngine::kPlanned;
    auto base = CheckKRemDefinability(c.graph, c.relation, c.k, sequential);
    ASSERT_TRUE(base.ok()) << "seed " << seed;
    for (std::size_t threads : {2, 4}) {
      KRemDefinabilityOptions parallel = sequential;
      parallel.num_threads = threads;
      auto r = CheckKRemDefinability(c.graph, c.relation, c.k, parallel);
      ASSERT_TRUE(r.ok()) << "seed " << seed << " threads " << threads;
      ExpectSameKRemResult(base.value(), r.value(), seed);
    }
  }
}

/// n nodes with pairwise-distinct data values (ρ injective — the shape the
/// planned REE engine's diagonal kernel specializes), plus deterministic
/// pseudo-random `a`-edges.
DataGraph DistinctValuesGraph(std::size_t n, std::uint64_t seed) {
  DataGraph g;
  LabelId a = g.AddLabel("a");
  for (std::size_t i = 0; i < n; i++) {
    g.AddNodeWithValue("v" + std::to_string(i), "n" + std::to_string(i));
  }
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ULL + 1;
  for (std::size_t u = 0; u < n; u++) {
    for (std::size_t v = 0; v < n; v++) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      if ((state >> 33) % 100 < 20) {
        g.AddEdge(static_cast<NodeId>(u), a, static_cast<NodeId>(v));
      }
    }
  }
  return g;
}

TEST(ReeDiff, PlannedDiagonalMatchesKernelAndReference) {
  // n > 8 all-distinct-values graphs take the diagonal Eq/Neq kernels;
  // the planned engine must agree with the reference bit for bit.
  // Kept small: the reference oracle is quadratic per monoid element and
  // distinct-value graphs grow the monoid quickly.
  for (std::uint64_t seed = 1; seed <= 4; seed++) {
    DataGraph g = DistinctValuesGraph(9 + seed % 2, seed);
    BinaryRelation s = RandomRelation(g.NumNodes(), 10, seed * 3 + 2);
    ReeDefinabilityOptions planned, reference;
    planned.max_monoid_size = reference.max_monoid_size = 4'000;
    planned.engine = ReeEngine::kPlanned;
    reference.engine = ReeEngine::kReference;
    auto p = CheckReeDefinability(g, s, planned);
    auto b = CheckReeDefinability(g, s, reference);
    ASSERT_TRUE(p.ok()) << "seed " << seed;
    ASSERT_TRUE(b.ok()) << "seed " << seed;
    EXPECT_EQ(p.value().verdict, b.value().verdict) << "seed " << seed;
    EXPECT_EQ(p.value().levels_used, b.value().levels_used)
        << "seed " << seed;
    EXPECT_EQ(p.value().monoid_size, b.value().monoid_size)
        << "seed " << seed;
  }
}

TEST(ReeDiff, PlannedFallsBackWhenValuesRepeat) {
  // Repeated data values (ρ not injective) disable the diagonal kernel;
  // the planned engine must transparently match the reference.
  for (std::uint64_t seed = 1; seed <= 6; seed++) {
    DataGraph g = RandomDataGraph({.num_nodes = 10,
                                   .num_labels = 1,
                                   .num_data_values = 2,
                                   .edge_percent = 8,
                                   .seed = seed});
    BinaryRelation s = RandomRelation(10, 10, seed * 5 + 3);
    ReeDefinabilityOptions planned, reference;
    planned.max_monoid_size = reference.max_monoid_size = 20'000;
    planned.engine = ReeEngine::kPlanned;
    reference.engine = ReeEngine::kReference;
    auto p = CheckReeDefinability(g, s, planned);
    auto a = CheckReeDefinability(g, s, reference);
    ASSERT_TRUE(p.ok()) << "seed " << seed;
    ASSERT_TRUE(a.ok()) << "seed " << seed;
    EXPECT_EQ(p.value().verdict, a.value().verdict) << "seed " << seed;
    EXPECT_EQ(p.value().monoid_size, a.value().monoid_size)
        << "seed " << seed;
  }
}

TEST(ReeDiff, DiagonalRestrictOverloadsAgree) {
  // On an injective-ρ graph the diagonal forms are definitionally equal to
  // the masked and per-bit restrictions, on arbitrary relations.
  for (std::uint64_t seed = 1; seed <= 8; seed++) {
    DataGraph g = DistinctValuesGraph(12, seed);
    ValueClassMasks masks(g);
    ASSERT_TRUE(masks.AllSingletons()) << "seed " << seed;
    BinaryRelation r = RandomRelation(12, 35, seed + 200);
    EXPECT_EQ(r.EqRestrictDiagonal(), r.EqRestrict(g)) << "seed " << seed;
    EXPECT_EQ(r.EqRestrictDiagonal(), r.EqRestrict(masks))
        << "seed " << seed;
    EXPECT_EQ(r.NeqRestrictDiagonal(), r.NeqRestrict(g)) << "seed " << seed;
    EXPECT_EQ(r.NeqRestrictDiagonal(), r.NeqRestrict(masks))
        << "seed " << seed;
  }
}

TEST(ReeDiff, SmallRelationBoundary) {
  // n = 8 is the last packed SmallRelation width, n = 9 the first rowized
  // one; both sides of the boundary must agree with the reference engine.
  for (std::size_t n : {8, 9}) {
    for (std::uint64_t seed = 1; seed <= 4; seed++) {
      DataGraph g = RandomDataGraph({.num_nodes = n,
                                     .num_labels = 1,
                                     .num_data_values = 2,
                                     .edge_percent = 10,
                                     .seed = seed});
      BinaryRelation s = RandomRelation(n, 12, seed * 9 + 4);
      ReeDefinabilityOptions fast, reference;
      fast.max_monoid_size = reference.max_monoid_size = 20'000;
      reference.engine = ReeEngine::kReference;
      auto a = CheckReeDefinability(g, s, fast);
      auto b = CheckReeDefinability(g, s, reference);
      ASSERT_TRUE(a.ok()) << "n " << n << " seed " << seed;
      ASSERT_TRUE(b.ok()) << "n " << n << " seed " << seed;
      EXPECT_EQ(a.value().verdict, b.value().verdict)
          << "n " << n << " seed " << seed;
      EXPECT_EQ(a.value().monoid_size, b.value().monoid_size)
          << "n " << n << " seed " << seed;
    }
  }
}

TEST(ReeDiff, RestrictOverloadsAgree) {
  // The rowized EqRestrict/NeqRestrict must equal the per-bit originals on
  // arbitrary relations, not only monoid elements.
  for (std::uint64_t seed = 1; seed <= 10; seed++) {
    DataGraph g = RandomDataGraph({.num_nodes = 12,
                                   .num_labels = 2,
                                   .num_data_values = 3,
                                   .edge_percent = 30,
                                   .seed = seed});
    ValueClassMasks masks(g);
    BinaryRelation r = RandomRelation(12, 35, seed + 100);
    EXPECT_EQ(r.EqRestrict(g), r.EqRestrict(masks)) << "seed " << seed;
    EXPECT_EQ(r.NeqRestrict(g), r.NeqRestrict(masks)) << "seed " << seed;
  }
}

// --- Relation backends: dense vs sparse vs blocked, bit-identical --------

/// The pair list of a dense relation, row-major (the canonical order every
/// adaptive representation builds from).
std::vector<std::pair<NodeId, NodeId>> PairsOf(const BinaryRelation& r) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId u = 0; u < r.num_nodes(); u++) {
    for (NodeId v = 0; v < r.num_nodes(); v++) {
      if (r.Test(u, v)) {
        pairs.emplace_back(u, v);
      }
    }
  }
  return pairs;
}

constexpr RelationBackend kAllBackends[] = {RelationBackend::kDense,
                                            RelationBackend::kSparse,
                                            RelationBackend::kBlocked};

TEST(RelationBackendDiff, KRemIdenticalAcrossBackendsAndThreads) {
  // Every physical representation of the same pair set must produce the
  // dense checker's exact result — verdict, exploration count, witnesses —
  // at every thread count. Identity is pinned via max_tuples, never byte
  // budgets: the stores charge their actual (representation-specific)
  // allocations, so a byte budget would trip at different points.
  for (std::uint64_t seed = 1; seed <= 16; seed++) {
    RandomCase c = MakeCase(seed);
    KRemDefinabilityOptions options;
    options.max_tuples = 20'000;
    auto dense = CheckKRemDefinability(c.graph, c.relation, c.k, options);
    ASSERT_TRUE(dense.ok()) << "seed " << seed;
    for (RelationBackend backend : kAllBackends) {
      AdaptiveRelation adaptive = AdaptiveRelation::FromPairs(
          c.graph.NumNodes(), PairsOf(c.relation), backend);
      ASSERT_EQ(adaptive.backend(), backend) << "seed " << seed;
      for (std::size_t threads : {1, 4}) {
        KRemDefinabilityOptions parallel = options;
        parallel.num_threads = threads;
        auto r = CheckKRemDefinability(c.graph, adaptive, c.k, parallel);
        ASSERT_TRUE(r.ok())
            << "seed " << seed << " backend "
            << RelationBackendName(backend) << " threads " << threads;
        ExpectSameKRemResult(dense.value(), r.value(), seed);
      }
    }
  }
}

TEST(KRemDiff, SparseFrontierStoreMatchesDenseStore) {
  // The frontier-streaming tuple store explores the same canonical order
  // as the dense bitset store, so forcing each one over the same instance
  // must agree exactly — including under the sparse store's
  // ignore-engine/threads contract.
  for (std::uint64_t seed = 1; seed <= 16; seed++) {
    RandomCase c = MakeCase(seed);
    KRemDefinabilityOptions dense_store, sparse_store;
    dense_store.max_tuples = sparse_store.max_tuples = 20'000;
    dense_store.tuple_store = KRemTupleStore::kDense;
    sparse_store.tuple_store = KRemTupleStore::kSparseFrontier;
    auto a = CheckKRemDefinability(c.graph, c.relation, c.k, dense_store);
    auto b = CheckKRemDefinability(c.graph, c.relation, c.k, sparse_store);
    ASSERT_TRUE(a.ok()) << "seed " << seed;
    ASSERT_TRUE(b.ok()) << "seed " << seed;
    ExpectSameKRemResult(a.value(), b.value(), seed);
    // engine/num_threads must be no-ops on the sparse-frontier path.
    KRemDefinabilityOptions sparse_threads = sparse_store;
    sparse_threads.num_threads = 4;
    sparse_threads.engine = KRemEngine::kReference;
    auto t = CheckKRemDefinability(c.graph, c.relation, c.k, sparse_threads);
    ASSERT_TRUE(t.ok()) << "seed " << seed;
    ExpectSameKRemResult(a.value(), t.value(), seed);
  }
}

TEST(KRemDiff, SparseFrontierWitnessesFollowPairsOrder) {
  // S = Q(G) is definable, and one tuple usually solves many of its pairs;
  // the transitive queries put several pairs in a row. On these both
  // stores, and the sparse store over a sparse relation, must give the same
  // witnesses, one per pair in Pairs() order, and the same tuples_explored.
  struct Case {
    const char* text;
    std::size_t k;
  };
  const Case cases[] = {{"a", 0},          {"a b", 0},
                        {"(a | b)+", 0},   {"a+ | b", 0},
                        {"$r1. a+ [r1=]", 1}, {"$r1. (a | b) b [r1!=]", 1}};
  std::size_t shared_paths = 0;
  std::size_t multi_pair_rows = 0;
  for (std::uint64_t seed = 1; seed <= 6; seed++) {
    DataGraph g = RandomDataGraph({.num_nodes = 6 + seed % 3,
                                   .num_labels = 2,
                                   .num_data_values = 2,
                                   .edge_percent = 25,
                                   .seed = seed});
    for (const Case& c : cases) {
      SCOPED_TRACE(std::string(c.text) + " seed " + std::to_string(seed));
      BinaryRelation s = EvaluateRem(g, ParseRem(c.text).ValueOrDie());
      if (s.Empty()) {
        continue;
      }
      std::vector<std::pair<NodeId, NodeId>> pairs = s.Pairs();
      KRemDefinabilityOptions dense_store, sparse_store;
      dense_store.max_tuples = sparse_store.max_tuples = 20'000;
      dense_store.tuple_store = KRemTupleStore::kDense;
      sparse_store.tuple_store = KRemTupleStore::kSparseFrontier;
      auto a = CheckKRemDefinability(g, s, c.k, dense_store);
      auto b = CheckKRemDefinability(g, s, c.k, sparse_store);
      AdaptiveRelation sparse_relation = AdaptiveRelation::FromPairs(
          g.NumNodes(), pairs, RelationBackend::kSparse);
      auto d = CheckKRemDefinability(g, sparse_relation, c.k, sparse_store);
      ASSERT_TRUE(a.ok() && b.ok() && d.ok());
      ASSERT_EQ(a.value().verdict, DefinabilityVerdict::kDefinable);
      ExpectSameKRemResult(a.value(), b.value(), seed);
      ExpectSameKRemResult(a.value(), d.value(), seed);
      const std::vector<KRemWitness>& witnesses = b.value().witnesses;
      ASSERT_EQ(witnesses.size(), pairs.size());
      for (std::size_t j = 0; j < pairs.size(); j++) {
        EXPECT_EQ(witnesses[j].from, pairs[j].first) << "witness " << j;
        EXPECT_EQ(witnesses[j].to, pairs[j].second) << "witness " << j;
        if (j > 0 && pairs[j].first == pairs[j - 1].first) {
          multi_pair_rows++;
        }
        for (std::size_t i = 0; i < j; i++) {
          if (SameBlocks(witnesses[i].blocks, witnesses[j].blocks)) {
            shared_paths++;
            break;
          }
        }
      }
    }
  }
  // The instances exercise what the test is about.
  EXPECT_GT(shared_paths, 50u);
  EXPECT_GT(multi_pair_rows, 50u);
}

TEST(KRemDiff, SparseFrontierMaxTuplesTripsIdentically) {
  // A max_tuples trip is representation-independent (unlike byte budgets),
  // so both stores must stop with the same partial verdict.
  RandomCase c = MakeCase(2);
  KRemDefinabilityOptions dense_store, sparse_store;
  dense_store.max_tuples = sparse_store.max_tuples = 3;
  dense_store.tuple_store = KRemTupleStore::kDense;
  sparse_store.tuple_store = KRemTupleStore::kSparseFrontier;
  auto a = CheckKRemDefinability(c.graph, c.relation, c.k, dense_store);
  auto b = CheckKRemDefinability(c.graph, c.relation, c.k, sparse_store);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().verdict, b.value().verdict);
  EXPECT_EQ(a.value().tuples_explored, b.value().tuples_explored);
}

/// Where a budgeted k-REM search stops: the verdict, tuples_explored and,
/// for a ResourceBudget trip, the partial-progress report.
struct TripPoint {
  std::uint64_t seed;
  KRemTupleStore store;
  const char* axis;  ///< "bytes", "tuples" (ResourceBudget) or "max_tuples"
  DefinabilityVerdict verdict;
  std::size_t tuples_explored;
  bool has_partial;
  std::uint64_t partial_tuples;
  std::uint64_t partial_depth;
  std::uint64_t partial_bytes_peak;
};

TEST(KRemDiff, BudgetTripPointsArePinnedPerStore) {
  // Each tuple store charges its own layout to the budget — (words + 1)·8
  // bytes per dense tuple, (entries + 2)·8 per sparse one, plus the probe
  // table — so byte trips are store-specific. This pins each store's trip
  // points for the search alone: the setup is built unbudgeted and the
  // search runs under a fresh budget, so assignment-graph charges do not
  // enter them.
  constexpr std::uint64_t kMaxBytes = 16'384;
  constexpr std::uint64_t kMaxBudgetTuples = 100;
  constexpr std::size_t kMaxTuplesCap = 50;
  constexpr KRemTupleStore kDense = KRemTupleStore::kDense;
  constexpr KRemTupleStore kSparse = KRemTupleStore::kSparseFrontier;
  constexpr DefinabilityVerdict kOut = DefinabilityVerdict::kBudgetExhausted;
  const TripPoint expected[] = {
      {7, kDense, "bytes", kOut, 222, true, 222, 3, 16528},
      {7, kDense, "tuples", kOut, 106, true, 106, 2, 7984},
      {7, kDense, "max_tuples", kOut, 57, false, 0, 0, 0},
      {7, kSparse, "bytes", kOut, 95, true, 95, 2, 16792},
      {7, kSparse, "tuples", kOut, 106, true, 106, 2, 19216},
      {7, kSparse, "max_tuples", kOut, 57, false, 0, 0, 0},
      {11, kDense, "bytes", kOut, 139, true, 139, 1, 16504},
      {11, kDense, "tuples", kOut, 103, true, 103, 1, 12760},
      {11, kDense, "max_tuples", kOut, 61, false, 0, 0, 0},
      {11, kSparse, "bytes", kOut, 129, true, 129, 1, 19392},
      {11, kSparse, "tuples", kOut, 103, true, 103, 1, 15480},
      {11, kSparse, "max_tuples", kOut, 61, false, 0, 0, 0},
      {17, kDense, "bytes", kOut, 311, true, 311, 2, 16536},
      {17, kDense, "tuples", kOut, 106, true, 106, 1, 6288},
      {17, kDense, "max_tuples", kOut, 61, false, 0, 0, 0},
      {17, kSparse, "bytes", kOut, 268, true, 268, 2, 17472},
      {17, kSparse, "tuples", kOut, 106, true, 106, 1, 7368},
      {17, kSparse, "max_tuples", kOut, 61, false, 0, 0, 0},
  };
  std::size_t at = 0;
  for (std::uint64_t seed : {7, 11, 17}) {
    RandomCase c = MakeCase(seed);
    AdaptiveRelation relation = AdaptiveRelation::FromDense(c.relation);
    for (KRemTupleStore store :
         {KRemTupleStore::kDense, KRemTupleStore::kSparseFrontier}) {
      KRemDefinabilityOptions options;
      options.max_tuples = 20'000;
      options.tuple_store = store;
      KRemSetup setup = BuildKRemSetup(c.graph, c.k, options).ValueOrDie();
      for (const char* axis : {"bytes", "tuples", "max_tuples"}) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " store " +
                     std::to_string(static_cast<int>(store)) + " axis " +
                     axis);
        std::string_view name = axis;
        ResourceBudget budget(name == "bytes" ? kMaxBytes : 0,
                              name == "tuples" ? kMaxBudgetTuples : 0);
        KRemDefinabilityOptions run = options;
        if (name == "max_tuples") {
          run.max_tuples = kMaxTuplesCap;
        } else {
          run.budget = &budget;
        }
        auto r = CheckKRemDefinability(setup, c.graph, relation, run);
        ASSERT_TRUE(r.ok()) << r.status();
        const KRemDefinabilityResult& got = r.value();
        PartialProgress partial = got.partial.value_or(PartialProgress{});
        ASSERT_LT(at, std::size(expected));
        const TripPoint& want = expected[at];
        ASSERT_EQ(want.seed, seed);
        ASSERT_EQ(want.store, store);
        ASSERT_EQ(std::string_view(want.axis), name);
        EXPECT_EQ(got.verdict, want.verdict);
        EXPECT_EQ(got.tuples_explored, want.tuples_explored);
        ASSERT_EQ(got.partial.has_value(), want.has_partial);
        EXPECT_EQ(partial.tuples_explored, want.partial_tuples);
        EXPECT_EQ(partial.frontier_depth, want.partial_depth);
        EXPECT_EQ(partial.bytes_peak, want.partial_bytes_peak);
        if (got.partial.has_value()) {
          EXPECT_EQ(partial.stage, "krem-bfs");
        }
        at++;
      }
    }
  }
  EXPECT_EQ(at, std::size(expected));
}

TEST(RelationBackendDiff, ReeIdenticalAcrossBackends) {
  // The level algorithm's semantic interner makes the blocked-relation run
  // reproduce the dense run exactly: same verdict, levels, monoid size,
  // and the same defining expression when one exists.
  for (std::uint64_t seed = 1; seed <= 16; seed++) {
    RandomCase c = MakeCase(seed);
    ReeDefinabilityOptions options;
    options.max_monoid_size = 20'000;
    auto dense = CheckReeDefinability(c.graph, c.relation, options);
    ASSERT_TRUE(dense.ok()) << "seed " << seed;
    for (RelationBackend backend : kAllBackends) {
      AdaptiveRelation adaptive = AdaptiveRelation::FromPairs(
          c.graph.NumNodes(), PairsOf(c.relation), backend);
      auto r = CheckReeDefinability(c.graph, adaptive, options);
      ASSERT_TRUE(r.ok())
          << "seed " << seed << " backend " << RelationBackendName(backend);
      EXPECT_EQ(dense.value().verdict, r.value().verdict)
          << "seed " << seed << " backend " << RelationBackendName(backend);
      EXPECT_EQ(dense.value().levels_used, r.value().levels_used)
          << "seed " << seed << " backend " << RelationBackendName(backend);
      EXPECT_EQ(dense.value().monoid_size, r.value().monoid_size)
          << "seed " << seed << " backend " << RelationBackendName(backend);
      if (dense.value().verdict == DefinabilityVerdict::kDefinable &&
          !c.relation.Empty()) {
        EXPECT_EQ(ReeToString(dense.value().defining_expression),
                  ReeToString(r.value().defining_expression))
            << "seed " << seed << " backend "
            << RelationBackendName(backend);
      }
    }
  }
}

TEST(RelationBackendDiff, UcrdpqIdenticalAcrossBackends) {
  // Pair-list seeding iterates row-major — the order FromBinary produces —
  // so verdicts, seeds_tried, and any violation witness all coincide.
  for (std::uint64_t seed = 1; seed <= 10; seed++) {
    RandomCase c = MakeCase(seed);
    UcrdpqDefinabilityOptions options;
    auto dense = CheckUcrdpqDefinability(c.graph, c.relation, options);
    ASSERT_TRUE(dense.ok()) << "seed " << seed;
    for (RelationBackend backend : kAllBackends) {
      AdaptiveRelation adaptive = AdaptiveRelation::FromPairs(
          c.graph.NumNodes(), PairsOf(c.relation), backend);
      auto r = CheckUcrdpqDefinability(c.graph, adaptive, options);
      ASSERT_TRUE(r.ok())
          << "seed " << seed << " backend " << RelationBackendName(backend);
      EXPECT_EQ(dense.value().verdict, r.value().verdict)
          << "seed " << seed << " backend " << RelationBackendName(backend);
      EXPECT_EQ(dense.value().seeds_tried, r.value().seeds_tried)
          << "seed " << seed << " backend " << RelationBackendName(backend);
      EXPECT_EQ(dense.value().violated_tuple.has_value(),
                r.value().violated_tuple.has_value())
          << "seed " << seed;
      if (dense.value().violated_tuple.has_value() &&
          r.value().violated_tuple.has_value()) {
        EXPECT_EQ(*dense.value().violated_tuple, *r.value().violated_tuple)
            << "seed " << seed;
      }
    }
  }
}

// --- UCRDPQ: memoized first-pin closure vs a fresh CSP per seed ----------

/// The UCRDPQ seed loop without the first-pin memo: every seed (t, t') with
/// t ∈ S, t' ∉ S and consistent pins copies the base CSP, pins h(t) = t'
/// and solves the copy from scratch.
Result<UcrdpqDefinabilityResult> ReferenceUcrdpq(
    const DataGraph& graph, const TupleRelation& relation,
    const CspOptions& csp_options) {
  UcrdpqDefinabilityResult result;
  result.verdict = DefinabilityVerdict::kDefinable;
  if (relation.empty()) {
    return result;
  }
  GQD_ASSIGN_OR_RETURN(Csp base, BuildHomomorphismCsp(graph));
  const std::size_t n = graph.NumNodes();
  std::vector<std::pair<NodeId, NodeId>> pins;
  for (const NodeTuple& source : relation.tuples()) {
    NodeTuple image(relation.arity(), 0);
    for (bool more = true; more;) {
      bool consistent = true;
      pins.clear();
      for (std::size_t i = 0; i < source.size(); i++) {
        for (const auto& [node, pinned] : pins) {
          consistent &= node != source[i] || pinned == image[i];
        }
        pins.emplace_back(source[i], image[i]);
      }
      if (!relation.Contains(image) && consistent) {
        result.seeds_tried++;
        bool wiped = false;
        for (const auto& [node, pinned] : pins) {
          wiped |= !base.domains[node].Test(pinned);
        }
        if (!wiped) {
          Csp csp = base;
          for (const auto& [node, pinned] : pins) {
            csp.Pin(node, pinned);
          }
          auto solved = SolveCsp(csp, csp_options, &result.csp_stats);
          if (!solved.ok()) {
            if (solved.status().code() != StatusCode::kResourceExhausted) {
              return solved.status();
            }
            result.verdict = DefinabilityVerdict::kBudgetExhausted;
            if (csp_options.budget != nullptr &&
                csp_options.budget->Exhausted()) {
              result.partial = PartialProgress{
                  result.csp_stats.nodes_expanded, result.seeds_tried,
                  csp_options.budget->bytes_peak(), "ucrdpq-csp"};
            }
            return result;
          }
          if (solved.value().has_value()) {
            result.verdict = DefinabilityVerdict::kNotDefinable;
            result.violating_homomorphism =
                NodeMapping(solved.value()->begin(), solved.value()->end());
            result.violated_tuple = source;
            return result;
          }
        }
      }
      // Odometer step over V^arity, in lexicographic order.
      more = false;
      for (std::size_t i = image.size(); !more && i-- > 0;) {
        more = ++image[i] < n;
        if (!more) {
          image[i] = 0;
        }
      }
    }
  }
  return result;
}

/// Byte peaks differ by design (the checker charges its tables and memo),
/// so a partial report is compared on its search position only.
void ExpectSameUcrdpq(const UcrdpqDefinabilityResult& want,
                      const UcrdpqDefinabilityResult& got,
                      const std::string& label) {
  EXPECT_EQ(want.verdict, got.verdict) << label;
  EXPECT_EQ(want.seeds_tried, got.seeds_tried) << label;
  EXPECT_EQ(want.violated_tuple, got.violated_tuple) << label;
  EXPECT_EQ(want.violating_homomorphism, got.violating_homomorphism) << label;
  EXPECT_EQ(want.csp_stats.nodes_expanded, got.csp_stats.nodes_expanded)
      << label;
  ASSERT_EQ(want.partial.has_value(), got.partial.has_value()) << label;
  if (want.partial.has_value()) {
    EXPECT_EQ(want.partial->tuples_explored, got.partial->tuples_explored)
        << label;
    EXPECT_EQ(want.partial->frontier_depth, got.partial->frontier_depth)
        << label;
    EXPECT_EQ(want.partial->stage, got.partial->stage) << label;
  }
}

RemPtr RandomRem(SplitMix64* rng, int depth) {
  static const char* const kLetters[] = {"a", "b", "c"};
  if (depth == 0 || rng->NextBool(1, 3)) {
    return rem::Letter(kLetters[rng->NextBelow(3)]);
  }
  switch (rng->NextBelow(5)) {
    case 0:
      return rem::Union(
          {RandomRem(rng, depth - 1), RandomRem(rng, depth - 1)});
    case 1:
      return rem::Concat(
          {RandomRem(rng, depth - 1), RandomRem(rng, depth - 1)});
    case 2:
      return rem::Plus(RandomRem(rng, depth - 1));
    case 3:
      return rem::Bind({0}, RandomRem(rng, depth - 1));
    default:
      return rem::Test(RandomRem(rng, depth - 1),
                       rng->NextBool(1, 2) ? cond::RegisterEq(0)
                                           : cond::RegisterNeq(0));
  }
}

struct UcrdpqCase {
  DataGraph graph;
  TupleRelation relation;
  std::string label;
};

/// Seeded graphs with n ≤ 10, 1–3 labels and repeated data values, each
/// with a random pair set, the answer Q_e(G) of a random REM e, and a
/// ternary relation whose tuples repeat nodes.
std::vector<UcrdpqCase> UcrdpqCases(std::uint64_t seed) {
  const std::size_t n = 4 + seed % 7;
  DataGraph graph = RandomDataGraph(
      {.num_nodes = n,
       .num_labels = 1 + seed % 3,
       .num_data_values = 1 + seed % 3,
       .edge_percent = static_cast<std::uint32_t>(12 + 4 * (seed % 5)),
       .seed = seed});
  SplitMix64 rng(seed * 31 + 7);
  std::vector<UcrdpqCase> cases;
  cases.push_back({graph,
                   TupleRelation::FromBinary(RandomRelation(
                       n, static_cast<std::uint32_t>(5 + 10 * (seed % 3)),
                       seed * 13 + 5)),
                   "pairs seed " + std::to_string(seed)});
  RemPtr e = RandomRem(&rng, 4);
  cases.push_back({graph, TupleRelation::FromBinary(EvaluateRem(graph, e)),
                   "rem " + RemToString(e) + " seed " + std::to_string(seed)});
  TupleRelation ternary(3);
  for (std::size_t t = 0; t < 2 + rng.NextBelow(3); t++) {
    NodeId x = static_cast<NodeId>(rng.NextBelow(n));
    NodeId y = rng.NextBool(1, 3) ? x : static_cast<NodeId>(rng.NextBelow(n));
    NodeId z = rng.NextBool(1, 3) ? y : static_cast<NodeId>(rng.NextBelow(n));
    ternary.Insert({x, y, z});
  }
  cases.push_back({graph, std::move(ternary),
                   "ternary seed " + std::to_string(seed)});
  return cases;
}

TEST(UcrdpqDiff, SeedMemoMatchesFreshCspPerSeed) {
  std::size_t outcomes[3] = {0, 0, 0};
  for (std::uint64_t seed = 1; seed <= 40; seed++) {
    for (const UcrdpqCase& c : UcrdpqCases(seed)) {
      auto want = ReferenceUcrdpq(c.graph, c.relation, {});
      auto got = CheckUcrdpqDefinability(c.graph, c.relation);
      ASSERT_TRUE(want.ok()) << c.label;
      ASSERT_TRUE(got.ok()) << c.label;
      ExpectSameUcrdpq(want.value(), got.value(), c.label);
      outcomes[static_cast<int>(got.value().verdict)]++;
    }
  }
  // Both verdicts occur, so the memo is checked on refuted and on
  // surviving seeds.
  EXPECT_GT(outcomes[static_cast<int>(DefinabilityVerdict::kDefinable)], 0u);
  EXPECT_GT(outcomes[static_cast<int>(DefinabilityVerdict::kNotDefinable)],
            0u);
}

/// Isolated nodes 0–3 and 6 and one edge 4 -a-> 5, with S = {(4, 4)}.
/// Pinning h(4) to an isolated node leaves 5 without an image, which plain
/// backtracking finds only after assigning nodes 0–3: thousands of search
/// nodes in one seed, enough to reach the search's strided budget poll.
UcrdpqCase LateConflictCase() {
  DataGraph graph;
  for (int v = 0; v < 7; v++) {
    graph.AddNodeWithValue("0");
  }
  graph.AddEdgeByName(4, "a", 5);
  TupleRelation relation(2);
  relation.Insert({4, 4});
  return {std::move(graph), std::move(relation), "late conflict"};
}

TEST(UcrdpqDiff, SeedMemoStopsIdenticallyUnderBudgets) {
  // A tuple budget trips only at the search's strided poll, which plain
  // backtracking reaches on the late-conflict case; a node cap counts
  // across seeds and stops the random cases under AC-3.
  std::vector<UcrdpqCase> cases;
  for (std::uint64_t seed = 1; seed <= 40; seed++) {
    for (UcrdpqCase& c : UcrdpqCases(seed)) {
      cases.push_back(std::move(c));
    }
  }
  cases.push_back(LateConflictCase());
  std::size_t tuple_trips = 0;
  std::size_t node_caps = 0;
  for (const UcrdpqCase& c : cases) {
    for (bool use_ac3 : {false, true}) {
      ResourceBudget want_budget(0, 1000);
      ResourceBudget got_budget(0, 1000);
      CspOptions csp;
      csp.use_ac3 = use_ac3;
      csp.max_nodes = use_ac3 ? 3 : 100'000;
      csp.budget = &want_budget;
      auto want = ReferenceUcrdpq(c.graph, c.relation, csp);
      UcrdpqDefinabilityOptions options;
      options.csp = csp;
      options.csp.budget = &got_budget;
      auto got = CheckUcrdpqDefinability(c.graph, c.relation, options);
      const std::string label = c.label + (use_ac3 ? " ac3" : " plain");
      ASSERT_TRUE(want.ok()) << label;
      ASSERT_TRUE(got.ok()) << label;
      ExpectSameUcrdpq(want.value(), got.value(), label);
      EXPECT_EQ(want_budget.tuples_used(), got_budget.tuples_used()) << label;
      if (got.value().partial.has_value()) {
        tuple_trips++;
      } else if (got.value().verdict ==
                 DefinabilityVerdict::kBudgetExhausted) {
        node_caps++;
      }
    }
  }
  EXPECT_GT(tuple_trips, 0u);
  EXPECT_GT(node_caps, 0u);
}

TEST(RelationBackendDiff, RpqIdenticalAcrossBackends) {
  for (std::uint64_t seed = 1; seed <= 12; seed++) {
    RandomCase c = MakeCase(seed);
    KRemDefinabilityOptions options;
    options.max_tuples = 20'000;
    auto dense = CheckRpqDefinability(c.graph, c.relation, options);
    ASSERT_TRUE(dense.ok()) << "seed " << seed;
    for (RelationBackend backend : kAllBackends) {
      AdaptiveRelation adaptive = AdaptiveRelation::FromPairs(
          c.graph.NumNodes(), PairsOf(c.relation), backend);
      auto r = CheckRpqDefinability(c.graph, adaptive, options);
      ASSERT_TRUE(r.ok())
          << "seed " << seed << " backend " << RelationBackendName(backend);
      EXPECT_EQ(dense.value().verdict, r.value().verdict)
          << "seed " << seed << " backend " << RelationBackendName(backend);
      EXPECT_EQ(dense.value().witness_words, r.value().witness_words)
          << "seed " << seed << " backend " << RelationBackendName(backend);
      EXPECT_EQ(dense.value().empty_relation_witness,
                r.value().empty_relation_witness)
          << "seed " << seed;
    }
  }
}

// --- Storage backends: resident vs mmap must be bit-identical -----------

/// Round-trips `graph` through a binary container and returns the mapped
/// zero-copy view (the shared_ptr keeps the mapping alive).
std::shared_ptr<const DataGraph> MapThroughContainer(const DataGraph& graph,
                                                     std::uint64_t seed) {
  std::string path = ::testing::TempDir() + "gqd_diff_" +
                     std::to_string(seed) + ".gqdg";
  Status written = WriteGraphContainer(graph, path);
  EXPECT_TRUE(written.ok()) << written;
  auto mapped = GraphStore::OpenContainer(path);
  EXPECT_TRUE(mapped.ok()) << mapped.status();
  EXPECT_EQ(mapped.value().info.backend, GraphBackend::kMapped);
  return mapped.value().graph;
}

TEST(StorageDiff, KRemVerdictsIdenticalAcrossBackends) {
  // The checkers read the graph only through the DataGraph accessors, so a
  // zero-copy mapped view must produce the exact result of the resident
  // parse — verdicts, exploration counts and witnesses — at every thread
  // count and on both engines.
  for (std::uint64_t seed = 1; seed <= 12; seed++) {
    RandomCase c = MakeCase(seed);
    auto mapped = MapThroughContainer(c.graph, seed);
    ASSERT_NE(mapped, nullptr);
    for (std::size_t threads : {1, 4}) {
      for (KRemEngine engine : {KRemEngine::kPlanned, KRemEngine::kReference}) {
        KRemDefinabilityOptions options;
        options.max_tuples = 20'000;
        options.num_threads = threads;
        options.engine = engine;
        auto resident = CheckKRemDefinability(c.graph, c.relation, c.k,
                                              options);
        auto view = CheckKRemDefinability(*mapped, c.relation, c.k, options);
        ASSERT_TRUE(resident.ok()) << "seed " << seed;
        ASSERT_TRUE(view.ok()) << "seed " << seed;
        ExpectSameKRemResult(resident.value(), view.value(), seed);
      }
    }
  }
}

TEST(StorageDiff, ReeVerdictsIdenticalAcrossBackends) {
  for (std::uint64_t seed = 1; seed <= 12; seed++) {
    RandomCase c = MakeCase(seed);
    auto mapped = MapThroughContainer(c.graph, seed + 100);
    ASSERT_NE(mapped, nullptr);
    ReeDefinabilityOptions options;
    options.max_monoid_size = 20'000;
    auto resident = CheckReeDefinability(c.graph, c.relation, options);
    auto view = CheckReeDefinability(*mapped, c.relation, options);
    ASSERT_TRUE(resident.ok()) << "seed " << seed;
    ASSERT_TRUE(view.ok()) << "seed " << seed;
    EXPECT_EQ(resident.value().verdict, view.value().verdict)
        << "seed " << seed;
    EXPECT_EQ(resident.value().levels_used, view.value().levels_used)
        << "seed " << seed;
    EXPECT_EQ(resident.value().monoid_size, view.value().monoid_size)
        << "seed " << seed;
    // A synthesized expression evaluates identically over both backends.
    if (resident.value().verdict == DefinabilityVerdict::kDefinable &&
        !c.relation.Empty()) {
      EXPECT_EQ(EvaluateRee(*mapped, resident.value().defining_expression),
                c.relation)
          << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace gqd
