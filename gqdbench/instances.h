// Seeded inputs of the four workloads.
//
// Each workload draws from an instance pool that a pool seed fixes: the
// graphs, the candidate relations S and the query texts. The expected
// answers of a pool are committed (data/expected_<pool>.tsv), so a pool
// must be regenerated bit-identically on every run; its input hashes are
// checked against the file before anything is timed. The run seed
// (--seed) then picks the request streams from the pool: which instances
// each client sends, in which order, and the sparse grids' data values.
//
// Everything here is a pure function of its seeds; nothing reads the clock.

#ifndef GQDBENCH_INSTANCES_H_
#define GQDBENCH_INSTANCES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/data_graph.h"

namespace gqdbench {

using Pairs = std::vector<std::pair<gqd::NodeId, gqd::NodeId>>;

/// Pool seeds: the default pool the timed runs use, and a held-out pool
/// used only to confirm the answers do not depend on the pool chosen.
std::uint64_t PoolSeed(const std::string& pool);

/// SplitMix64 finalizer over (a, b): derives independent sub-seeds.
std::uint64_t MixSeed(std::uint64_t a, std::uint64_t b);

/// FNV-1a 64 over bytes, and over a canonical (sorted) pair list.
std::uint64_t Fnv1a(const std::string& bytes,
                    std::uint64_t hash = 0xcbf29ce484222325ull);
std::uint64_t HashPairs(const Pairs& pairs);
std::string Hex(std::uint64_t value);

// --- check-burst ------------------------------------------------------------

/// Checkers a check-burst request uses; krem carries k.
struct CheckerSpec {
  std::string checker;  ///< rpq | krem | ree
  std::size_t k = 0;
  std::string Tag() const;  ///< "rpq", "krem1", "krem2", "ree"
};

struct CheckBurstPool {
  struct Graph {
    std::string name;  ///< registry name, "g0" ...
    std::shared_ptr<const gqd::DataGraph> graph;
    std::string text;  ///< graph text shipped by the `load` request
  };
  struct Relation {
    std::size_t graph = 0;
    Pairs pairs;
    std::string text;    ///< relation-file text for the check request
  };
  struct Instance {
    std::string id;       ///< key in the expected-answers file
    std::size_t relation = 0;
    std::size_t checker = 0;
    std::uint64_t input_hash = 0;
  };
  std::vector<Graph> graphs;
  std::vector<CheckerSpec> checkers;
  std::vector<Relation> relations;
  std::vector<Instance> instances;
  /// Deterministic search bound sent with every check (max_tuples).
  std::uint64_t max_tuples = 0;
};

CheckBurstPool MakeCheckBurstPool(std::uint64_t pool_seed);

/// Per-client request streams for one run: indices into pool.instances.
std::vector<std::vector<std::size_t>> CheckBurstStreams(
    const CheckBurstPool& pool, std::uint64_t seed, std::size_t clients,
    std::size_t length);

// --- eval-routed ------------------------------------------------------------

struct EvalRoutedPool {
  struct Graph {
    std::string name;  ///< "g0" ...; "rot<i>" aliases carry the same graph
    std::shared_ptr<const gqd::DataGraph> graph;
    std::string text;
  };
  struct Query {
    std::string id;
    std::size_t graph = 0;
    std::string language;  ///< rpq | rem | ree
    std::string text;
    std::uint64_t input_hash = 0;
  };
  std::vector<Graph> graphs;
  std::vector<Query> queries;  ///< the (graph, query) pool, Zipf-ranked
};

EvalRoutedPool MakeEvalRoutedPool(std::uint64_t pool_seed);

/// One eval-routed request: an eval of pool.queries[query] addressed to
/// the graph's own name or its rot alias, or a reload of a rot alias.
struct EvalRoutedRequest {
  bool is_load = false;
  std::size_t query = 0;  ///< eval: index into pool.queries
  std::size_t graph = 0;  ///< load / eval target graph
  bool via_alias = false; ///< address the graph as rot<i>
};

/// Shares of the eval-routed mix (Zipf exponent, load share).
inline constexpr double kEvalZipfExponent = 0.9;
inline constexpr std::uint32_t kEvalLoadPerMille = 20;

std::vector<std::vector<EvalRoutedRequest>> EvalRoutedStreams(
    const EvalRoutedPool& pool, std::uint64_t seed, std::size_t clients,
    std::size_t length);

// --- deep-check -------------------------------------------------------------

struct DeepCheckInstance {
  std::string id;
  std::string kind;  ///< krem | ree | ucrdpq
  std::size_t k = 0;
  std::shared_ptr<const gqd::DataGraph> graph;
  Pairs pairs;
  std::size_t max_tuples = 0;       ///< krem search bound
  std::size_t max_monoid_size = 0;  ///< ree monoid bound
  std::size_t max_levels = 0;       ///< ree restriction-level bound
  std::size_t max_csp_nodes = 0;    ///< ucrdpq search bound
  std::uint64_t input_hash = 0;
};

std::vector<DeepCheckInstance> MakeDeepCheckPool(std::uint64_t pool_seed);

/// A seeded permutation of [0, n).
std::vector<std::size_t> SeededOrder(std::size_t n, std::uint64_t seed);

// --- sparse-grid ------------------------------------------------------------

struct GridLeg {
  std::string id;
  std::string checker;  ///< rpq | krem
  std::size_t side = 0;
  std::size_t k = 0;
};

/// The two legs every sparse-grid operation runs.
std::vector<GridLeg> SparseGridLegs();

/// Byte budget every sparse-grid check runs under.
inline constexpr std::uint64_t kGridByteBudget = 400'000'000;

/// The pairs joined by the word a.b on a side×side grid (east then south),
/// computed from the geometry alone.
Pairs GridWordPairs(std::size_t side);

/// Renders pairs as relation-file text over the graph's node names.
std::string RelationText(const gqd::DataGraph& graph, const Pairs& pairs);

}  // namespace gqdbench

#endif  // GQDBENCH_INSTANCES_H_
