#include "instances.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

#include "eval/ree_eval.h"
#include "eval/rem_eval.h"
#include "eval/rpq_eval.h"
#include "graph/generators.h"
#include "graph/serialization.h"
#include "ree/parser.h"
#include "regex/parser.h"
#include "rem/parser.h"

namespace gqdbench {

using gqd::DataGraph;
using gqd::SplitMix64;

std::uint64_t PoolSeed(const std::string& pool) {
  return pool == "heldout" ? 2 : 1;
}

std::uint64_t MixSeed(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9e3779b97f4a7c15ull * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t Fnv1a(const std::string& bytes, std::uint64_t hash) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::uint64_t HashPairs(const Pairs& pairs) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const auto& [u, v] : pairs) {
    hash = Fnv1a(std::to_string(u) + "," + std::to_string(v) + ";", hash);
  }
  return hash;
}

std::string Hex(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

std::string RelationText(const DataGraph& graph, const Pairs& pairs) {
  return gqd::WriteRelationPairsText(graph, pairs);
}

namespace {

std::shared_ptr<const DataGraph> ScaleFree(std::size_t n, std::size_t m,
                                           std::size_t delta,
                                           std::uint64_t seed) {
  gqd::ScaleFreeOptions options;
  options.num_nodes = n;
  options.edges_per_node = m;
  options.num_labels = 2;
  options.num_data_values = delta;
  options.seed = seed;
  gqd::DataGraphSink sink;
  gqd::GenerateScaleFree(options, &sink);
  return std::make_shared<const DataGraph>(sink.Take());
}

std::shared_ptr<const DataGraph> RandomGraph(std::size_t n,
                                             std::size_t labels,
                                             std::uint32_t edge_percent,
                                             std::uint64_t seed) {
  gqd::RandomGraphOptions options;
  options.num_nodes = n;
  options.num_labels = labels;
  options.num_data_values = 3;
  options.edge_percent = edge_percent;
  options.seed = seed;
  return std::make_shared<const DataGraph>(gqd::RandomDataGraph(options));
}

/// Label-local graph: the node range splits into `bands` contiguous bands
/// and band b's edges all carry label b, so every transition draws its
/// sources from one band (the shape the kernel dispatch specializes for).
std::shared_ptr<const DataGraph> BandedGraph(std::size_t n, std::size_t bands,
                                             std::size_t delta,
                                             std::uint64_t seed) {
  DataGraph g;
  for (std::size_t b = 0; b < bands; b++) {
    g.AddLabel("l" + std::to_string(b));
  }
  SplitMix64 rng(seed);
  for (std::size_t i = 0; i < n; i++) {
    g.AddNode(g.AddDataValue(std::to_string(rng.NextBelow(delta))));
  }
  const std::size_t stride = 2 * (seed % 5) + 5;  // odd, coprime-ish jump
  for (std::size_t u = 0; u < n; u++) {
    auto label = static_cast<gqd::LabelId>(u * bands / n);
    auto from = static_cast<gqd::NodeId>(u);
    g.AddEdge(from, label, static_cast<gqd::NodeId>((u + 1) % n));
    g.AddEdge(from, label, static_cast<gqd::NodeId>((u * stride + 3) % n));
  }
  return std::make_shared<const DataGraph>(std::move(g));
}

Pairs RandomPairs(std::size_t n, std::size_t count, SplitMix64* rng) {
  Pairs pairs;
  for (std::size_t i = 0; i < count; i++) {
    pairs.emplace_back(static_cast<gqd::NodeId>(rng->NextBelow(n)),
                       static_cast<gqd::NodeId>(rng->NextBelow(n)));
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  return pairs;
}

/// Pairs joined independently with probability percent/100.
Pairs PercentPairs(std::size_t n, std::uint32_t percent, std::uint64_t seed) {
  return gqd::RandomRelation(n, percent, seed).Pairs();
}

std::string RandomWord(SplitMix64* rng, std::size_t min_len,
                       std::size_t max_len) {
  std::size_t len = min_len + rng->NextBelow(max_len - min_len + 1);
  std::string word;
  for (std::size_t i = 0; i < len; i++) {
    if (i > 0) {
      word += ".";
    }
    word += rng->NextBool(1, 2) ? "a" : "b";
  }
  return word;
}

/// A query text in one of the three languages, built from random words.
std::string RandomQuery(const std::string& language, SplitMix64* rng) {
  const char* eq = rng->NextBool(1, 2) ? "=" : "!=";
  if (language == "rpq") {
    std::string query = RandomWord(rng, 1, 4);
    if (rng->NextBool(1, 5)) {
      query = "(" + query + ")|(" + RandomWord(rng, 1, 3) + ")";
    }
    return query;
  }
  if (language == "rem") {
    if (rng->NextBool(1, 3)) {
      return "$r1. " + RandomWord(rng, 1, 2) + "[r1" + eq + "] . " +
             RandomWord(rng, 1, 2);
    }
    return "$r1. " + RandomWord(rng, 1, 3) + "[r1" + eq + "]";
  }
  if (rng->NextBool(1, 3)) {
    return RandomWord(rng, 1, 2) + ".(" + RandomWord(rng, 1, 2) + ")" + eq;
  }
  return "(" + RandomWord(rng, 1, 3) + ")" + eq;
}

Pairs EvaluateQuery(const DataGraph& graph, const std::string& language,
                    const std::string& text) {
  if (language == "rpq") {
    return gqd::EvaluateRpq(graph, gqd::ParseRegex(text).ValueOrDie()).Pairs();
  }
  if (language == "rem") {
    return gqd::EvaluateRem(graph, gqd::ParseRem(text).ValueOrDie()).Pairs();
  }
  return gqd::EvaluateRee(graph, gqd::ParseRee(text).ValueOrDie()).Pairs();
}

/// Zipf(s) rank sampler over n items.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s) : cdf_(n) {
    double total = 0;
    for (std::size_t r = 0; r < n; r++) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = total;
    }
    for (double& c : cdf_) {
      c /= total;
    }
  }

  std::size_t Sample(SplitMix64* rng) const {
    double u = static_cast<double>(rng->Next() >> 11) * 0x1.0p-53;
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace

std::vector<std::size_t> SeededOrder(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; i++) {
    order[i] = i;
  }
  SplitMix64 rng(seed);
  for (std::size_t i = n; i > 1; i--) {
    std::swap(order[i - 1], order[rng.NextBelow(i)]);
  }
  return order;
}

// --- check-burst ------------------------------------------------------------

std::string CheckerSpec::Tag() const {
  return checker == "krem" ? "krem" + std::to_string(k) : checker;
}

CheckBurstPool MakeCheckBurstPool(std::uint64_t pool_seed) {
  constexpr std::size_t kSizes[] = {24, 28, 32, 36};
  constexpr std::size_t kDefinablePerGraph = 24;
  constexpr std::size_t kRandomPerGraph = 12;
  CheckBurstPool pool;
  pool.max_tuples = 3000;
  pool.checkers = {{"rpq", 0}, {"krem", 1}, {"krem", 2}, {"ree", 0}};
  for (std::size_t g = 0; g < std::size(kSizes); g++) {
    CheckBurstPool::Graph graph;
    graph.name = "g" + std::to_string(g);
    graph.graph = ScaleFree(kSizes[g], 1, 3, MixSeed(pool_seed, 100 + g));
    graph.text = gqd::WriteGraphText(*graph.graph);
    pool.graphs.push_back(std::move(graph));
  }
  for (std::size_t g = 0; g < pool.graphs.size(); g++) {
    const DataGraph& graph = *pool.graphs[g].graph;
    SplitMix64 rng(MixSeed(pool_seed, 200 + g));
    std::set<std::uint64_t> seen;
    auto add = [&](Pairs pairs) {
      if (pairs.empty() || !seen.insert(HashPairs(pairs)).second) {
        return false;
      }
      CheckBurstPool::Relation relation;
      relation.graph = g;
      relation.text = RelationText(graph, pairs);
      relation.pairs = std::move(pairs);
      pool.relations.push_back(std::move(relation));
      return true;
    };
    // Definable by construction: relations of evaluated random queries.
    static const char* kLanguages[] = {"rpq", "rem", "ree"};
    std::size_t definable = 0;
    for (int attempt = 0; attempt < 400 && definable < kDefinablePerGraph;
         attempt++) {
      std::string language = kLanguages[rng.NextBelow(3)];
      std::string text = RandomQuery(language, &rng);
      if (add(EvaluateQuery(graph, language, text))) {
        definable++;
      }
    }
    std::size_t random = 0;
    for (int attempt = 0; attempt < 400 && random < kRandomPerGraph;
         attempt++) {
      if (add(RandomPairs(graph.NumNodes(), 2 + rng.NextBelow(7), &rng))) {
        random++;
      }
    }
  }
  for (std::size_t r = 0; r < pool.relations.size(); r++) {
    for (std::size_t c = 0; c < pool.checkers.size(); c++) {
      const CheckBurstPool::Relation& relation = pool.relations[r];
      CheckBurstPool::Instance instance;
      instance.id = "check-burst/" + pool.graphs[relation.graph].name + "/s" +
                    std::to_string(r) + "/" + pool.checkers[c].Tag();
      instance.relation = r;
      instance.checker = c;
      instance.input_hash = Fnv1a(
          pool.graphs[relation.graph].text + "\n" + relation.text + "\n" +
          pool.checkers[c].Tag() + "/" + std::to_string(pool.max_tuples));
      pool.instances.push_back(std::move(instance));
    }
  }
  return pool;
}

std::vector<std::vector<std::size_t>> CheckBurstStreams(
    const CheckBurstPool& pool, std::uint64_t seed, std::size_t clients,
    std::size_t length) {
  // Each client sends whole decks in seeded order: a deck holds every
  // relation once per card of each checker, so any run of a few thousand
  // requests has the same mix (rpq 20 %, krem1 35 %, krem2 35 %, ree 10 %,
  // in pool.checkers order) and the same definable share.
  constexpr std::size_t kCheckerCards[] = {4, 7, 7, 2};
  const std::size_t num_checkers = pool.checkers.size();
  std::vector<std::size_t> deck;
  for (std::size_t r = 0; r < pool.relations.size(); r++) {
    for (std::size_t c = 0; c < num_checkers; c++) {
      deck.insert(deck.end(), kCheckerCards[c], r * num_checkers + c);
    }
  }
  std::vector<std::vector<std::size_t>> streams(clients);
  for (std::size_t c = 0; c < clients; c++) {
    for (std::uint64_t d = 0; streams[c].size() < length; d++) {
      for (std::size_t i : SeededOrder(deck.size(), MixSeed(seed, d * 64 + c))) {
        if (streams[c].size() == length) {
          break;
        }
        streams[c].push_back(deck[i]);
      }
    }
  }
  return streams;
}

// --- eval-routed ------------------------------------------------------------

EvalRoutedPool MakeEvalRoutedPool(std::uint64_t pool_seed) {
  constexpr std::size_t kSizes[] = {200, 260, 320, 380};
  constexpr std::size_t kQueriesPerGraph = 300;
  EvalRoutedPool pool;
  for (std::size_t g = 0; g < std::size(kSizes); g++) {
    EvalRoutedPool::Graph graph;
    graph.name = "g" + std::to_string(g);
    graph.graph = ScaleFree(kSizes[g], 2, 4, MixSeed(pool_seed, 300 + g));
    graph.text = gqd::WriteGraphText(*graph.graph);
    pool.graphs.push_back(std::move(graph));
  }
  std::vector<EvalRoutedPool::Query> queries;
  for (std::size_t g = 0; g < pool.graphs.size(); g++) {
    SplitMix64 rng(MixSeed(pool_seed, 310 + g));
    std::set<std::string> seen;
    for (int attempt = 0;
         attempt < 4000 && seen.size() < kQueriesPerGraph; attempt++) {
      std::uint64_t pick = rng.NextBelow(20);
      std::string language = pick < 8 ? "rpq" : pick < 15 ? "rem" : "ree";
      std::string text = RandomQuery(language, &rng);
      if (!seen.insert(language + ":" + text).second) {
        continue;
      }
      EvalRoutedPool::Query query;
      query.graph = g;
      query.language = language;
      query.text = text;
      query.input_hash =
          Fnv1a(pool.graphs[g].text + "\n" + language + ":" + text);
      queries.push_back(std::move(query));
    }
  }
  // Zipf rank order over the whole (graph, query) pool.
  for (std::size_t i : SeededOrder(queries.size(), MixSeed(pool_seed, 320))) {
    pool.queries.push_back(queries[i]);
    pool.queries.back().id = "eval-routed/q" +
                             std::to_string(pool.queries.size() - 1);
  }
  return pool;
}

std::vector<std::vector<EvalRoutedRequest>> EvalRoutedStreams(
    const EvalRoutedPool& pool, std::uint64_t seed, std::size_t clients,
    std::size_t length) {
  ZipfSampler zipf(pool.queries.size(), kEvalZipfExponent);
  std::vector<std::vector<EvalRoutedRequest>> streams(clients);
  for (std::size_t c = 0; c < clients; c++) {
    SplitMix64 rng(MixSeed(seed, 500 + c));
    for (std::size_t i = 0; i < length; i++) {
      EvalRoutedRequest request;
      if (rng.NextBelow(1000) < kEvalLoadPerMille) {
        request.is_load = true;
        request.graph = rng.NextBelow(pool.graphs.size());
        request.via_alias = true;
      } else {
        request.query = zipf.Sample(&rng);
        request.graph = pool.queries[request.query].graph;
        request.via_alias = rng.NextBool(1, 2);
      }
      streams[c].push_back(request);
    }
  }
  return streams;
}

// --- deep-check -------------------------------------------------------------

std::vector<DeepCheckInstance> MakeDeepCheckPool(std::uint64_t pool_seed) {
  std::vector<DeepCheckInstance> pool;
  std::size_t index = 0;
  auto add = [&](DeepCheckInstance instance) {
    instance.id = "deep-check/" + std::to_string(index) + "/" +
                  instance.kind +
                  (instance.kind == "krem" ? std::to_string(instance.k) : "");
    std::string bounds = std::to_string(instance.max_tuples) + "/" +
                         std::to_string(instance.max_monoid_size) + "/" +
                         std::to_string(instance.max_levels) + "/" +
                         std::to_string(instance.max_csp_nodes);
    instance.input_hash =
        Fnv1a(gqd::WriteGraphText(*instance.graph) + "\n" +
              Hex(HashPairs(instance.pairs)) + "\n" + instance.id + bounds);
    pool.push_back(std::move(instance));
    index++;
  };
  auto seed_of = [&](std::size_t salt) {
    return MixSeed(pool_seed, 600 + salt);
  };
  // k-REM refutations on scale-free DAGs: the reachable macro-tuple space
  // is finite, so the BFS runs to exhaustion and refutes.
  for (std::size_t n : {40, 48, 56, 64, 72}) {
    DeepCheckInstance instance;
    instance.kind = "krem";
    instance.k = 1;
    instance.graph = ScaleFree(n, 2, 3, seed_of(index));
    instance.pairs = PercentPairs(n, 5, seed_of(100 + index));
    instance.max_tuples = 20'000;
    add(std::move(instance));
  }
  for (std::size_t n : {24, 28}) {
    DeepCheckInstance instance;
    instance.kind = "krem";
    instance.k = 2;
    instance.graph = ScaleFree(n, 2, 3, seed_of(index));
    instance.pairs = PercentPairs(n, 5, seed_of(100 + index));
    instance.max_tuples = 12'000;
    add(std::move(instance));
  }
  // Banded and random cyclic graphs: the tuple space is vast, so these stop
  // at the deterministic tuple bound (budget exhausted) after a fixed amount
  // of BFS work.
  for (std::size_t n : {64, 96}) {
    DeepCheckInstance instance;
    instance.kind = "krem";
    instance.k = 1;
    instance.graph = BandedGraph(n, 16, 15, seed_of(index));
    instance.pairs = PercentPairs(n, 15, seed_of(100 + index));
    instance.max_tuples = 3'000;
    add(std::move(instance));
  }
  for (std::size_t n : {64, 96}) {
    DeepCheckInstance instance;
    instance.kind = "krem";
    instance.k = 1;
    instance.graph = RandomGraph(n, 2, 2, seed_of(index));
    instance.pairs = PercentPairs(n, 3, seed_of(100 + index));
    instance.max_tuples = 8'000;
    add(std::move(instance));
  }
  // REE closures on small random graphs whose monoids pass 10^4 elements
  // within the first restriction levels; the monoid-size bound stops them
  // deterministically.
  for (std::uint32_t edge_percent : {18, 22, 25}) {
    DeepCheckInstance instance;
    instance.kind = "ree";
    instance.graph = RandomGraph(8, 3, edge_percent, seed_of(index));
    instance.pairs = PercentPairs(8, 20, seed_of(100 + index));
    instance.max_monoid_size = 12'000;
    instance.max_levels = 2;
    add(std::move(instance));
  }
  // UCRDPQ (coNP): seeded homomorphism searches.
  for (std::size_t n : {20, 24}) {
    DeepCheckInstance instance;
    instance.kind = "ucrdpq";
    instance.graph = RandomGraph(n, 2, 8, seed_of(index));
    instance.pairs = PercentPairs(n, 3, seed_of(100 + index));
    instance.max_csp_nodes = 2'000'000;
    add(std::move(instance));
  }
  return pool;
}

// --- sparse-grid ------------------------------------------------------------

std::vector<GridLeg> SparseGridLegs() {
  return {{"sparse-grid/rpq-1000", "rpq", 1000, 0},
          {"sparse-grid/krem1-300", "krem", 300, 1}};
}

Pairs GridWordPairs(std::size_t side) {
  Pairs pairs;
  pairs.reserve((side - 1) * (side - 1));
  for (std::size_t r = 0; r + 1 < side; r++) {
    for (std::size_t c = 0; c + 1 < side; c++) {
      pairs.emplace_back(static_cast<gqd::NodeId>(r * side + c),
                         static_cast<gqd::NodeId>((r + 1) * side + c + 1));
    }
  }
  return pairs;
}

}  // namespace gqdbench
