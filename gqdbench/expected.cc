#include "expected.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "definability/krem_definability.h"
#include "definability/ree_definability.h"
#include "definability/rpq_definability.h"
#include "definability/ucrdpq_definability.h"
#include "eval/ree_eval.h"
#include "eval/rem_eval.h"
#include "eval/rpq_eval.h"
#include "graph/generators.h"
#include "graph/sparse_relation.h"
#include "instances.h"
#include "ree/parser.h"
#include "regex/parser.h"
#include "rem/parser.h"

namespace gqdbench {

using gqd::AdaptiveRelation;
using gqd::BinaryRelation;
using gqd::DataGraph;
using gqd::DefinabilityVerdict;

bool ExpectedAnswers::Load(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read expected answers '" + path + "'";
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::size_t tab1 = line.find('\t');
    std::size_t tab2 = tab1 == std::string::npos ? tab1
                                                 : line.find('\t', tab1 + 1);
    if (tab2 == std::string::npos) {
      *error = "malformed line in '" + path + "': " + line;
      return false;
    }
    entries_[line.substr(0, tab1)] = {line.substr(tab1 + 1, tab2 - tab1 - 1),
                                      line.substr(tab2 + 1)};
  }
  return true;
}

std::string ExpectedAnswers::AnswerFor(const std::string& id,
                                       std::uint64_t input_hash,
                                       std::string* error) const {
  auto it = entries_.find(id);
  if (it == entries_.end()) {
    *error = "no expected answer for " + id;
    return "";
  }
  if (it->second.input_hash != Hex(input_hash)) {
    *error = "input of " + id + " differs from the expected-answers file (" +
             Hex(input_hash) + " vs " + it->second.input_hash + ")";
    return "";
  }
  return it->second.answer;
}

std::string ExpectedPath(const std::string& data_dir,
                         const std::string& pool) {
  return data_dir + "/expected_" + pool + ".tsv";
}

std::string EvalAnswer(std::uint64_t count, const std::string& relation_text) {
  return "count=" + std::to_string(count) + " hash=" +
         Hex(Fnv1a(relation_text));
}

namespace {

const char* VerdictName(DefinabilityVerdict verdict) {
  return gqd::DefinabilityVerdictToString(verdict);
}

class Generator {
 public:
  explicit Generator(std::ostream* out) : out_(out) {}

  void Emit(const std::string& id, std::uint64_t input_hash,
            const std::string& answer) {
    *out_ << id << '\t' << Hex(input_hash) << '\t' << answer << '\n';
    emitted_++;
  }

  /// Records a fatal disagreement.
  void Fail(const std::string& id, const std::string& what) {
    std::fprintf(stderr, "expected-answers: %s: %s\n", id.c_str(),
                 what.c_str());
    failures_++;
  }

  /// Decides one check with the reference engine, cross-checks it against
  /// the default engine and verifies a positive verdict's witness.
  /// `max_tuples` goes through a tuple budget, as the serve protocol's
  /// max_tuples field does; `legacy_cap` uses the options' max_tuples.
  std::string Check(const std::string& id, const DataGraph& graph,
                    const Pairs& pairs, const std::string& checker,
                    std::size_t k, std::uint64_t tuple_budget,
                    std::size_t legacy_cap, std::size_t max_monoid_size,
                    std::size_t max_levels, std::size_t max_csp_nodes) {
    AdaptiveRelation relation =
        AdaptiveRelation::FromPairs(graph.NumNodes(), pairs);
    if (checker == "ucrdpq") {
      gqd::UcrdpqDefinabilityOptions options;
      options.csp.max_nodes = max_csp_nodes;
      auto result = gqd::CheckUcrdpqDefinability(graph, relation, options);
      if (!result.ok()) {
        Fail(id, result.status().ToString());
        return "";
      }
      // No second UCRDPQ engine exists; a refutation carries its
      // homomorphism, which is re-checked to move t out of S.
      const auto& r = result.value();
      if (r.verdict == DefinabilityVerdict::kNotDefinable) {
        const auto& h = *r.violating_homomorphism;
        const auto& t = *r.violated_tuple;
        if (t.size() != 2 || !relation.Test(t[0], t[1]) ||
            relation.Test(h[t[0]], h[t[1]])) {
          Fail(id, "violating homomorphism does not refute");
        }
      }
      return VerdictName(r.verdict);
    }
    auto run = [&](bool reference) -> std::optional<std::string> {
      std::optional<gqd::ResourceBudget> budget;
      if (tuple_budget > 0) {
        budget.emplace(0, tuple_budget);
      }
      const gqd::ResourceBudget* budget_ptr =
          budget.has_value() ? &*budget : nullptr;
      if (checker == "ree") {
        gqd::ReeDefinabilityOptions options;
        options.engine = reference ? gqd::ReeEngine::kReference
                                   : gqd::ReeEngine::kPlanned;
        options.budget = budget_ptr;
        if (max_monoid_size > 0) {
          options.max_monoid_size = max_monoid_size;
        }
        options.max_levels = max_levels;
        auto result = gqd::CheckReeDefinability(graph, relation, options);
        if (!result.ok()) {
          Fail(id, result.status().ToString());
          return std::nullopt;
        }
        if (reference &&
            result.value().verdict == DefinabilityVerdict::kDefinable) {
          Pairs got = gqd::EvaluateRee(graph,
                                       result.value().defining_expression)
                          .Pairs();
          if (got != pairs) {
            Fail(id, "REE witness does not evaluate to S");
          }
        }
        return VerdictName(result.value().verdict);
      }
      gqd::KRemDefinabilityOptions options;
      options.engine = reference ? gqd::KRemEngine::kReference
                                 : gqd::KRemEngine::kPlanned;
      options.budget = budget_ptr;
      if (legacy_cap > 0) {
        options.max_tuples = legacy_cap;
      }
      if (checker == "rpq") {
        auto result = gqd::CheckRpqDefinability(graph, relation, options);
        if (!result.ok()) {
          Fail(id, result.status().ToString());
          return std::nullopt;
        }
        if (reference &&
            result.value().verdict == DefinabilityVerdict::kDefinable) {
          Pairs got = gqd::EvaluateRpq(graph, gqd::RegexFromWitnesses(
                                                  result.value(),
                                                  graph.labels()))
                          .Pairs();
          if (got != pairs) {
            Fail(id, "RPQ witness does not evaluate to S");
          }
        }
        return VerdictName(result.value().verdict);
      }
      auto result = gqd::CheckKRemDefinability(graph, relation, k, options);
      if (!result.ok()) {
        Fail(id, result.status().ToString());
        return std::nullopt;
      }
      if (reference &&
          result.value().verdict == DefinabilityVerdict::kDefinable) {
        BinaryRelation covered(graph.NumNodes());
        for (const gqd::KRemWitness& witness : result.value().witnesses) {
          BinaryRelation image = gqd::EvaluateRem(
              graph,
              gqd::BasicRemFromBlocks(witness.blocks, k, graph.labels()));
          if (!image.Test(witness.from, witness.to)) {
            Fail(id, "k-REM witness misses its pair");
          }
          covered.UnionWith(image);
        }
        if (covered.Pairs() != pairs) {
          Fail(id, "k-REM witnesses do not evaluate to S");
        }
      }
      return VerdictName(result.value().verdict);
    };
    std::optional<std::string> reference = run(true);
    std::optional<std::string> planned = run(false);
    if (!reference.has_value() || !planned.has_value()) {
      return "";
    }
    if (*reference != *planned) {
      Fail(id, "reference engine says " + *reference +
                   ", default engine says " + *planned);
    }
    return *reference;
  }

  std::size_t failures() const { return failures_; }
  std::size_t emitted() const { return emitted_; }

 private:
  std::ostream* out_;
  std::size_t failures_ = 0;
  std::size_t emitted_ = 0;
};

/// The pairs a word relation chases to on `graph`, per source.
Pairs ChaseWord(const DataGraph& graph, const std::vector<gqd::LabelId>& word) {
  Pairs pairs;
  std::vector<gqd::NodeId> frontier;
  std::vector<gqd::NodeId> next;
  for (gqd::NodeId u = 0; u < graph.NumNodes(); u++) {
    frontier.assign(1, u);
    for (gqd::LabelId a : word) {
      next.clear();
      for (gqd::NodeId v : frontier) {
        for (const auto& edge : graph.OutEdges(v)) {
          if (edge.label == a) {
            next.push_back(edge.node);
          }
        }
      }
      std::sort(next.begin(), next.end());
      next.erase(std::unique(next.begin(), next.end()), next.end());
      frontier.swap(next);
    }
    for (gqd::NodeId v : frontier) {
      pairs.emplace_back(u, v);
    }
  }
  return pairs;
}

}  // namespace

int GenerateExpected(const std::string& pool, const std::string& path) {
  std::ostringstream out;
  Generator gen(&out);
  const std::uint64_t pool_seed = PoolSeed(pool);
  out << "# gqd benchmark expected answers, pool '" << pool << "' (seed "
      << pool_seed << ").\n"
      << "# Generated by `gqdbench --generate-expected " << pool
      << "`: reference engines, cross-checked\n"
      << "# against the default engines, positive witnesses re-evaluated.\n"
      << "# id\tinput_hash\tanswer\n";

  CheckBurstPool burst = MakeCheckBurstPool(pool_seed);
  for (const CheckBurstPool::Instance& instance : burst.instances) {
    const CheckBurstPool::Relation& relation =
        burst.relations[instance.relation];
    const CheckerSpec& checker = burst.checkers[instance.checker];
    std::string answer =
        gen.Check(instance.id, *burst.graphs[relation.graph].graph,
                  relation.pairs, checker.checker, checker.k,
                  burst.max_tuples, 0, 0, 0, 0);
    gen.Emit(instance.id, instance.input_hash, answer);
  }
  std::fprintf(stderr, "expected-answers: check-burst done (%zu)\n",
               burst.instances.size());

  EvalRoutedPool routed = MakeEvalRoutedPool(pool_seed);
  for (const EvalRoutedPool::Query& query : routed.queries) {
    const DataGraph& graph = *routed.graphs[query.graph].graph;
    BinaryRelation result;
    if (query.language == "rpq") {
      result = gqd::EvaluateRpq(graph, gqd::ParseRegex(query.text).ValueOrDie());
    } else if (query.language == "rem") {
      result = gqd::EvaluateRem(graph, gqd::ParseRem(query.text).ValueOrDie());
    } else {
      result = gqd::EvaluateRee(graph, gqd::ParseRee(query.text).ValueOrDie());
    }
    gen.Emit(query.id, query.input_hash,
             EvalAnswer(result.Count(), result.ToString(graph)));
  }
  std::fprintf(stderr, "expected-answers: eval-routed done (%zu)\n",
               routed.queries.size());

  for (const DeepCheckInstance& instance : MakeDeepCheckPool(pool_seed)) {
    std::string answer = gen.Check(
        instance.id, *instance.graph, instance.pairs, instance.kind,
        instance.k, 0, instance.max_tuples, instance.max_monoid_size,
        instance.max_levels, instance.max_csp_nodes);
    gen.Emit(instance.id, instance.input_hash, answer);
    std::fprintf(stderr, "expected-answers: %s %s\n", instance.id.c_str(),
                 answer.c_str());
  }

  // sparse-grid: S = R_{a.b} is RPQ-definable by construction. Confirm the
  // geometric pair list equals the word chased on a generated grid and
  // that both legs decide it within the byte budget.
  for (const GridLeg& leg : SparseGridLegs()) {
    gqd::GridOptions options;
    options.rows = leg.side;
    options.cols = leg.side;
    options.seed = pool_seed;
    gqd::DataGraphSink sink;
    gqd::GenerateGrid(options, &sink);
    DataGraph graph = sink.Take();
    Pairs pairs = GridWordPairs(leg.side);
    std::vector<gqd::LabelId> word = {*graph.labels().Find("a"),
                                      *graph.labels().Find("b")};
    if (ChaseWord(graph, word) != pairs) {
      gen.Fail(leg.id, "grid word relation differs from a.b chased");
    }
    gqd::ResourceBudget budget(kGridByteBudget, 0);
    AdaptiveRelation relation =
        AdaptiveRelation::FromPairs(graph.NumNodes(), pairs);
    gqd::KRemDefinabilityOptions options_k;
    options_k.budget = &budget;
    std::string answer;
    if (leg.checker == "rpq") {
      auto result = gqd::CheckRpqDefinability(graph, relation, options_k);
      answer = result.ok() ? VerdictName(result.value().verdict) : "";
    } else {
      auto result =
          gqd::CheckKRemDefinability(graph, relation, leg.k, options_k);
      answer = result.ok() ? VerdictName(result.value().verdict) : "";
    }
    if (answer != "definable") {
      gen.Fail(leg.id, "expected definable, got '" + answer + "'");
    }
    gen.Emit(leg.id, HashPairs(pairs), answer);
  }

  if (gen.failures() > 0) {
    std::fprintf(stderr, "expected-answers: %zu cross-check failures\n",
                 gen.failures());
    return 1;
  }
  std::ofstream file(path, std::ios::trunc);
  file << out.str();
  file.close();
  if (!file) {
    std::fprintf(stderr, "expected-answers: cannot write '%s'\n",
                 path.c_str());
    return 1;
  }
  std::fprintf(stderr, "expected-answers: wrote %zu answers to %s\n",
               gen.emitted(), path.c_str());
  return 0;
}

}  // namespace gqdbench
