#include "eval/rpq_eval.h"

#include <queue>
#include <vector>

#include "obs/trace.h"
#include "regex/nfa.h"

namespace gqd {

namespace {

/// Product BFS shared by both entry points. `cancel` may be null; with a
/// token the search polls it (stride-amortized) and reports expiry.
Result<BinaryRelation> EvaluateRpqImpl(const DataGraph& graph,
                                       const RegexPtr& regex,
                                       const CancelToken* cancel,
                                       const ResourceBudget* budget) {
  GQD_TRACE_SPAN(span, "eval.rpq");
  // The graph's interner is const; compile against a copy so unknown regex
  // letters stay unknown (dead) without mutating the graph.
  StringInterner labels = graph.labels();
  Nfa nfa = CompileRegex(regex, &labels, /*intern_new_labels=*/false);

  std::size_t n = graph.NumNodes();
  GQD_TRACE_SPAN_ATTR(span, "nodes", n);
  GQD_TRACE_SPAN_ATTR(span, "nfa_states", nfa.num_states);
  BinaryRelation result(n);
  if (budget != nullptr) {
    // The n×n result, charged as the REE evaluator charges each of its own.
    budget->ChargeBytes(
        static_cast<std::int64_t>(n * ((n + 63) / 64) * sizeof(std::uint64_t)));
  }
  std::uint32_t ticks = 0;
  std::uint32_t budget_ticks = 0;

  // One BFS over (node, nfa-state) per start node.
  for (NodeId u = 0; u < n; u++) {
    std::vector<bool> seen(n * nfa.num_states, false);
    std::queue<std::pair<NodeId, NfaState>> frontier;
    auto visit = [&](NodeId v, NfaState s) {
      std::size_t key = v * nfa.num_states + s;
      if (!seen[key]) {
        seen[key] = true;
        frontier.emplace(v, s);
      }
    };
    visit(u, nfa.start);
    while (!frontier.empty()) {
      if (GQD_CANCEL_STRIDE_CHECK(cancel, ticks)) {
        return cancel->Check();
      }
      if (budget != nullptr) {
        budget->ChargeTuples(1);
        if (GQD_BUDGET_STRIDE_CHECK(budget, budget_ticks)) {
          return budget->Check();
        }
      }
      auto [v, s] = frontier.front();
      frontier.pop();
      if (s == nfa.accept) {
        result.Set(u, v);
      }
      for (NfaState t : nfa.eps_edges[s]) {
        visit(v, t);
      }
      for (const auto& [label, t] : nfa.letter_edges[s]) {
        for (const auto& [edge_label, w] : graph.OutEdges(v)) {
          if (edge_label == label) {
            visit(w, t);
          }
        }
      }
    }
  }
  // The strided polls can miss a small search's overrun; this one cannot.
  if (budget != nullptr) {
    GQD_RETURN_NOT_OK(budget->Check());
  }
  return result;
}

}  // namespace

BinaryRelation EvaluateRpq(const DataGraph& graph, const RegexPtr& regex) {
  return EvaluateRpqImpl(graph, regex, nullptr, nullptr).ValueOrDie();
}

Result<BinaryRelation> EvaluateRpq(const DataGraph& graph,
                                   const RegexPtr& regex,
                                   const EvalOptions& options) {
  return EvaluateRpqImpl(graph, regex, options.cancel, options.budget);
}

}  // namespace gqd
