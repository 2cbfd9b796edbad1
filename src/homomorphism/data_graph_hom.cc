#include "homomorphism/data_graph_hom.h"

#include <cassert>

namespace gqd {

BinaryRelation Reachability(const DataGraph& graph) {
  std::size_t n = graph.NumNodes();
  BinaryRelation edges(n);
  for (const Edge& e : graph.edges()) {
    edges.Set(e.from, e.to);
  }
  BinaryRelation reach = TransitivePlus(edges);
  reach.UnionWith(BinaryRelation::Identity(n));
  return reach;
}

bool IsDataGraphHomomorphism(const DataGraph& graph,
                             const NodeMapping& mapping) {
  assert(mapping.size() == graph.NumNodes());
  // (1) Single-step compatibility.
  for (const Edge& e : graph.edges()) {
    if (!graph.HasEdge(mapping[e.from], e.label, mapping[e.to])) {
      return false;
    }
  }
  // (2) Data compatibility of reachable pairs.
  BinaryRelation reach = Reachability(graph);
  for (NodeId p = 0; p < graph.NumNodes(); p++) {
    for (NodeId q = 0; q < graph.NumNodes(); q++) {
      if (!reach.Test(p, q)) {
        continue;
      }
      bool same_source = graph.DataValueOf(p) == graph.DataValueOf(q);
      bool same_image =
          graph.DataValueOf(mapping[p]) == graph.DataValueOf(mapping[q]);
      if (same_source != same_image) {
        return false;
      }
    }
  }
  return true;
}

Result<Csp> BuildHomomorphismCsp(const DataGraph& graph,
                                 const ResourceBudget* budget) {
  std::size_t n = graph.NumNodes();
  Csp csp = Csp::Full(n, n);
  const std::size_t words = csp.WordsPerRow();
  BinaryRelation reach = Reachability(graph);

  // Unary constraints (self-loops) are folded into the variable domains:
  // self-loop labels must be preserved.
  for (NodeId p = 0; p < n; p++) {
    for (const auto& [label, q0] : graph.OutEdges(p)) {
      if (q0 != p) {
        continue;
      }
      for (NodeId x = 0; x < n; x++) {
        if (!graph.HasEdge(x, label, x)) {
          csp.domains[p].Reset(x);
        }
      }
    }
  }

  // A constraint per ordered pair p ≠ q with q reachable from p, which
  // covers every edge p -a-> q. Its table is about n² bits, so charge them
  // all before building any. `reach` is reflexive: drop the diagonal.
  std::uint64_t num_constraints = 0;
  for (NodeId p = 0; p < n; p++) {
    num_constraints += reach.Row(p).Count() - 1;
  }
  if (budget != nullptr) {
    const std::uint64_t table_bytes =
        n * words * sizeof(std::uint64_t) + sizeof(BinaryConstraint) +
        2 * sizeof(std::size_t);
    budget->ChargeBytes(
        static_cast<std::int64_t>(num_constraints * table_bytes));
    if (budget->OverByteLimit()) {
      return Status::ResourceExhausted(
          "homomorphism CSP too large for the byte budget: " +
          std::to_string(num_constraints) + " constraint tables of " +
          std::to_string(table_bytes) + " bytes (budget " +
          std::to_string(budget->max_bytes()) + " bytes)");
    }
  }

  // Row x of (p, q)'s table is the set of y with ρ(x) = ρ(y) iff
  // ρ(p) = ρ(q), and x -a-> y for every label a on p -> q: the AND of
  // x's same- or other-value class and x's a-successors.
  std::vector<std::uint64_t> successors(graph.NumLabels() * n * words, 0);
  for (NodeId x = 0; x < n; x++) {
    for (const auto& [label, y] : graph.OutEdges(x)) {
      successors[(label * n + x) * words + (y >> 6)] |= std::uint64_t{1}
                                                        << (y & 63);
    }
  }
  std::vector<std::uint64_t> same_value(n * words, 0);
  std::vector<std::uint64_t> other_value(n * words, 0);
  for (NodeId x = 0; x < n; x++) {
    for (NodeId y = 0; y < n; y++) {
      std::vector<std::uint64_t>& side =
          graph.DataValueOf(x) == graph.DataValueOf(y) ? same_value
                                                       : other_value;
      side[x * words + (y >> 6)] |= std::uint64_t{1} << (y & 63);
    }
  }
  std::vector<LabelId> labels;
  for (NodeId p = 0; p < n; p++) {
    for (NodeId q = 0; q < n; q++) {
      if (p == q || !reach.Test(p, q)) {
        continue;
      }
      labels.clear();
      for (const auto& [label, to] : graph.OutEdges(p)) {
        if (to == q) {
          labels.push_back(label);
        }
      }
      const std::vector<std::uint64_t>& values =
          graph.DataValueOf(p) == graph.DataValueOf(q) ? same_value
                                                       : other_value;
      std::vector<std::uint64_t> rows(n * words);
      for (NodeId x = 0; x < n; x++) {
        std::uint64_t* row = rows.data() + x * words;
        for (std::size_t w = 0; w < words; w++) {
          std::uint64_t bits = values[x * words + w];
          for (LabelId label : labels) {
            bits &= successors[(label * n + x) * words + w];
          }
          row[w] = bits;
        }
      }
      csp.AddConstraint(p, q, std::move(rows));
    }
  }
  return csp;
}

Result<std::optional<NodeMapping>> FindHomomorphismWithPins(
    const DataGraph& graph,
    const std::vector<std::pair<NodeId, NodeId>>& pins,
    const CspOptions& options, CspStats* stats) {
  GQD_ASSIGN_OR_RETURN(Csp csp, BuildHomomorphismCsp(graph));
  for (const auto& [node, image] : pins) {
    csp.Pin(node, image);
    if (csp.domains[node].None()) {
      return std::optional<NodeMapping>();
    }
  }
  GQD_ASSIGN_OR_RETURN(auto solution, SolveCsp(csp, options, stats));
  if (!solution.has_value()) {
    return std::optional<NodeMapping>();
  }
  NodeMapping mapping(solution->begin(), solution->end());
  return std::optional<NodeMapping>(std::move(mapping));
}

Result<std::vector<NodeMapping>> EnumerateHomomorphisms(
    const DataGraph& graph, std::size_t max_solutions) {
  GQD_ASSIGN_OR_RETURN(Csp csp, BuildHomomorphismCsp(graph));
  GQD_ASSIGN_OR_RETURN(auto solutions,
                       EnumerateCspSolutions(csp, max_solutions));
  std::vector<NodeMapping> mappings;
  mappings.reserve(solutions.size());
  for (auto& s : solutions) {
    mappings.emplace_back(s.begin(), s.end());
  }
  return mappings;
}

}  // namespace gqd
