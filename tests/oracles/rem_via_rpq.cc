#include "oracles/rem_via_rpq.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

namespace gqd {

Result<AutomorphismClosure> BuildAutomorphismClosure(
    const DataGraph& graph, const BinaryRelation& relation) {
  if (relation.num_nodes() != graph.NumNodes()) {
    return Status::InvalidArgument(
        "relation is over a different node count than the graph");
  }
  std::size_t delta = graph.NumDataValues();
  if (delta > 5) {
    return Status::OutOfRange(
        "G_aut needs δ! copies; refusing δ > 5 (got δ = " +
        std::to_string(delta) + ")");
  }
  std::size_t n = graph.NumNodes();

  AutomorphismClosure out;
  ValueId dummy = out.graph.AddDataValue("_");

  std::vector<std::uint32_t> perm(delta);
  std::iota(perm.begin(), perm.end(), 0);
  std::size_t copy = 0;
  do {
    // Nodes of this copy.
    for (NodeId v = 0; v < n; v++) {
      out.graph.AddNode(dummy, graph.NodeName(v) + "@" +
                                   std::to_string(copy));
    }
    NodeId base = static_cast<NodeId>(copy * n);
    for (const Edge& e : graph.edges()) {
      std::uint32_t from_value = perm[graph.DataValueOf(e.from)];
      std::uint32_t to_value = perm[graph.DataValueOf(e.to)];
      std::string letter = std::to_string(from_value) + "|" +
                           graph.labels().NameOf(e.label) + "|" +
                           std::to_string(to_value);
      out.graph.AddEdgeByName(base + e.from, letter, base + e.to);
    }
    copy++;
  } while (std::next_permutation(perm.begin(), perm.end()));
  out.num_copies = copy;

  out.lifted_relation = BinaryRelation(n * copy);
  for (const auto& [u, v] : relation.Pairs()) {
    for (std::size_t c = 0; c < copy; c++) {
      out.lifted_relation.Set(static_cast<NodeId>(c * n + u),
                              static_cast<NodeId>(c * n + v));
    }
  }
  return out;
}

Result<RemViaRpqResult> CheckRemDefinabilityViaRpq(
    const DataGraph& graph, const BinaryRelation& relation,
    const KRemDefinabilityOptions& options) {
  RemViaRpqResult result;
  if (relation.Empty()) {
    // The empty relation is always REM-definable (ε[¬⊤]); the RPQ detour
    // would wrongly depend on the existence of a killing word.
    result.verdict = DefinabilityVerdict::kDefinable;
    return result;
  }
  GQD_ASSIGN_OR_RETURN(AutomorphismClosure closure,
                       BuildAutomorphismClosure(graph, relation));
  result.num_copies = closure.num_copies;
  GQD_ASSIGN_OR_RETURN(
      RpqDefinabilityResult rpq,
      CheckRpqDefinability(closure.graph, closure.lifted_relation, options));
  result.verdict = rpq.verdict;
  result.tuples_explored = rpq.tuples_explored;
  return result;
}

}  // namespace gqd
