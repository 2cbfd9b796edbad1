// Data-graph homomorphisms (Definition 33 of the paper).
//
// h : V → V is a data-graph homomorphism when
//   (1) every edge (p, a, q) maps to an edge (h(p), a, h(q)), and
//   (2) for every reachable pair p →* q:  ρ(p) = ρ(q)  ⟺  ρ(h(p)) = ρ(h(q)).
//
// The search for homomorphisms is encoded as a binary CSP (homomorphism/
// csp.h): one variable per node, domain = nodes, a constraint per node pair
// that has an edge or a reachability relation between them.

#ifndef GQD_HOMOMORPHISM_DATA_GRAPH_HOM_H_
#define GQD_HOMOMORPHISM_DATA_GRAPH_HOM_H_

#include <optional>
#include <vector>

#include "common/budget.h"
#include "common/status.h"
#include "graph/data_graph.h"
#include "graph/relation.h"
#include "homomorphism/csp.h"

namespace gqd {

/// A candidate node mapping (index = source node, value = image).
using NodeMapping = std::vector<NodeId>;

/// Directly checks Definition 33 for a full mapping (test oracle; O(n²)).
bool IsDataGraphHomomorphism(const DataGraph& graph,
                             const NodeMapping& mapping);

/// Builds the CSP whose solutions are exactly the data-graph homomorphisms
/// of `graph`. Its constraint tables (n² bits for each constrained node
/// pair) are charged to `budget` before they are built; over its byte limit
/// the build returns ResourceExhausted without allocating them.
Result<Csp> BuildHomomorphismCsp(const DataGraph& graph,
                                 const ResourceBudget* budget = nullptr);

/// Finds any homomorphism satisfying the given pins (h(node) = image).
/// Returns nullopt when none exists.
Result<std::optional<NodeMapping>> FindHomomorphismWithPins(
    const DataGraph& graph,
    const std::vector<std::pair<NodeId, NodeId>>& pins,
    const CspOptions& options = {}, CspStats* stats = nullptr);

/// Enumerates all homomorphisms (tests/oracles; exponential).
Result<std::vector<NodeMapping>> EnumerateHomomorphisms(
    const DataGraph& graph, std::size_t max_solutions = 1'000'000);

/// Reflexive-transitive reachability over all edge labels.
BinaryRelation Reachability(const DataGraph& graph);

}  // namespace gqd

#endif  // GQD_HOMOMORPHISM_DATA_GRAPH_HOM_H_
