// Witness extraction for query evaluation: not just *that* ⟨u, v⟩ is in
// Q(G), but a concrete path demonstrating it.
//
// For an REM query the witness comes out of the same product space the
// evaluator walks — (node, automaton state, register assignment) — by BFS
// with parent links, so the returned path is one of minimum length. RPQ
// and REE queries are explained through their REM embeddings
// (eval/convert.h).

#ifndef GQD_EVAL_EXPLAIN_H_
#define GQD_EVAL_EXPLAIN_H_

#include <optional>
#include <vector>

#include "common/status.h"
#include "eval/query.h"
#include "graph/data_graph.h"
#include "graph/data_path.h"
#include "regex/ast.h"
#include "ree/ast.h"
#include "rem/ast.h"

namespace gqd {

/// A witness: the node path, its edge labels, and the induced data path.
struct ExplainedPath {
  std::vector<NodeId> nodes;    ///< nodes.size() == labels.size() + 1
  std::vector<LabelId> labels;
  DataPath data_path;
};

/// A shortest data path from `from` to `to` in L(expression), or nullopt
/// when ⟨from, to⟩ ∉ Q(G).
std::optional<ExplainedPath> ExplainRemPair(const DataGraph& graph,
                                            const RemPtr& expression,
                                            NodeId from, NodeId to);

std::optional<ExplainedPath> ExplainRpqPair(const DataGraph& graph,
                                            const RegexPtr& expression,
                                            NodeId from, NodeId to);

std::optional<ExplainedPath> ExplainReePair(const DataGraph& graph,
                                            const ReePtr& expression,
                                            NodeId from, NodeId to);

/// Any of the three expression kinds.
std::optional<ExplainedPath> ExplainPathPair(const DataGraph& graph,
                                             const PathExpression& expression,
                                             NodeId from, NodeId to);

}  // namespace gqd

#endif  // GQD_EVAL_EXPLAIN_H_
