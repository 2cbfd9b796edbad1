// Query types: regular data path queries and (unions of) conjunctive
// regular data path queries (Definitions 11 and 13 of the paper).

#ifndef GQD_EVAL_QUERY_H_
#define GQD_EVAL_QUERY_H_

#include <string>
#include <variant>
#include <vector>

#include "common/status.h"
#include "eval/eval_options.h"
#include "graph/data_graph.h"
#include "graph/relation.h"
#include "regex/ast.h"
#include "rem/ast.h"
#include "ree/ast.h"

namespace gqd {

/// The body of a regular data path query x -e-> y: a standard regex (RPQ),
/// an REM (RDPQ_mem) or an REE (RDPQ_=).
using PathExpression = std::variant<RegexPtr, RemPtr, ReePtr>;

/// A lambda overload set, for std::visit over a PathExpression.
template <typename... Fs>
struct Overloaded : Fs... {
  using Fs::operator()...;
};

/// True for the query language names ParsePathQuery accepts: rpq and regex
/// (both a standard regex), rem and ree.
bool IsPathQueryLanguage(const std::string& language);

/// Parses `text` in the query language `language`; InvalidArgument naming
/// the accepted languages for any other name.
Result<PathExpression> ParsePathQuery(const std::string& language,
                                      const std::string& text);

/// The canonical language name of the expression: rpq, rem or ree.
const char* PathLanguageName(const PathExpression& expression);

/// Evaluates x -e-> y on `graph` for any of the three expression kinds,
/// under `options`' deadline and budget (see EvalOptions).
Result<BinaryRelation> EvaluatePathExpression(
    const DataGraph& graph, const PathExpression& expression,
    const EvalOptions& options = {});

/// Renders the expression in its concrete syntax.
std::string PathExpressionToString(const PathExpression& expression);

/// One conjunct x -e-> y of a CRDPQ; variables are free-form names.
struct CrdpqAtom {
  std::string from_variable;
  std::string to_variable;
  PathExpression expression;
};

/// A conjunctive regular data path query
///   Ans(z) := ∧_i  x_i -e_i-> y_i
/// with z a tuple of variables among the x_i, y_i.
struct Crdpq {
  std::vector<std::string> answer_variables;
  std::vector<CrdpqAtom> atoms;

  /// Checks shape: at least one atom, every answer variable appears in some
  /// atom.
  Status Validate() const;

  std::string ToString() const;
};

/// Evaluates a CRDPQ: the set of µ(z) over all valuations µ of the atom
/// variables into nodes such that every atom's pair is in its expression's
/// relation. Backtracking join over the atom relations.
Result<TupleRelation> EvaluateCrdpq(const DataGraph& graph, const Crdpq& query);

/// A union of CRDPQs of equal arity (Definition 13).
struct Ucrdpq {
  std::vector<Crdpq> disjuncts;

  Status Validate() const;

  std::string ToString() const;
};

/// Evaluates a UCRDPQ: the union of its disjuncts' results.
Result<TupleRelation> EvaluateUcrdpq(const DataGraph& graph,
                                     const Ucrdpq& query);

}  // namespace gqd

#endif  // GQD_EVAL_QUERY_H_
