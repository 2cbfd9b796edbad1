// Opt-in pre-flight static analysis before query evaluation.
//
// Evaluation happily returns ∅ for queries that are silently vacuous (a
// register compared before any store, a letter outside Σ, an unsatisfiable
// condition). The pre-flight runs the lint pass manager against the target
// graph and converts error-level findings into an InvalidArgument Status
// whose message carries the rendered diagnostics — fast rejection before
// the expensive product-construction machinery runs. Warnings and notes
// never block evaluation.

#ifndef GQD_EVAL_PREFLIGHT_H_
#define GQD_EVAL_PREFLIGHT_H_

#include <vector>

#include "analysis/diagnostic.h"
#include "analysis/pass_manager.h"
#include "common/status.h"
#include "eval/query.h"
#include "graph/data_graph.h"

namespace gqd {

/// Lints `expression` against `graph`; InvalidArgument on error-level
/// findings, OK otherwise.
Status PreflightPathExpression(const DataGraph& graph,
                               const PathExpression& expression);

/// Pre-flights every atom of the query.
Status PreflightCrdpq(const DataGraph& graph, const Crdpq& query);

/// Pre-flights every disjunct.
Status PreflightUcrdpq(const DataGraph& graph, const Ucrdpq& query);

/// The diagnostics themselves (all severities), for callers that want to
/// report rather than reject.
std::vector<Diagnostic> LintPathExpression(const DataGraph& graph,
                                           const PathExpression& expression);

/// Parses `text` as a `language` query (see ParsePathQuery) and lints it;
/// findings carry line:column anchors into `text`.
Result<std::vector<Diagnostic>> LintPathQuery(const std::string& language,
                                              const std::string& text,
                                              const AnalysisOptions& options);

}  // namespace gqd

#endif  // GQD_EVAL_PREFLIGHT_H_
