#include "eval/preflight.h"

#include <variant>

namespace gqd {

namespace {

Status RejectOnErrors(const std::vector<Diagnostic>& diagnostics,
                      const std::string& what) {
  if (!HasErrors(diagnostics)) {
    return Status::OK();
  }
  std::vector<Diagnostic> errors;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == DiagnosticSeverity::kError) {
      errors.push_back(d);
    }
  }
  return Status::InvalidArgument("pre-flight rejected " + what + ":\n" +
                                 DiagnosticsToText(errors));
}

std::vector<Diagnostic> LintWith(const PathExpression& expression,
                                 const AnalysisOptions& options) {
  if (const RegexPtr* regex = std::get_if<RegexPtr>(&expression)) {
    return LintRegex(*regex, options);
  }
  if (const RemPtr* rem = std::get_if<RemPtr>(&expression)) {
    return LintRem(*rem, options);
  }
  return LintRee(std::get<ReePtr>(expression), options);
}

}  // namespace

std::vector<Diagnostic> LintPathExpression(const DataGraph& graph,
                                           const PathExpression& expression) {
  AnalysisOptions options;
  options.graph = &graph;
  return LintWith(expression, options);
}

Result<std::vector<Diagnostic>> LintPathQuery(const std::string& language,
                                              const std::string& text,
                                              const AnalysisOptions& options) {
  GQD_ASSIGN_OR_RETURN(PathExpression expression,
                       ParsePathQuery(language, text));
  std::vector<Diagnostic> diagnostics = LintWith(expression, options);
  ResolveDiagnosticLocations(text, &diagnostics);
  return diagnostics;
}

Status PreflightPathExpression(const DataGraph& graph,
                               const PathExpression& expression) {
  return RejectOnErrors(LintPathExpression(graph, expression),
                        "expression `" + PathExpressionToString(expression) +
                            "`");
}

Status PreflightCrdpq(const DataGraph& graph, const Crdpq& query) {
  GQD_RETURN_NOT_OK(query.Validate());
  for (const CrdpqAtom& atom : query.atoms) {
    GQD_RETURN_NOT_OK(RejectOnErrors(
        LintPathExpression(graph, atom.expression),
        "atom " + atom.from_variable + " -[" +
            PathExpressionToString(atom.expression) + "]-> " +
            atom.to_variable));
  }
  return Status::OK();
}

Status PreflightUcrdpq(const DataGraph& graph, const Ucrdpq& query) {
  GQD_RETURN_NOT_OK(query.Validate());
  for (const Crdpq& disjunct : query.disjuncts) {
    GQD_RETURN_NOT_OK(PreflightCrdpq(graph, disjunct));
  }
  return Status::OK();
}

}  // namespace gqd
