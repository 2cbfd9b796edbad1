#include "eval/query.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "eval/rem_eval.h"
#include "eval/ree_eval.h"
#include "eval/rpq_eval.h"
#include "ree/parser.h"
#include "regex/parser.h"
#include "rem/parser.h"

namespace gqd {

bool IsPathQueryLanguage(const std::string& language) {
  return language == "rpq" || language == "regex" || language == "rem" ||
         language == "ree";
}

Result<PathExpression> ParsePathQuery(const std::string& language,
                                      const std::string& text) {
  if (!IsPathQueryLanguage(language)) {
    return Status::InvalidArgument("unknown language '" + language +
                                   "' (expected rpq, regex, rem or ree)");
  }
  if (language == "rem") {
    GQD_ASSIGN_OR_RETURN(RemPtr rem, ParseRem(text));
    return PathExpression(std::move(rem));
  }
  if (language == "ree") {
    GQD_ASSIGN_OR_RETURN(ReePtr ree, ParseRee(text));
    return PathExpression(std::move(ree));
  }
  GQD_ASSIGN_OR_RETURN(RegexPtr regex, ParseRegex(text));
  return PathExpression(std::move(regex));
}

const char* PathLanguageName(const PathExpression& expression) {
  static constexpr const char* kNames[] = {"rpq", "rem", "ree"};
  return kNames[expression.index()];
}

Result<BinaryRelation> EvaluatePathExpression(
    const DataGraph& graph, const PathExpression& expression,
    const EvalOptions& options) {
  return std::visit(
      Overloaded{
          [&](const RegexPtr& e) { return EvaluateRpq(graph, e, options); },
          [&](const RemPtr& e) { return EvaluateRem(graph, e, options); },
          [&](const ReePtr& e) { return EvaluateRee(graph, e, options); }},
      expression);
}

std::string PathExpressionToString(const PathExpression& expression) {
  if (const auto* regex = std::get_if<RegexPtr>(&expression)) {
    return RegexToString(*regex);
  }
  if (const auto* rem = std::get_if<RemPtr>(&expression)) {
    return RemToString(*rem);
  }
  return ReeToString(std::get<ReePtr>(expression));
}

Status Crdpq::Validate() const {
  if (atoms.empty()) {
    return Status::InvalidArgument("CRDPQ needs at least one atom");
  }
  if (answer_variables.empty()) {
    return Status::InvalidArgument("CRDPQ needs a non-empty answer tuple");
  }
  for (const std::string& z : answer_variables) {
    bool found = false;
    for (const CrdpqAtom& atom : atoms) {
      if (atom.from_variable == z || atom.to_variable == z) {
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::InvalidArgument("answer variable '" + z +
                                     "' not used in any atom");
    }
  }
  return Status::OK();
}

std::string Crdpq::ToString() const {
  std::ostringstream os;
  os << "Ans(";
  for (std::size_t i = 0; i < answer_variables.size(); i++) {
    if (i > 0) {
      os << ",";
    }
    os << answer_variables[i];
  }
  os << ") := ";
  for (std::size_t i = 0; i < atoms.size(); i++) {
    if (i > 0) {
      os << " & ";
    }
    os << atoms[i].from_variable << " -["
       << PathExpressionToString(atoms[i].expression) << "]-> "
       << atoms[i].to_variable;
  }
  return os.str();
}

Result<TupleRelation> EvaluateCrdpq(const DataGraph& graph,
                                    const Crdpq& query) {
  GQD_RETURN_NOT_OK(query.Validate());

  // Collect variables in first-use order and evaluate each atom once.
  std::vector<std::string> variables;
  auto variable_index = [&](const std::string& name) {
    auto it = std::find(variables.begin(), variables.end(), name);
    if (it != variables.end()) {
      return static_cast<std::size_t>(it - variables.begin());
    }
    variables.push_back(name);
    return variables.size() - 1;
  };

  struct IndexedAtom {
    std::size_t from;
    std::size_t to;
    BinaryRelation relation;
  };
  std::vector<IndexedAtom> atoms;
  for (const CrdpqAtom& atom : query.atoms) {
    IndexedAtom indexed;
    indexed.from = variable_index(atom.from_variable);
    indexed.to = variable_index(atom.to_variable);
    GQD_ASSIGN_OR_RETURN(indexed.relation,
                         EvaluatePathExpression(graph, atom.expression));
    atoms.push_back(std::move(indexed));
  }
  std::vector<std::size_t> answer_indices;
  for (const std::string& z : query.answer_variables) {
    answer_indices.push_back(variable_index(z));
  }

  // Backtracking join: assign variables in order; after assigning variable
  // i, check every atom whose endpoints are both <= i.
  std::size_t n = graph.NumNodes();
  TupleRelation result(query.answer_variables.size());
  std::vector<NodeId> assignment(variables.size(), 0);

  auto consistent_up_to = [&](std::size_t bound) {
    for (const IndexedAtom& atom : atoms) {
      if (atom.from > bound || atom.to > bound) {
        continue;
      }
      // Only atoms whose later endpoint is exactly `bound` are new.
      if (atom.from != bound && atom.to != bound) {
        continue;
      }
      if (!atom.relation.Test(assignment[atom.from], assignment[atom.to])) {
        return false;
      }
    }
    return true;
  };

  // Iterative backtracking over variable positions.
  std::size_t depth = 0;
  std::vector<NodeId> next_candidate(variables.size() + 1, 0);
  while (true) {
    if (depth == variables.size()) {
      NodeTuple tuple;
      tuple.reserve(answer_indices.size());
      for (std::size_t idx : answer_indices) {
        tuple.push_back(assignment[idx]);
      }
      result.Insert(std::move(tuple));
      // Backtrack.
      if (depth == 0) {
        break;
      }
      depth--;
      continue;
    }
    bool advanced = false;
    for (NodeId v = next_candidate[depth]; v < n; v++) {
      assignment[depth] = v;
      if (consistent_up_to(depth)) {
        next_candidate[depth] = v + 1;
        depth++;
        next_candidate[depth] = 0;
        advanced = true;
        break;
      }
    }
    if (!advanced) {
      if (depth == 0) {
        break;
      }
      next_candidate[depth] = 0;
      depth--;
    }
  }
  return result;
}

Status Ucrdpq::Validate() const {
  if (disjuncts.empty()) {
    return Status::InvalidArgument("UCRDPQ needs at least one disjunct");
  }
  std::size_t arity = disjuncts[0].answer_variables.size();
  for (const Crdpq& q : disjuncts) {
    GQD_RETURN_NOT_OK(q.Validate());
    if (q.answer_variables.size() != arity) {
      return Status::InvalidArgument("UCRDPQ disjuncts have mixed arity");
    }
  }
  return Status::OK();
}

std::string Ucrdpq::ToString() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < disjuncts.size(); i++) {
    if (i > 0) {
      os << "\nUNION\n";
    }
    os << disjuncts[i].ToString();
  }
  return os.str();
}

Result<TupleRelation> EvaluateUcrdpq(const DataGraph& graph,
                                     const Ucrdpq& query) {
  GQD_RETURN_NOT_OK(query.Validate());
  TupleRelation result(query.disjuncts[0].answer_variables.size());
  for (const Crdpq& q : query.disjuncts) {
    GQD_ASSIGN_OR_RETURN(TupleRelation part, EvaluateCrdpq(graph, q));
    for (const NodeTuple& t : part.tuples()) {
      result.Insert(t);
    }
  }
  return result;
}

}  // namespace gqd
