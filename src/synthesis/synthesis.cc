#include "synthesis/synthesis.h"

#include <span>
#include <string>

#include "synthesis/lint_postpass.h"

namespace gqd {

Result<std::optional<RegexPtr>> SynthesizeRpqQuery(
    const DataGraph& graph, const BinaryRelation& relation,
    const KRemDefinabilityOptions& options) {
  GQD_ASSIGN_OR_RETURN(RpqDefinabilityResult result,
                       CheckRpqDefinability(graph, relation, options));
  switch (result.verdict) {
    case DefinabilityVerdict::kDefinable: {
      RegexPtr query = RegexFromWitnesses(result, graph.labels());
      // Post-pass: a synthesized query with error-level lint findings is a
      // synthesizer bug (see lint_postpass.h); warnings are expected and
      // left for graph-relative simplification.
      GQD_RETURN_NOT_OK(LintSynthesizedRegex(graph, relation, query).status());
      return std::optional<RegexPtr>(std::move(query));
    }
    case DefinabilityVerdict::kNotDefinable:
      return std::optional<RegexPtr>();
    case DefinabilityVerdict::kBudgetExhausted:
      return Status::ResourceExhausted("RPQ definability budget exhausted");
  }
  return Status::Internal("unreachable");
}

Result<std::optional<RemPtr>> SynthesizeKRemQuery(
    const DataGraph& graph, const BinaryRelation& relation, std::size_t k,
    const KRemDefinabilityOptions& options) {
  if (relation.Empty()) {
    // ε[¬⊤] has empty language on every graph.
    return std::optional<RemPtr>(
        rem::Test(rem::Epsilon(), cond::False()));
  }
  GQD_ASSIGN_OR_RETURN(KRemDefinabilityResult result,
                       CheckKRemDefinability(graph, relation, k, options));
  switch (result.verdict) {
    case DefinabilityVerdict::kDefinable: {
      // One union branch per distinct witness path, in first-use order.
      std::vector<RemPtr> parts;
      parts.reserve(result.paths.size());
      for (std::span<const BasicRemBlock> path : result.paths) {
        parts.push_back(BasicRemFromBlocks(path, k, graph.labels()));
      }
      RemPtr query = rem::Union(std::move(parts));
      GQD_RETURN_NOT_OK(LintSynthesizedRem(graph, relation, query).status());
      return std::optional<RemPtr>(std::move(query));
    }
    case DefinabilityVerdict::kNotDefinable:
      return std::optional<RemPtr>();
    case DefinabilityVerdict::kBudgetExhausted:
      return Status::ResourceExhausted("k-REM definability budget exhausted");
  }
  return Status::Internal("unreachable");
}

Result<std::optional<ReePtr>> SynthesizeReeQuery(
    const DataGraph& graph, const BinaryRelation& relation,
    const ReeDefinabilityOptions& options) {
  GQD_ASSIGN_OR_RETURN(ReeDefinabilityResult result,
                       CheckReeDefinability(graph, relation, options));
  switch (result.verdict) {
    case DefinabilityVerdict::kDefinable:
      GQD_RETURN_NOT_OK(
          LintSynthesizedRee(graph, relation, result.defining_expression)
              .status());
      return std::optional<ReePtr>(result.defining_expression);
    case DefinabilityVerdict::kNotDefinable:
      return std::optional<ReePtr>();
    case DefinabilityVerdict::kBudgetExhausted:
      return Status::ResourceExhausted("REE definability budget exhausted");
  }
  return Status::Internal("unreachable");
}

Result<Ucrdpq> SynthesizeCanonicalUcrdpq(const DataGraph& graph,
                                         const TupleRelation& relation) {
  if (relation.empty()) {
    return Status::InvalidArgument(
        "the canonical UCRDPQ needs a non-empty relation (an empty S is "
        "definable by any query with an unsatisfiable atom)");
  }
  std::size_t n = graph.NumNodes();
  auto var = [](NodeId v) { return "x" + std::to_string(v); };

  // φ_G(x̄): one atom per edge; (Σ⁺)= / (Σ⁺)≠ atoms per reachable pair with
  // equal / distinct data values.
  std::vector<std::string> labels;
  for (std::uint32_t a = 0; a < graph.NumLabels(); a++) {
    labels.push_back(graph.labels().NameOf(a));
  }
  ReePtr sigma_plus = ree::Plus(
      [&] {
        std::vector<ReePtr> letters;
        for (const std::string& name : labels) {
          letters.push_back(ree::Letter(name));
        }
        return ree::Union(std::move(letters));
      }());
  ReePtr reach_eq = ree::Eq(sigma_plus);
  ReePtr reach_neq = ree::Neq(sigma_plus);

  std::vector<CrdpqAtom> phi;
  for (const Edge& e : graph.edges()) {
    phi.push_back({var(e.from), var(e.to),
                   RegexPtr(re::Letter(graph.labels().NameOf(e.label)))});
  }
  // Reachability via one or more edges.
  BinaryRelation edges(n);
  for (const Edge& e : graph.edges()) {
    edges.Set(e.from, e.to);
  }
  BinaryRelation reach_plus = TransitivePlus(edges);
  for (NodeId u = 0; u < n; u++) {
    for (NodeId v = 0; v < n; v++) {
      if (!reach_plus.Test(u, v)) {
        continue;
      }
      if (graph.DataValueOf(u) == graph.DataValueOf(v)) {
        phi.push_back({var(u), var(v), reach_eq});
      } else {
        phi.push_back({var(u), var(v), reach_neq});
      }
    }
  }

  Ucrdpq query;
  for (const NodeTuple& tuple : relation.tuples()) {
    Crdpq disjunct;
    for (NodeId v : tuple) {
      disjunct.answer_variables.push_back(var(v));
    }
    disjunct.atoms = phi;
    // Every answer variable must occur in some atom; isolated nodes (no
    // edges, no reachable partners beyond themselves) need a harmless
    // anchor. (Σ⁺)=/(Σ⁺)≠ atoms above cover nodes on cycles only when
    // reachable; add a self ε-atom as a universal anchor.
    for (NodeId v : tuple) {
      bool anchored = false;
      for (const CrdpqAtom& atom : disjunct.atoms) {
        if (atom.from_variable == var(v) || atom.to_variable == var(v)) {
          anchored = true;
          break;
        }
      }
      if (!anchored) {
        disjunct.atoms.push_back(
            {var(v), var(v), ReePtr(ree::Epsilon())});
      }
    }
    query.disjuncts.push_back(std::move(disjunct));
  }
  GQD_RETURN_NOT_OK(query.Validate());
  return query;
}

}  // namespace gqd
