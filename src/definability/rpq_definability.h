// RPQ-definability: the data-free baseline (Antonopoulos–Neven–Servais),
// obtained from the k-REM machinery at k = 0.
//
// With zero registers a basic REM block degenerates to a bare letter, so a
// witness is a plain word over Σ and the macro-tuple system is the subset
// construction of the graph viewed as an automaton — exactly the PSPACE
// algorithm of [3] that the paper cites and generalizes. This wrapper also
// powers the Theorem-32 cross-check (RDPQ_= definability on a
// constant-data-value graph coincides with RPQ-definability).
//
// One subtlety the wrapper owns: REMs define the empty relation on every
// graph (e.g. ε[¬⊤] has empty language), but classical regexes cannot
// denote ∅ — every regex in the ε|a|+|·|* grammar has a non-empty language.
// So ∅ is RPQ-definable iff some word w over Σ connects no pair of nodes
// (R_w = ∅), decided here by a subset walk from the full node set.

#ifndef GQD_DEFINABILITY_RPQ_DEFINABILITY_H_
#define GQD_DEFINABILITY_RPQ_DEFINABILITY_H_

#include <optional>
#include <vector>

#include "common/status.h"
#include "definability/krem_definability.h"
#include "definability/verdict.h"
#include "graph/data_graph.h"
#include "graph/relation.h"
#include "graph/sparse_relation.h"
#include "regex/ast.h"

namespace gqd {

/// One pair of S and the index of its witness word in
/// RpqDefinabilityResult::words.
struct RpqWitness {
  NodeId from;
  NodeId to;
  std::size_t word;

  bool operator==(const RpqWitness&) const = default;
};

struct RpqDefinabilityResult {
  DefinabilityVerdict verdict = DefinabilityVerdict::kBudgetExhausted;
  /// Each distinct witness word (as label ids) once, in the order of the
  /// first pair it witnesses, when definable and S ≠ ∅.
  std::vector<std::vector<LabelId>> words;
  /// One entry per pair of S, in Pairs() order, when definable and S ≠ ∅.
  std::vector<RpqWitness> witness_words;
  /// When S = ∅ and definable: a word w with R_w = ∅.
  std::optional<std::vector<LabelId>> empty_relation_witness;
  std::size_t tuples_explored = 0;
  /// Set iff an options.budget trip stopped the underlying k-REM search or,
  /// for S = ∅, the killing-word walk (stage "rpq-killing-word").
  std::optional<PartialProgress> partial;
};

/// Decides whether `relation` is definable by a regular path query.
Result<RpqDefinabilityResult> CheckRpqDefinability(
    const DataGraph& graph, const BinaryRelation& relation,
    const KRemDefinabilityOptions& options = {});

/// Density-adaptive overload: S = ∅ runs the killing-word subset walk
/// (graph-only, no relation memory; each n-bit subset it keeps is charged
/// to options.budget); otherwise the k = 0 k-REM check runs
/// on the adaptive relation, streaming frontiers when the dense tuple
/// store would not fit. Verdicts and witnesses match the dense overload.
Result<RpqDefinabilityResult> CheckRpqDefinability(
    const DataGraph& graph, const AdaptiveRelation& relation,
    const KRemDefinabilityOptions& options = {});

/// The same decision on a prebuilt k = 0 setup (see KRemSetup): the
/// killing-word walk for S = ∅, else the k = 0 search on `setup`. Charges
/// options.budget only for the search, like the k-REM overload.
Result<RpqDefinabilityResult> CheckRpqDefinability(
    const KRemSetup& setup, const DataGraph& graph,
    const AdaptiveRelation& relation,
    const KRemDefinabilityOptions& options = {});

/// Builds a defining regex from a kDefinable result: the union of the
/// distinct witness words in order (ε for the empty word), or the killing
/// word for S = ∅.
RegexPtr RegexFromWitnesses(const RpqDefinabilityResult& result,
                            const StringInterner& labels);

}  // namespace gqd

#endif  // GQD_DEFINABILITY_RPQ_DEFINABILITY_H_
