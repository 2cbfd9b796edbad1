// The paper's alternative route to RDPQ_mem-definability (Section 3,
// opening discussion): reduce to RPQ-definability on the automorphism-
// closure graph G_aut.
//
// G_aut is the disjoint union of G_π over all automorphisms π of the value
// set D_G (δ! copies). To "drop the special treatment of data values",
// every edge (u, a, v) of copy π is relabelled with the *value-annotated*
// letter (π⁻¹ρ(u), a, π⁻¹ρ(v)) — a word over these triples is exactly a
// data path, and the same word read in two copies describes two
// automorphic data paths. Lifting S to every copy, one gets
//
//   S is RDPQ_mem-definable on G  ⟺  S_lifted is RPQ-definable on G_aut,
//
// because an RPQ word witness on G_aut is precisely a data path whose
// *entire automorphism class* connects only S-pairs — the k-REM witness
// condition with k = δ (Lemmas 15/18/23).
//
// The construction costs δ! copies and is therefore usable only for tiny δ
// — which is exactly why the paper develops the assignment-graph algorithm
// instead. Here it serves as an independent cross-check of
// CheckRemDefinability (see test_rem_via_rpq.cc) and as the E10 ablation.

#ifndef GQD_TESTS_ORACLES_REM_VIA_RPQ_H_
#define GQD_TESTS_ORACLES_REM_VIA_RPQ_H_

#include "common/status.h"
#include "definability/krem_definability.h"
#include "definability/rpq_definability.h"
#include "definability/verdict.h"
#include "graph/data_graph.h"
#include "graph/relation.h"

namespace gqd {

/// The automorphism-closure graph plus the lifted relation.
struct AutomorphismClosure {
  /// One component per permutation of D_G; all nodes share a dummy value
  /// (RPQ-definability ignores values); edge labels are the annotated
  /// triples "d_from|a|d_to".
  DataGraph graph;
  /// S lifted into every copy.
  BinaryRelation lifted_relation;
  /// Number of copies (δ!).
  std::size_t num_copies = 0;
};

/// Builds G_aut and the lifted relation. Fails with OutOfRange when
/// δ! · n would be unreasonably large (δ > 5).
Result<AutomorphismClosure> BuildAutomorphismClosure(
    const DataGraph& graph, const BinaryRelation& relation);

struct RemViaRpqResult {
  DefinabilityVerdict verdict = DefinabilityVerdict::kBudgetExhausted;
  std::size_t num_copies = 0;
  std::size_t tuples_explored = 0;
};

/// Decides RDPQ_mem-definability through G_aut + the RPQ baseline checker.
/// Semantically equivalent to CheckRemDefinability (tested against it);
/// exponentially worse in δ, sometimes better in k-driven blow-ups.
Result<RemViaRpqResult> CheckRemDefinabilityViaRpq(
    const DataGraph& graph, const BinaryRelation& relation,
    const KRemDefinabilityOptions& options = {});

}  // namespace gqd

#endif  // GQD_TESTS_ORACLES_REM_VIA_RPQ_H_
