// A direct, literal implementation of the REM semantics (Definition 5 of
// the paper): the relation (e, w, σ) ⊢ σ' computed bottom-up over the AST
// as tables of assignment pairs per subpath.
//
// This is deliberately naive — O(|e| · m² · |Σσ|²) with explicit set-of-
// assignment-pairs tables — and exists purely as an *oracle*: the test
// suite checks the register-automaton compilation (rem/register_automaton)
// against it on enumerated paths, so a bug in the Thompson-style compiler
// cannot hide.

#ifndef GQD_TESTS_ORACLES_NAIVE_SEMANTICS_H_
#define GQD_TESTS_ORACLES_NAIVE_SEMANTICS_H_

#include <set>
#include <utility>

#include "common/interner.h"
#include "graph/data_path.h"
#include "rem/ast.h"
#include "rem/condition.h"

namespace gqd {

/// All pairs (σ, σ') with (e, w[i..j], σ) ⊢ σ', for every subpath [i..j]
/// of `path` (value positions i <= j). Assignments range over the path's
/// values plus ⊥.
using AssignmentPair = std::pair<RegisterAssignment, RegisterAssignment>;
using AssignmentRelation = std::set<AssignmentPair>;

/// (e, w, ⊥^k) ⊢ σ' for some σ' — Definition 5's acceptance, literally.
/// `k` defaults to RemNumRegisters(e). Letters resolve via `labels`.
bool NaiveRemMatches(const RemPtr& expression, const DataPath& path,
                     const StringInterner& labels);

}  // namespace gqd

#endif  // GQD_TESTS_ORACLES_NAIVE_SEMANTICS_H_
