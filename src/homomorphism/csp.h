// A small binary-CSP engine: backtracking search with AC-3 propagation and
// minimum-remaining-values ordering.
//
// This is the decision procedure behind UCRDPQ-definability (Theorem 35):
// finding a data-graph homomorphism is an instance of a binary CSP whose
// variables are the graph's nodes and whose domain is also the node set.
// The engine is generic so tests can exercise it on plain CSPs too.

#ifndef GQD_HOMOMORPHISM_CSP_H_
#define GQD_HOMOMORPHISM_CSP_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bitset.h"
#include "common/budget.h"
#include "common/cancel.h"
#include "common/status.h"

namespace gqd {

/// A binary constraint between two variables: the allowed value pairs as
/// word-padded rows, so AC-3 revises an arc a word at a time. Row a (at
/// rows[a * words_per_row]) holds the b values allowed with a.
struct BinaryConstraint {
  std::size_t var_a;
  std::size_t var_b;
  std::size_t words_per_row;         ///< ⌈domain_size / 64⌉
  std::vector<std::uint64_t> rows;  ///< domain_size rows, padding bits clear

  const std::uint64_t* Row(std::size_t a_value) const {
    return rows.data() + a_value * words_per_row;
  }
  bool Allows(std::uint32_t a_value, std::uint32_t b_value) const {
    return (Row(a_value)[b_value >> 6] >> (b_value & 63)) & 1u;
  }
};

/// A binary CSP over `num_variables` variables sharing one value domain.
struct Csp {
  std::size_t num_variables = 0;
  std::size_t domain_size = 0;
  /// Initial per-variable domains (callers may pre-restrict, e.g. seeds).
  std::vector<DynamicBitset> domains;
  std::vector<BinaryConstraint> constraints;
  /// Per variable, the indices of its constraints (kept by AddConstraint).
  std::vector<std::vector<std::size_t>> incidence;

  /// Creates a CSP with full domains.
  static Csp Full(std::size_t num_variables, std::size_t domain_size);

  /// Words per constraint row: ⌈domain_size / 64⌉.
  std::size_t WordsPerRow() const { return (domain_size + 63) / 64; }

  /// Adds a constraint given as domain_size rows of WordsPerRow() words.
  /// Requires var_a ≠ var_b: unary constraints belong in the domains.
  void AddConstraint(std::size_t var_a, std::size_t var_b,
                     std::vector<std::uint64_t> rows);
  /// Adds a constraint given as a domain_size²-bit table, bit
  /// (a_value * domain_size + b_value).
  void AddConstraint(std::size_t var_a, std::size_t var_b,
                     const DynamicBitset& allowed);

  /// Restricts variable `var` to exactly `value`.
  void Pin(std::size_t var, std::uint32_t value);
};

/// Search statistics (exposed for the E9 ablation bench).
struct CspStats {
  std::size_t nodes_expanded = 0;   ///< backtracking tree nodes visited
  std::size_t propagations = 0;     ///< AC-3 arc revisions
};

/// Options controlling the solver.
struct CspOptions {
  bool use_ac3 = true;             ///< propagate with AC-3 at every node
  std::size_t max_nodes = 10'000'000;  ///< search budget
  /// Optional cooperative cancellation: the backtracking search polls this
  /// token and returns Status::DeadlineExceeded once it expires.
  const CancelToken* cancel = nullptr;
  /// Optional resource governance: each expanded node charges one tuple and
  /// the search polls for exhaustion (CSP memory is bounded by search
  /// depth, so only the tuple and wall-clock axes apply here).
  const ResourceBudget* budget = nullptr;
};

/// Finds one solution, or nullopt if none (or OutOfRange if the node budget
/// is exhausted — reported via Status to distinguish "no" from "gave up").
Result<std::optional<std::vector<std::uint32_t>>> SolveCsp(
    const Csp& csp, const CspOptions& options = {}, CspStats* stats = nullptr);

/// As above, searching from `domains` in place of `csp.domains`.
Result<std::optional<std::vector<std::uint32_t>>> SolveCsp(
    const Csp& csp, std::vector<DynamicBitset> domains,
    const CspOptions& options = {}, CspStats* stats = nullptr);

/// Runs AC-3 on `domains` to their greatest arc-consistent subdomain, the
/// fixpoint SolveCsp starts its search from. Returns false when the domain
/// of a constrained variable wipes out. With `changed_var` set, only the
/// arcs at that variable are queued first, which reaches the same fixpoint
/// when `domains` was arc-consistent before `changed_var`'s domain shrank.
bool EnforceArcConsistency(const Csp& csp, std::vector<DynamicBitset>* domains,
                           CspStats* stats = nullptr,
                           std::optional<std::size_t> changed_var = {});

/// Enumerates all solutions (tests/oracles only; exponential).
Result<std::vector<std::vector<std::uint32_t>>> EnumerateCspSolutions(
    const Csp& csp, std::size_t max_solutions = 1'000'000);

}  // namespace gqd

#endif  // GQD_HOMOMORPHISM_CSP_H_
