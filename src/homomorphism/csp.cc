#include "homomorphism/csp.h"

#include <algorithm>
#include <cassert>
#include <queue>

#include "common/failpoint.h"
#include "obs/trace.h"

namespace gqd {

namespace {
GQD_FAILPOINT_DEFINE(fp_csp_search, "csp.search");
}  // namespace

Csp Csp::Full(std::size_t num_variables, std::size_t domain_size) {
  Csp csp;
  csp.num_variables = num_variables;
  csp.domain_size = domain_size;
  DynamicBitset full(domain_size);
  for (std::size_t v = 0; v < domain_size; v++) {
    full.Set(v);
  }
  csp.domains.assign(num_variables, full);
  csp.incidence.resize(num_variables);
  return csp;
}

void Csp::AddConstraint(std::size_t var_a, std::size_t var_b,
                        std::vector<std::uint64_t> rows) {
  assert(var_a != var_b);
  assert(rows.size() == domain_size * WordsPerRow());
  incidence[var_a].push_back(constraints.size());
  incidence[var_b].push_back(constraints.size());
  constraints.push_back(
      BinaryConstraint{var_a, var_b, WordsPerRow(), std::move(rows)});
}

void Csp::AddConstraint(std::size_t var_a, std::size_t var_b,
                        const DynamicBitset& allowed) {
  assert(allowed.size() == domain_size * domain_size);
  const std::size_t words = WordsPerRow();
  std::vector<std::uint64_t> rows(domain_size * words, 0);
  for (std::size_t bit = allowed.FindNext(0); bit < allowed.size();
       bit = allowed.FindNext(bit + 1)) {
    std::size_t b = bit % domain_size;
    rows[bit / domain_size * words + (b >> 6)] |= std::uint64_t{1} << (b & 63);
  }
  AddConstraint(var_a, var_b, std::move(rows));
}

void Csp::Pin(std::size_t var, std::uint32_t value) {
  DynamicBitset single(domain_size);
  single.Set(value);
  domains[var] &= single;
}

namespace {

/// Removes from dom(var_a) the values a whose row misses dom(var_b).
/// Returns true if dom(var_a) changed.
bool Revise(const BinaryConstraint& constraint,
            std::vector<DynamicBitset>* domains, CspStats* stats) {
  bool changed = false;
  DynamicBitset& dom_a = (*domains)[constraint.var_a];
  const std::uint64_t* dom_b = (*domains)[constraint.var_b].words().data();
  const std::size_t words = constraint.words_per_row;
  for (std::size_t a = dom_a.FindNext(0); a < dom_a.size();
       a = dom_a.FindNext(a + 1)) {
    const std::uint64_t* row = constraint.Row(a);
    bool supported = false;
    for (std::size_t w = 0; w < words && !supported; w++) {
      supported = (row[w] & dom_b[w]) != 0;
    }
    if (!supported) {
      dom_a.Reset(a);
      changed = true;
    }
  }
  if (stats != nullptr) {
    stats->propagations++;
  }
  return changed;
}

/// Reverse-oriented Revise: dom(var_b) &= ⋃_{a ∈ dom(var_a)} row_a, with
/// the union built in `support`. Returns true if dom(var_b) changed.
bool ReviseReverse(const BinaryConstraint& constraint,
                   std::vector<DynamicBitset>* domains,
                   std::vector<std::uint64_t>* support, CspStats* stats) {
  const DynamicBitset& dom_a = (*domains)[constraint.var_a];
  std::vector<std::uint64_t>& dom_b =
      (*domains)[constraint.var_b].mutable_words();
  const std::size_t words = constraint.words_per_row;
  support->assign(words, 0);
  for (std::size_t a = dom_a.FindNext(0); a < dom_a.size();
       a = dom_a.FindNext(a + 1)) {
    const std::uint64_t* row = constraint.Row(a);
    for (std::size_t w = 0; w < words; w++) {
      (*support)[w] |= row[w];
    }
  }
  std::uint64_t removed = 0;
  for (std::size_t w = 0; w < words; w++) {
    removed |= dom_b[w] & ~(*support)[w];
    dom_b[w] &= (*support)[w];
  }
  if (stats != nullptr) {
    stats->propagations++;
  }
  return removed != 0;
}

/// AC-3 to a fixpoint from a worklist of constraint indices. Returns false
/// if some domain wiped out.
bool Ac3(const Csp& csp, const std::vector<std::size_t>* initial,
         std::vector<DynamicBitset>* domains, CspStats* stats) {
  std::queue<std::size_t> work;
  std::vector<bool> queued(csp.constraints.size(), false);
  auto enqueue = [&](std::size_t index) {
    if (!queued[index]) {
      work.push(index);
      queued[index] = true;
    }
  };
  if (initial == nullptr) {
    for (std::size_t i = 0; i < csp.constraints.size(); i++) {
      enqueue(i);
    }
  } else {
    for (std::size_t i : *initial) {
      enqueue(i);
    }
  }
  std::vector<std::uint64_t> support;
  while (!work.empty()) {
    std::size_t index = work.front();
    work.pop();
    queued[index] = false;
    const BinaryConstraint& constraint = csp.constraints[index];
    bool changed_a = Revise(constraint, domains, stats);
    bool changed_b = ReviseReverse(constraint, domains, &support, stats);
    if ((*domains)[constraint.var_a].None() ||
        (*domains)[constraint.var_b].None()) {
      return false;
    }
    if (changed_a || changed_b) {
      for (std::size_t var : {constraint.var_a, constraint.var_b}) {
        for (std::size_t other : csp.incidence[var]) {
          enqueue(other);
        }
      }
    }
  }
  return true;
}

/// Checks constraints among singleton domains only (used when AC-3 is off).
bool SingletonsConsistent(const Csp& csp,
                          const std::vector<DynamicBitset>& domains) {
  for (const BinaryConstraint& constraint : csp.constraints) {
    const DynamicBitset& dom_a = domains[constraint.var_a];
    const DynamicBitset& dom_b = domains[constraint.var_b];
    if (dom_a.Count() == 1 && dom_b.Count() == 1) {
      std::uint32_t a = static_cast<std::uint32_t>(dom_a.FindNext(0));
      std::uint32_t b = static_cast<std::uint32_t>(dom_b.FindNext(0));
      if (!constraint.Allows(a, b)) {
        return false;
      }
    }
  }
  return true;
}

struct Searcher {
  const Csp& csp;
  const CspOptions& options;
  CspStats* stats;
  std::vector<std::vector<std::uint32_t>>* all_solutions = nullptr;
  std::size_t max_solutions = 1;
  bool budget_exhausted = false;
  bool resource_tripped = false;
  bool injected = false;
  bool cancelled = false;
  std::uint32_t cancel_ticks = 0;
  std::uint32_t budget_ticks = 0;

  Searcher(const Csp& c, const CspOptions& o, CspStats* s)
      : csp(c), options(o), stats(s) {}

  /// Returns true when the search should stop (enough solutions found).
  bool Search(std::vector<DynamicBitset> domains) {
    if (GQD_FAILPOINT_FIRED(fp_csp_search)) {
      injected = true;
      return true;
    }
    if (GQD_CANCEL_STRIDE_CHECK(options.cancel, cancel_ticks)) {
      cancelled = true;
      return true;
    }
    if (options.budget != nullptr) {
      options.budget->ChargeTuples(1);
      if (GQD_BUDGET_STRIDE_CHECK(options.budget, budget_ticks)) {
        resource_tripped = true;
        return true;
      }
    }
    if (stats != nullptr) {
      if (++stats->nodes_expanded > options.max_nodes) {
        budget_exhausted = true;
        return true;
      }
    }
    // MRV: smallest non-singleton domain.
    std::size_t best_var = csp.num_variables;
    std::size_t best_size = 0;
    for (std::size_t v = 0; v < csp.num_variables; v++) {
      std::size_t size = domains[v].Count();
      if (size == 0) {
        return false;
      }
      if (size > 1 && (best_var == csp.num_variables || size < best_size)) {
        best_var = v;
        best_size = size;
      }
    }
    if (best_var == csp.num_variables) {
      // All singletons: a candidate solution.
      if (!options.use_ac3 && !SingletonsConsistent(csp, domains)) {
        return false;
      }
      std::vector<std::uint32_t> solution(csp.num_variables);
      for (std::size_t v = 0; v < csp.num_variables; v++) {
        solution[v] = static_cast<std::uint32_t>(domains[v].FindNext(0));
      }
      all_solutions->push_back(std::move(solution));
      return all_solutions->size() >= max_solutions;
    }
    const DynamicBitset values = domains[best_var];
    for (std::size_t value = values.FindNext(0); value < csp.domain_size;
         value = values.FindNext(value + 1)) {
      std::vector<DynamicBitset> child = domains;
      child[best_var].Clear();
      child[best_var].Set(value);
      if (options.use_ac3) {
        if (!Ac3(csp, nullptr, &child, stats)) {
          continue;
        }
      } else if (!SingletonsConsistent(csp, child)) {
        continue;
      }
      if (Search(std::move(child))) {
        return true;
      }
    }
    return false;
  }
};

}  // namespace

Result<std::optional<std::vector<std::uint32_t>>> SolveCsp(
    const Csp& csp, const CspOptions& options, CspStats* stats) {
  return SolveCsp(csp, csp.domains, options, stats);
}

Result<std::optional<std::vector<std::uint32_t>>> SolveCsp(
    const Csp& csp, std::vector<DynamicBitset> domains,
    const CspOptions& options, CspStats* stats) {
  CspStats local_stats;
  if (stats == nullptr) {
    stats = &local_stats;
  }
  GQD_TRACE_SPAN(span, "csp.solve");
  GQD_TRACE_SPAN_ATTR(span, "variables", domains.size());
  // Stats pointers are often shared across seeds; attribute only this
  // solve's delta to the span.
  std::size_t nodes_before = stats->nodes_expanded;
  std::size_t props_before = stats->propagations;
  Searcher searcher(csp, options, stats);
  std::vector<std::vector<std::uint32_t>> solutions;
  searcher.all_solutions = &solutions;
  searcher.max_solutions = 1;
  if (options.use_ac3 && !Ac3(csp, nullptr, &domains, stats)) {
    return std::optional<std::vector<std::uint32_t>>();
  }
  searcher.Search(std::move(domains));
  GQD_TRACE_SPAN_ATTR(span, "nodes_expanded",
                      stats->nodes_expanded - nodes_before);
  GQD_TRACE_SPAN_ATTR(span, "propagations",
                      stats->propagations - props_before);
  if (searcher.injected && solutions.empty()) {
    return Status::ResourceExhausted(
        "injected CSP search failure (failpoint csp.search)");
  }
  if (searcher.cancelled && solutions.empty()) {
    return options.cancel->Check();
  }
  if (searcher.resource_tripped && solutions.empty()) {
    return options.budget->Check();
  }
  if (searcher.budget_exhausted && solutions.empty()) {
    return Status::ResourceExhausted("CSP node budget exhausted");
  }
  if (solutions.empty()) {
    return std::optional<std::vector<std::uint32_t>>();
  }
  return std::optional<std::vector<std::uint32_t>>(std::move(solutions[0]));
}

bool EnforceArcConsistency(const Csp& csp, std::vector<DynamicBitset>* domains,
                           CspStats* stats,
                           std::optional<std::size_t> changed_var) {
  return Ac3(csp,
             changed_var.has_value() ? &csp.incidence[*changed_var] : nullptr,
             domains, stats);
}

Result<std::vector<std::vector<std::uint32_t>>> EnumerateCspSolutions(
    const Csp& csp, std::size_t max_solutions) {
  CspStats stats;
  CspOptions options;
  Searcher searcher(csp, options, &stats);
  std::vector<std::vector<std::uint32_t>> solutions;
  searcher.all_solutions = &solutions;
  searcher.max_solutions = max_solutions;
  std::vector<DynamicBitset> domains = csp.domains;
  if (!Ac3(csp, nullptr, &domains, &stats)) {
    return solutions;
  }
  searcher.Search(std::move(domains));
  if (searcher.injected) {
    return Status::ResourceExhausted(
        "injected CSP search failure (failpoint csp.search)");
  }
  if (searcher.cancelled) {
    return options.cancel->Check();
  }
  if (searcher.budget_exhausted) {
    return Status::ResourceExhausted("CSP node budget exhausted");
  }
  return solutions;
}

}  // namespace gqd
