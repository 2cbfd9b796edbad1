#include "eval/rem_eval.h"

#include <cstdint>
#include <queue>
#include <unordered_set>
#include <vector>

#include "analysis/plan/automaton_analysis.h"
#include "obs/trace.h"
#include "rem/register_automaton.h"

namespace gqd {

namespace {

/// Dense encoding of register assignments over D_G ∪ {⊥}: each register
/// takes one of δ+1 codes (δ = the ⊥ code).
class AssignmentCodec {
 public:
  AssignmentCodec(std::size_t num_registers, std::size_t num_values)
      : num_registers_(num_registers), base_(num_values + 1) {}

  std::uint64_t Encode(const RegisterAssignment& assignment) const {
    std::uint64_t code = 0;
    for (std::size_t i = num_registers_; i-- > 0;) {
      std::uint64_t digit = (assignment[i] == kEmptyRegister)
                                ? (base_ - 1)
                                : assignment[i];
      code = code * base_ + digit;
    }
    return code;
  }

  RegisterAssignment Decode(std::uint64_t code) const {
    RegisterAssignment assignment(num_registers_);
    for (std::size_t i = 0; i < num_registers_; i++) {
      std::uint64_t digit = code % base_;
      assignment[i] = (digit == base_ - 1)
                          ? kEmptyRegister
                          : static_cast<std::uint32_t>(digit);
      code /= base_;
    }
    return assignment;
  }

  std::uint64_t NumCodes() const {
    std::uint64_t total = 1;
    for (std::size_t i = 0; i < num_registers_; i++) {
      total *= base_;
    }
    return total;
  }

 private:
  std::size_t num_registers_;
  std::uint64_t base_;
};

/// Configuration BFS shared by all entry points, over an already-compiled
/// (and typically plan-pruned) automaton. `cancel` may be null; with a
/// token the search polls it (stride-amortized) and reports expiry.
Result<BinaryRelation> EvaluateRemImpl(const DataGraph& graph,
                                       const RegisterAutomaton& ra,
                                       const CancelToken* cancel,
                                       const ResourceBudget* budget) {
  GQD_TRACE_SPAN(span, "eval.rem");
  std::size_t n = graph.NumNodes();
  AssignmentCodec codec(ra.num_registers, graph.NumDataValues());
  GQD_TRACE_SPAN_ATTR(span, "nodes", n);
  GQD_TRACE_SPAN_ATTR(span, "registers", ra.num_registers);
  BinaryRelation result(n);
  std::uint32_t ticks = 0;
  std::uint32_t budget_ticks = 0;

  struct Config {
    NodeId node;
    RaState state;
    std::uint64_t assignment_code;
  };

  std::uint64_t assignment_codes = codec.NumCodes();
  for (NodeId u = 0; u < n; u++) {
    std::unordered_set<std::uint64_t> seen;
    std::queue<Config> frontier;
    auto visit = [&](NodeId v, RaState q, std::uint64_t code) {
      std::uint64_t key =
          (static_cast<std::uint64_t>(v) * ra.num_states + q) *
              assignment_codes +
          code;
      if (seen.insert(key).second) {
        if (budget != nullptr) {
          // Each retained configuration costs a hash-set node plus the
          // queued Config (the PSPACE blow-up axis of REM evaluation).
          budget->ChargeTuples(1);
          budget->ChargeBytes(static_cast<std::int64_t>(
              sizeof(std::uint64_t) + sizeof(Config)));
        }
        frontier.push(Config{v, q, code});
      }
    };
    visit(u, ra.start,
          codec.Encode(RegisterAssignment(ra.num_registers, kEmptyRegister)));
    while (!frontier.empty()) {
      if (GQD_CANCEL_STRIDE_CHECK(cancel, ticks)) {
        return cancel->Check();
      }
      if (GQD_BUDGET_STRIDE_CHECK(budget, budget_ticks)) {
        return budget->Check();
      }
      Config c = frontier.front();
      frontier.pop();
      if (c.state == ra.accept) {
        result.Set(u, c.node);
      }
      std::uint32_t value = graph.DataValueOf(c.node);
      RegisterAssignment assignment = codec.Decode(c.assignment_code);
      for (const auto& edge : ra.store_edges[c.state]) {
        RegisterAssignment next = assignment;
        for (std::size_t r : edge.registers) {
          next[r] = value;
        }
        visit(c.node, edge.to, codec.Encode(next));
      }
      for (const auto& edge : ra.check_edges[c.state]) {
        if (ConditionSatisfied(edge.condition, value, assignment)) {
          visit(c.node, edge.to, c.assignment_code);
        }
      }
      for (const auto& edge : ra.letter_edges[c.state]) {
        for (const auto& [edge_label, w] : graph.OutEdges(c.node)) {
          if (edge_label == edge.label) {
            visit(w, edge.to, c.assignment_code);
          }
        }
      }
    }
  }
  // The strided polls can miss a small search's overrun; this one cannot.
  if (budget != nullptr) {
    GQD_RETURN_NOT_OK(budget->Check());
  }
  return result;
}

/// Compiles against the graph's alphabet and applies the plan pass's
/// language-preserving automaton reduction before the BFS.
RegisterAutomaton CompileAndPrune(const DataGraph& graph,
                                  const RemPtr& expression) {
  StringInterner labels = graph.labels();
  RegisterAutomaton ra =
      CompileRem(expression, &labels, /*intern_new_labels=*/false);
  return PruneAutomaton(ra, AnalyzeAutomaton(ra));
}

}  // namespace

BinaryRelation EvaluateRem(const DataGraph& graph, const RemPtr& expression) {
  return EvaluateRemImpl(graph, CompileAndPrune(graph, expression), nullptr,
                         nullptr)
      .ValueOrDie();
}

Result<BinaryRelation> EvaluateRem(const DataGraph& graph,
                                   const RemPtr& expression,
                                   const EvalOptions& options) {
  return EvaluateRemImpl(graph, CompileAndPrune(graph, expression),
                         options.cancel, options.budget);
}

Result<BinaryRelation> EvaluateRemAutomaton(const DataGraph& graph,
                                            const RegisterAutomaton& automaton,
                                            const EvalOptions& options) {
  return EvaluateRemImpl(graph, automaton, options.cancel, options.budget);
}

}  // namespace gqd
