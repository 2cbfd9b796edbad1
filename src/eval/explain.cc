#include "eval/explain.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "eval/convert.h"
#include "rem/register_automaton.h"

namespace gqd {

namespace {

/// Dense assignment codec (mirrors eval/rem_eval.cc).
class Codec {
 public:
  Codec(std::size_t num_registers, std::size_t num_values)
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

struct Step {
  std::uint64_t parent;
  bool via_letter = false;
  LabelId label = 0;
};

}  // namespace

std::optional<ExplainedPath> ExplainRemPair(const DataGraph& graph,
                                            const RemPtr& expression,
                                            NodeId from, NodeId to) {
  StringInterner labels = graph.labels();
  RegisterAutomaton ra =
      CompileRem(expression, &labels, /*intern_new_labels=*/false);
  Codec codec(ra.num_registers, graph.NumDataValues());
  std::uint64_t codes = codec.NumCodes();

  auto key_of = [&](NodeId v, RaState q, std::uint64_t code) {
    return (static_cast<std::uint64_t>(v) * ra.num_states + q) * codes +
           code;
  };
  auto node_of = [&](std::uint64_t key) {
    return static_cast<NodeId>(key / codes / ra.num_states);
  };
  auto state_of = [&](std::uint64_t key) {
    return static_cast<RaState>((key / codes) % ra.num_states);
  };
  auto code_of = [&](std::uint64_t key) { return key % codes; };

  std::unordered_map<std::uint64_t, Step> parents;
  std::uint64_t start = key_of(
      from, ra.start,
      codec.Encode(RegisterAssignment(ra.num_registers, kEmptyRegister)));
  parents.emplace(start, Step{start, false, 0});

  // Layered BFS: saturate with ε-like moves (store/check), then take one
  // letter step; witnesses are therefore letter-minimal.
  std::vector<std::uint64_t> frontier = {start};
  std::optional<std::uint64_t> accepting;

  auto saturate = [&](std::vector<std::uint64_t> layer) {
    std::vector<std::uint64_t> saturated;
    while (!layer.empty()) {
      std::uint64_t key = layer.back();
      layer.pop_back();
      saturated.push_back(key);
      NodeId v = node_of(key);
      RaState q = state_of(key);
      std::uint32_t value = graph.DataValueOf(v);
      RegisterAssignment assignment = codec.Decode(code_of(key));
      for (const auto& edge : ra.store_edges[q]) {
        RegisterAssignment next = assignment;
        for (std::size_t r : edge.registers) {
          next[r] = value;
        }
        std::uint64_t next_key = key_of(v, edge.to, codec.Encode(next));
        if (parents.emplace(next_key, Step{key, false, 0}).second) {
          layer.push_back(next_key);
        }
      }
      for (const auto& edge : ra.check_edges[q]) {
        if (ConditionSatisfied(edge.condition, value, assignment)) {
          std::uint64_t next_key = key_of(v, edge.to, code_of(key));
          if (parents.emplace(next_key, Step{key, false, 0}).second) {
            layer.push_back(next_key);
          }
        }
      }
    }
    return saturated;
  };

  frontier = saturate(std::move(frontier));
  while (true) {
    for (std::uint64_t key : frontier) {
      if (node_of(key) == to && state_of(key) == ra.accept) {
        accepting = key;
        break;
      }
    }
    if (accepting.has_value()) {
      break;
    }
    std::vector<std::uint64_t> next_layer;
    for (std::uint64_t key : frontier) {
      NodeId v = node_of(key);
      RaState q = state_of(key);
      for (const auto& edge : ra.letter_edges[q]) {
        for (const auto& [edge_label, w] : graph.OutEdges(v)) {
          if (edge_label == edge.label) {
            std::uint64_t next_key = key_of(w, edge.to, code_of(key));
            if (parents.emplace(next_key, Step{key, true, edge.label})
                    .second) {
              next_layer.push_back(next_key);
            }
          }
        }
      }
    }
    if (next_layer.empty()) {
      return std::nullopt;
    }
    frontier = saturate(std::move(next_layer));
  }

  // Reconstruct the node/label path by walking parents.
  ExplainedPath path;
  std::uint64_t at = *accepting;
  path.nodes.push_back(node_of(at));
  while (at != start) {
    const Step& step = parents.at(at);
    if (step.via_letter) {
      path.labels.push_back(step.label);
      path.nodes.push_back(node_of(step.parent));
    }
    at = step.parent;
  }
  std::reverse(path.nodes.begin(), path.nodes.end());
  std::reverse(path.labels.begin(), path.labels.end());
  auto data_path = DataPathOfNodePath(graph, path.nodes, path.labels);
  assert(data_path.ok());
  path.data_path = std::move(data_path).value();
  return path;
}

std::optional<ExplainedPath> ExplainRpqPair(const DataGraph& graph,
                                            const RegexPtr& expression,
                                            NodeId from, NodeId to) {
  return ExplainRemPair(graph, RegexToRem(expression), from, to);
}

std::optional<ExplainedPath> ExplainReePair(const DataGraph& graph,
                                            const ReePtr& expression,
                                            NodeId from, NodeId to) {
  return ExplainRemPair(graph, ReeToRem(expression), from, to);
}

std::optional<ExplainedPath> ExplainPathPair(const DataGraph& graph,
                                             const PathExpression& expression,
                                             NodeId from, NodeId to) {
  return std::visit(
      Overloaded{[&](const RegexPtr& e) {
                   return ExplainRpqPair(graph, e, from, to);
                 },
                 [&](const RemPtr& e) {
                   return ExplainRemPair(graph, e, from, to);
                 },
                 [&](const ReePtr& e) {
                   return ExplainReePair(graph, e, from, to);
                 }},
      expression);
}

}  // namespace gqd
