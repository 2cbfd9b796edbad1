#include "definability/rpq_definability.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "obs/trace.h"

namespace gqd {

namespace {

/// For S = ∅: BFS over node subsets T_w = {v : some node reaches v by w},
/// starting from T_ε = V. R_w = ∅ iff T_w = ∅, so ∅ is RPQ-definable iff
/// the empty subset is reachable.
std::optional<std::vector<LabelId>> FindKillingWord(
    const DataGraph& graph, std::size_t max_subsets) {
  GQD_TRACE_SPAN(span, "rpq.killing_word");
  std::size_t n = graph.NumNodes();
  GQD_TRACE_SPAN_ATTR(span, "nodes", n);
  DynamicBitset start(n);
  for (NodeId v = 0; v < n; v++) {
    start.Set(v);
  }
  std::vector<DynamicBitset> subsets = {start};
  std::vector<std::size_t> parent = {0};
  std::vector<LabelId> incoming = {0};
  std::unordered_map<DynamicBitset, std::size_t, DynamicBitsetHash> seen;
  seen.emplace(start, 0);
  for (std::size_t head = 0; head < subsets.size(); head++) {
    if (subsets.size() > max_subsets) {
      return std::nullopt;  // budget; callers treat as "not found"
    }
    for (LabelId a = 0; a < graph.NumLabels(); a++) {
      DynamicBitset next(n);
      const DynamicBitset current = subsets[head];
      for (std::size_t v = current.FindNext(0); v < n;
           v = current.FindNext(v + 1)) {
        for (const auto& [label, to] : graph.OutEdges(static_cast<NodeId>(v))) {
          if (label == a) {
            next.Set(to);
          }
        }
      }
      bool empty = next.None();
      auto [it, inserted] = seen.emplace(std::move(next), subsets.size());
      if (inserted) {
        subsets.push_back(it->first);
        parent.push_back(head);
        incoming.push_back(a);
        if (empty) {
          // Reconstruct the word.
          std::vector<LabelId> word;
          for (std::size_t at = subsets.size() - 1; at != 0;
               at = parent[at]) {
            word.push_back(incoming[at]);
          }
          std::reverse(word.begin(), word.end());
          return word;
        }
      }
    }
  }
  return std::nullopt;
}

/// Shared body, generic over the relation representation (Empty plus
/// whatever `check_krem` needs); `check_krem` runs the k = 0 search.
template <typename Rel, typename CheckKRem>
Result<RpqDefinabilityResult> CheckRpqImpl(
    const DataGraph& graph, const Rel& relation,
    const KRemDefinabilityOptions& options, const CheckKRem& check_krem) {
  RpqDefinabilityResult result;
  if (relation.Empty()) {
    auto word = FindKillingWord(graph, options.max_tuples);
    if (word.has_value()) {
      result.verdict = DefinabilityVerdict::kDefinable;
      result.empty_relation_witness = std::move(word);
    } else {
      // Either truly unreachable or budget-bound; the subset space is 2^n,
      // which max_tuples covers for the sizes this library targets.
      result.verdict = DefinabilityVerdict::kNotDefinable;
    }
    return result;
  }
  GQD_ASSIGN_OR_RETURN(KRemDefinabilityResult krem, check_krem());
  result.verdict = krem.verdict;
  result.tuples_explored = krem.tuples_explored;
  result.partial = std::move(krem.partial);
  if (krem.verdict == DefinabilityVerdict::kDefinable) {
    for (const KRemWitness& witness : krem.witnesses) {
      std::vector<LabelId> word;
      for (const BasicRemBlock& block : witness.blocks) {
        assert(block.store_mask == 0);
        word.push_back(block.label);
      }
      result.witness_words.push_back(
          {{witness.from, witness.to}, std::move(word)});
    }
  }
  return result;
}

}  // namespace

Result<RpqDefinabilityResult> CheckRpqDefinability(
    const DataGraph& graph, const BinaryRelation& relation,
    const KRemDefinabilityOptions& options) {
  return CheckRpqImpl(graph, relation, options, [&] {
    return CheckKRemDefinability(graph, relation, /*k=*/0, options);
  });
}

Result<RpqDefinabilityResult> CheckRpqDefinability(
    const DataGraph& graph, const AdaptiveRelation& relation,
    const KRemDefinabilityOptions& options) {
  return CheckRpqImpl(graph, relation, options, [&] {
    return CheckKRemDefinability(graph, relation, /*k=*/0, options);
  });
}

Result<RpqDefinabilityResult> CheckRpqDefinability(
    const KRemSetup& setup, const DataGraph& graph,
    const AdaptiveRelation& relation,
    const KRemDefinabilityOptions& options) {
  if (setup.k() != 0) {
    return Status::InvalidArgument("RPQ checks need a k = 0 setup");
  }
  return CheckRpqImpl(graph, relation, options, [&] {
    return CheckKRemDefinability(setup, graph, relation, options);
  });
}

RegexPtr RegexFromWitnesses(const RpqDefinabilityResult& result,
                            const StringInterner& labels) {
  auto word_to_regex = [&](const std::vector<LabelId>& word) -> RegexPtr {
    if (word.empty()) {
      return re::Epsilon();
    }
    std::vector<RegexPtr> letters;
    letters.reserve(word.size());
    for (LabelId a : word) {
      letters.push_back(re::Letter(labels.NameOf(a)));
    }
    return re::Concat(std::move(letters));
  };
  if (result.empty_relation_witness.has_value()) {
    return word_to_regex(*result.empty_relation_witness);
  }
  assert(!result.witness_words.empty());
  // Different pairs often share a witness word; dedupe the union branches.
  std::vector<std::vector<LabelId>> distinct;
  std::vector<RegexPtr> parts;
  for (const auto& [pair, word] : result.witness_words) {
    if (std::find(distinct.begin(), distinct.end(), word) ==
        distinct.end()) {
      distinct.push_back(word);
      parts.push_back(word_to_regex(word));
    }
  }
  return re::Union(std::move(parts));
}

}  // namespace gqd
