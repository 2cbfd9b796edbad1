#include "definability/rpq_definability.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <unordered_set>

#include "obs/trace.h"

namespace gqd {

namespace {

/// For S = ∅: BFS over node subsets T_w = {v : some node reaches v by w},
/// starting from T_ε = V. R_w = ∅ iff T_w = ∅, so ∅ is RPQ-definable iff
/// the empty subset is reachable. Each subset is stored once, charged to
/// options.budget as one tuple of ⌈n/64⌉ words plus its bookkeeping, and
/// the walk polls the budget and options.cancel before every expansion. A
/// budget trip or the max_tuples cap ends it with kBudgetExhausted.
Result<RpqDefinabilityResult> FindKillingWord(
    const DataGraph& graph, const KRemDefinabilityOptions& options) {
  GQD_TRACE_SPAN(span, "rpq.killing_word");
  std::size_t n = graph.NumNodes();
  GQD_TRACE_SPAN_ATTR(span, "nodes", n);
  const ResourceBudget* budget = options.budget;
  const std::int64_t subset_bytes = static_cast<std::int64_t>(
      (n + 63) / 64 * sizeof(std::uint64_t) + sizeof(DynamicBitset) +
      2 * sizeof(std::size_t) + sizeof(LabelId));
  std::vector<DynamicBitset> subsets;
  std::vector<std::size_t> parent;
  std::vector<LabelId> incoming;
  // The interner holds indices; hashing and equality read subsets[i].
  auto hash = [&](std::size_t i) { return subsets[i].Hash(); };
  auto equal = [&](std::size_t i, std::size_t j) {
    return subsets[i] == subsets[j];
  };
  std::unordered_set<std::size_t, decltype(hash), decltype(equal)> seen(
      16, hash, equal);
  // Appends `subset` reached from `from` by `a` unless already seen.
  auto add = [&](DynamicBitset subset, std::size_t from, LabelId a) {
    subsets.push_back(std::move(subset));
    if (!seen.insert(subsets.size() - 1).second) {
      subsets.pop_back();
      return false;
    }
    parent.push_back(from);
    incoming.push_back(a);
    if (budget != nullptr) {
      budget->ChargeBytes(subset_bytes);
      budget->ChargeTuples(1);
    }
    return true;
  };
  auto word_to = [&](std::size_t index) {
    std::vector<LabelId> word;
    for (std::size_t at = index; at != 0; at = parent[at]) {
      word.push_back(incoming[at]);
    }
    std::reverse(word.begin(), word.end());
    return word;
  };

  RpqDefinabilityResult result;
  DynamicBitset start(n);
  for (NodeId v = 0; v < n; v++) {
    start.Set(v);
  }
  add(std::move(start), 0, 0);
  for (std::size_t head = 0; head < subsets.size(); head++) {
    if (options.cancel != nullptr && options.cancel->Expired()) {
      return options.cancel->Check();
    }
    bool tripped = budget != nullptr && budget->Exhausted();
    if (tripped || subsets.size() > options.max_tuples) {
      result.verdict = DefinabilityVerdict::kBudgetExhausted;
      result.tuples_explored = subsets.size();
      if (tripped) {
        result.partial =
            PartialProgress{subsets.size(), word_to(head).size(),
                            budget->bytes_peak(), "rpq-killing-word"};
      }
      return result;
    }
    for (LabelId a = 0; a < graph.NumLabels(); a++) {
      DynamicBitset next(n);
      const DynamicBitset& current = subsets[head];
      for (std::size_t v = current.FindNext(0); v < n;
           v = current.FindNext(v + 1)) {
        for (const auto& [label, to] : graph.OutEdges(static_cast<NodeId>(v))) {
          if (label == a) {
            next.Set(to);
          }
        }
      }
      bool empty = next.None();
      if (add(std::move(next), head, a) && empty) {
        result.verdict = DefinabilityVerdict::kDefinable;
        result.empty_relation_witness = word_to(subsets.size() - 1);
        return result;
      }
    }
  }
  result.verdict = DefinabilityVerdict::kNotDefinable;
  return result;
}

/// Shared body, generic over the relation representation (Empty plus
/// whatever `check_krem` needs); `check_krem` runs the k = 0 search.
template <typename Rel, typename CheckKRem>
Result<RpqDefinabilityResult> CheckRpqImpl(
    const DataGraph& graph, const Rel& relation,
    const KRemDefinabilityOptions& options, const CheckKRem& check_krem) {
  if (relation.Empty()) {
    return FindKillingWord(graph, options);
  }
  RpqDefinabilityResult result;
  GQD_ASSIGN_OR_RETURN(KRemDefinabilityResult krem, check_krem());
  result.verdict = krem.verdict;
  result.tuples_explored = krem.tuples_explored;
  result.partial = std::move(krem.partial);
  if (krem.verdict == DefinabilityVerdict::kDefinable) {
    // Pairs solved by one tuple share its block path: convert each distinct
    // path to a word once (keyed by a hash of its letters) and copy it.
    std::unordered_map<std::uint64_t, std::size_t> first_with_word;
    auto same_letters = [](const std::vector<BasicRemBlock>& blocks,
                           const std::vector<LabelId>& word) {
      return std::equal(blocks.begin(), blocks.end(), word.begin(),
                        word.end(),
                        [](const BasicRemBlock& block, LabelId a) {
                          return block.label == a;
                        });
    };
    result.witness_words.reserve(krem.witnesses.size());
    for (const KRemWitness& witness : krem.witnesses) {
      std::uint64_t hash = witness.blocks.size();
      for (const BasicRemBlock& block : witness.blocks) {
        assert(block.store_mask == 0);
        hash = (hash ^ block.label) * 0x100000001b3ull;
      }
      auto [it, fresh] =
          first_with_word.try_emplace(hash, result.witness_words.size());
      std::vector<LabelId> word;
      if (!fresh && same_letters(witness.blocks,
                                 result.witness_words[it->second].second)) {
        word = result.witness_words[it->second].second;
      } else {
        word.reserve(witness.blocks.size());
        for (const BasicRemBlock& block : witness.blocks) {
          word.push_back(block.label);
        }
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
