#include "oracles/naive_semantics.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <vector>

namespace gqd {

namespace {

/// Enumerates every assignment over the path's distinct values plus ⊥.
std::vector<RegisterAssignment> AllAssignments(const DataPath& path,
                                               std::size_t k) {
  std::vector<std::uint32_t> values;
  for (ValueId v : path.values) {
    if (std::find(values.begin(), values.end(), v) == values.end()) {
      values.push_back(v);
    }
  }
  values.push_back(kEmptyRegister);
  std::vector<RegisterAssignment> out;
  RegisterAssignment current(k, kEmptyRegister);
  std::vector<std::size_t> index(k, 0);
  while (true) {
    for (std::size_t r = 0; r < k; r++) {
      current[r] = values[index[r]];
    }
    out.push_back(current);
    std::size_t r = 0;
    while (r < k && ++index[r] == values.size()) {
      index[r] = 0;
      r++;
    }
    if (r == k) {
      break;
    }
  }
  if (k == 0) {
    out.assign(1, RegisterAssignment{});
  }
  return out;
}

/// Tables indexed by (i, j): the ⊢ relation for the subpath w[i..j].
class Table {
 public:
  explicit Table(std::size_t positions)
      : positions_(positions), cells_(positions * positions) {}

  AssignmentRelation& At(std::size_t i, std::size_t j) {
    return cells_[i * positions_ + j];
  }
  const AssignmentRelation& At(std::size_t i, std::size_t j) const {
    return cells_[i * positions_ + j];
  }
  std::size_t positions() const { return positions_; }

 private:
  std::size_t positions_;
  std::vector<AssignmentRelation> cells_;
};

/// R1 ∘ R2 as relations on assignments.
AssignmentRelation ComposeRelations(const AssignmentRelation& r1,
                                    const AssignmentRelation& r2) {
  AssignmentRelation out;
  for (const auto& [a, b] : r1) {
    for (const auto& [c, d] : r2) {
      if (b == c) {
        out.insert({a, d});
      }
    }
  }
  return out;
}

Table Evaluate(const RemPtr& node, const DataPath& path,
               const StringInterner& labels, std::size_t k) {
  std::size_t positions = path.values.size();
  Table table(positions);
  switch (node->kind) {
    case RemKind::kEpsilon:
      // (ε, w, σ) ⊢ σ' iff w = d and σ = σ'.
      for (std::size_t i = 0; i < positions; i++) {
        for (const RegisterAssignment& sigma : AllAssignments(path, k)) {
          table.At(i, i).insert({sigma, sigma});
        }
      }
      break;
    case RemKind::kLetter: {
      // (a, w, σ) ⊢ σ' iff w = d1 a d2 and σ' = σ.
      auto id = labels.Find(node->letter);
      if (!id.has_value()) {
        break;
      }
      for (std::size_t i = 0; i + 1 < positions; i++) {
        if (path.letters[i] != *id) {
          continue;
        }
        for (const RegisterAssignment& sigma : AllAssignments(path, k)) {
          table.At(i, i + 1).insert({sigma, sigma});
        }
      }
      break;
    }
    case RemKind::kUnion:
      for (const RemPtr& child : node->children) {
        Table sub = Evaluate(child, path, labels, k);
        for (std::size_t i = 0; i < positions; i++) {
          for (std::size_t j = 0; j < positions; j++) {
            for (const AssignmentPair& p : sub.At(i, j)) {
              table.At(i, j).insert(p);
            }
          }
        }
      }
      break;
    case RemKind::kConcat: {
      assert(!node->children.empty());
      table = Evaluate(node->children[0], path, labels, k);
      for (std::size_t c = 1; c < node->children.size(); c++) {
        Table rhs = Evaluate(node->children[c], path, labels, k);
        Table next(positions);
        for (std::size_t i = 0; i < positions; i++) {
          for (std::size_t mid = 0; mid < positions; mid++) {
            if (table.At(i, mid).empty()) {
              continue;
            }
            for (std::size_t j = 0; j < positions; j++) {
              AssignmentRelation composed =
                  ComposeRelations(table.At(i, mid), rhs.At(mid, j));
              for (const AssignmentPair& p : composed) {
                next.At(i, j).insert(p);
              }
            }
          }
        }
        table = std::move(next);
      }
      break;
    }
    case RemKind::kPlus: {
      // (e+, w, σ) ⊢ σ': least fixpoint of R ∪ R∘R⁺ over subpath splits.
      Table base = Evaluate(node->children[0], path, labels, k);
      table = base;
      bool changed = true;
      while (changed) {
        changed = false;
        for (std::size_t i = 0; i < positions; i++) {
          for (std::size_t mid = 0; mid < positions; mid++) {
            if (base.At(i, mid).empty()) {
              continue;
            }
            for (std::size_t j = 0; j < positions; j++) {
              AssignmentRelation composed =
                  ComposeRelations(base.At(i, mid), table.At(mid, j));
              for (const AssignmentPair& p : composed) {
                if (table.At(i, j).insert(p).second) {
                  changed = true;
                }
              }
            }
          }
        }
      }
      break;
    }
    case RemKind::kCondition: {
      // (e[c], w, σ) ⊢ σ' iff (e, w, σ) ⊢ σ' and σ', d_last ⊨ c.
      Table sub = Evaluate(node->children[0], path, labels, k);
      for (std::size_t i = 0; i < positions; i++) {
        for (std::size_t j = 0; j < positions; j++) {
          for (const AssignmentPair& p : sub.At(i, j)) {
            if (ConditionSatisfied(node->condition, path.values[j],
                                   p.second)) {
              table.At(i, j).insert(p);
            }
          }
        }
      }
      break;
    }
    case RemKind::kBind: {
      // (↓r̄.e, w, σ) ⊢ σ' iff (e, w, σ[r̄ → d_first]) ⊢ σ'.
      Table sub = Evaluate(node->children[0], path, labels, k);
      for (std::size_t i = 0; i < positions; i++) {
        for (std::size_t j = 0; j < positions; j++) {
          for (const RegisterAssignment& sigma : AllAssignments(path, k)) {
            RegisterAssignment stored = sigma;
            for (std::size_t r : node->registers) {
              stored[r] = path.values[i];
            }
            for (const AssignmentPair& p : sub.At(i, j)) {
              if (p.first == stored) {
                table.At(i, j).insert({sigma, p.second});
              }
            }
          }
        }
      }
      break;
    }
  }
  return table;
}

}  // namespace

bool NaiveRemMatches(const RemPtr& expression, const DataPath& path,
                     const StringInterner& labels) {
  std::size_t k = RemNumRegisters(expression);
  Table table = Evaluate(expression, path, labels, k);
  RegisterAssignment bottom(k, kEmptyRegister);
  for (const AssignmentPair& p :
       table.At(0, path.values.size() - 1)) {
    if (p.first == bottom) {
      return true;
    }
  }
  return false;
}

}  // namespace gqd
