#include "graph/sparse_relation.h"

#include <algorithm>
#include <cassert>
#include <functional>

namespace gqd {

namespace {

/// Sorts row-major and removes duplicate pairs — the canonical pair order
/// every representation builds from and emits. Input that is already
/// canonical (strictly increasing) costs one linear check.
void CanonicalizePairs(std::vector<std::pair<NodeId, NodeId>>* pairs) {
  if (std::adjacent_find(pairs->begin(), pairs->end(),
                         std::greater_equal<>()) == pairs->end()) {
    return;
  }
  std::sort(pairs->begin(), pairs->end());
  pairs->erase(std::unique(pairs->begin(), pairs->end()), pairs->end());
}

}  // namespace

const char* RelationBackendName(RelationBackend backend) {
  switch (backend) {
    case RelationBackend::kAuto:
      return "auto";
    case RelationBackend::kDense:
      return "dense";
    case RelationBackend::kSparse:
      return "sparse";
    case RelationBackend::kBlocked:
      return "blocked";
  }
  return "unknown";
}

bool ParseRelationBackend(const std::string& name, RelationBackend* out) {
  if (name == "auto") {
    *out = RelationBackend::kAuto;
  } else if (name == "dense") {
    *out = RelationBackend::kDense;
  } else if (name == "sparse") {
    *out = RelationBackend::kSparse;
  } else if (name == "blocked") {
    *out = RelationBackend::kBlocked;
  } else {
    return false;
  }
  return true;
}

RelationBackend ChooseRelationBackend(std::size_t n, std::size_t nnz) {
  // Small matrices are cheap in absolute terms and the dense word-parallel
  // kernels are the fastest engines there.
  if (n <= kDenseRelationMaxNodes) {
    return RelationBackend::kDense;
  }
  // At density ≥ 1/32 the blocked rows are mostly bitmaps anyway, so the
  // dense matrix costs no more and keeps the fast kernels.
  if (n != 0 && nnz / n >= n / 32) {
    return RelationBackend::kDense;
  }
  // A handful of entries per row on average: the CSR list wins on both
  // bytes and scan cost.
  if (nnz <= 8 * n) {
    return RelationBackend::kSparse;
  }
  return RelationBackend::kBlocked;
}

std::size_t EstimateRelationBytes(RelationBackend backend, std::size_t n,
                                  std::size_t nnz) {
  switch (backend) {
    case RelationBackend::kAuto:
      return EstimateRelationBytes(ChooseRelationBackend(n, nnz), n, nnz);
    case RelationBackend::kDense:
      // n rows of n bits each.
      return n * ((n + 7) / 8);
    case RelationBackend::kSparse:
      // n+1 u64 offsets plus one u32 per pair.
      return (n + 1) * sizeof(std::uint64_t) + nnz * sizeof(NodeId);
    case RelationBackend::kBlocked: {
      // Worst-case container bytes: each pair costs at most 4 bytes in an
      // array row, and a row never flips to bitmap unless the bitmap is
      // smaller, so min(4·nnz, n·n/8) bounds the payload; add per-row
      // headers.
      std::size_t payload = std::min(nnz * sizeof(NodeId), n * ((n + 7) / 8));
      return payload + n * 32;
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// SparseBinaryRelation

SparseBinaryRelation SparseBinaryRelation::FromPairs(
    std::size_t n, std::vector<std::pair<NodeId, NodeId>> pairs) {
  CanonicalizePairs(&pairs);
  SparseBinaryRelation rel;
  rel.n_ = n;
  rel.offsets_.assign(n + 1, 0);
  rel.cols_.resize(pairs.size());
  for (const auto& [u, v] : pairs) {
    assert(u < n && v < n);
    rel.offsets_[u + 1]++;
  }
  for (std::size_t u = 0; u < n; ++u) {
    rel.offsets_[u + 1] += rel.offsets_[u];
  }
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    rel.cols_[i] = pairs[i].second;  // pairs are row-major sorted already
  }
  return rel;
}

std::vector<std::pair<NodeId, NodeId>> SparseBinaryRelation::Pairs() const {
  std::vector<std::pair<NodeId, NodeId>> out;
  out.reserve(cols_.size());
  for (std::size_t u = 0; u < n_; ++u) {
    for (std::size_t i = offsets_[u]; i < offsets_[u + 1]; ++i) {
      out.emplace_back(static_cast<NodeId>(u), cols_[i]);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// BlockedBinaryRelation

void BlockedBinaryRelation::SetRowFromSortedArray(NodeId u,
                                                  std::vector<NodeId> sorted) {
  Row& row = rows_[u];
  nnz_ -= RowDegree(u);
  if (sorted.size() > ArrayThreshold(n_)) {
    row.is_bitmap = true;
    row.card = sorted.size();
    row.bits = DynamicBitset(n_);
    for (NodeId v : sorted) {
      row.bits.Set(v);
    }
    row.array.clear();
    row.array.shrink_to_fit();
  } else {
    row.is_bitmap = false;
    row.card = 0;
    row.array = std::move(sorted);
    row.bits = DynamicBitset();
  }
  nnz_ += RowDegree(u);
}

void BlockedBinaryRelation::SetRowFromBitset(NodeId u,
                                             const DynamicBitset& scratch) {
  std::size_t card = scratch.Count();
  Row& row = rows_[u];
  nnz_ -= RowDegree(u);
  if (card > ArrayThreshold(n_)) {
    row.is_bitmap = true;
    row.card = card;
    row.bits = scratch;
    row.array.clear();
    row.array.shrink_to_fit();
  } else {
    row.is_bitmap = false;
    row.card = 0;
    row.array.clear();
    row.array.reserve(card);
    for (std::size_t v = scratch.FindNext(0); v < n_;
         v = scratch.FindNext(v + 1)) {
      row.array.push_back(static_cast<NodeId>(v));
    }
    row.bits = DynamicBitset();
  }
  nnz_ += card;
}

BlockedBinaryRelation BlockedBinaryRelation::FromPairs(
    std::size_t n, std::vector<std::pair<NodeId, NodeId>> pairs) {
  CanonicalizePairs(&pairs);
  BlockedBinaryRelation rel(n);
  std::size_t i = 0;
  std::vector<NodeId> row;
  while (i < pairs.size()) {
    NodeId u = pairs[i].first;
    row.clear();
    for (; i < pairs.size() && pairs[i].first == u; ++i) {
      row.push_back(pairs[i].second);
    }
    rel.SetRowFromSortedArray(u, row);
  }
  return rel;
}

BlockedBinaryRelation BlockedBinaryRelation::FromDense(
    const BinaryRelation& dense) {
  std::size_t n = dense.num_nodes();
  BlockedBinaryRelation rel(n);
  for (std::size_t u = 0; u < n; ++u) {
    rel.SetRowFromBitset(static_cast<NodeId>(u), dense.Row(u));
  }
  return rel;
}

BlockedBinaryRelation BlockedBinaryRelation::Identity(std::size_t n) {
  BlockedBinaryRelation rel(n);
  for (std::size_t u = 0; u < n; ++u) {
    rel.rows_[u].array.push_back(static_cast<NodeId>(u));
  }
  rel.nnz_ = n;
  return rel;
}

BlockedBinaryRelation BlockedBinaryRelation::FromEdges(const DataGraph& graph,
                                                       LabelId label) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (const Edge& e : graph.edges()) {
    if (e.label == label) {
      pairs.emplace_back(e.from, e.to);
    }
  }
  return FromPairs(graph.NumNodes(), std::move(pairs));
}

std::vector<std::pair<NodeId, NodeId>> BlockedBinaryRelation::Pairs() const {
  std::vector<std::pair<NodeId, NodeId>> out;
  out.reserve(nnz_);
  for (std::size_t u = 0; u < n_; ++u) {
    ForEachInRow(static_cast<NodeId>(u), [&](NodeId v) {
      out.emplace_back(static_cast<NodeId>(u), v);
    });
  }
  return out;
}

void BlockedBinaryRelation::OrRowInto(NodeId u, DynamicBitset* scratch) const {
  const Row& row = rows_[u];
  if (row.is_bitmap) {
    *scratch |= row.bits;
  } else {
    for (NodeId v : row.array) {
      scratch->Set(v);
    }
  }
}

BlockedBinaryRelation& BlockedBinaryRelation::UnionWith(
    const BlockedBinaryRelation& other) {
  assert(n_ == other.n_);
  std::vector<NodeId> merged;
  for (std::size_t u = 0; u < n_; ++u) {
    if (other.RowDegree(u) == 0) {
      continue;
    }
    if (!rows_[u].is_bitmap && !other.rows_[u].is_bitmap) {
      // Both sorted arrays: a linear merge, no n-bit scratch needed.
      merged.clear();
      std::set_union(rows_[u].array.begin(), rows_[u].array.end(),
                     other.rows_[u].array.begin(), other.rows_[u].array.end(),
                     std::back_inserter(merged));
      SetRowFromSortedArray(static_cast<NodeId>(u), merged);
    } else {
      DynamicBitset scratch(n_);
      OrRowInto(static_cast<NodeId>(u), &scratch);
      other.OrRowInto(static_cast<NodeId>(u), &scratch);
      SetRowFromBitset(static_cast<NodeId>(u), scratch);
    }
  }
  return *this;
}

BlockedBinaryRelation BlockedBinaryRelation::Compose(
    const BlockedBinaryRelation& other) const {
  assert(n_ == other.n_);
  BlockedBinaryRelation out(n_);
  DynamicBitset scratch(n_);
  for (std::size_t u = 0; u < n_; ++u) {
    if (RowDegree(static_cast<NodeId>(u)) == 0) {
      continue;
    }
    scratch.Clear();
    bool any = false;
    ForEachInRow(static_cast<NodeId>(u), [&](NodeId z) {
      if (other.RowDegree(z) != 0) {
        other.OrRowInto(z, &scratch);
        any = true;
      }
    });
    if (any) {
      out.SetRowFromBitset(static_cast<NodeId>(u), scratch);
    }
  }
  return out;
}

BlockedBinaryRelation BlockedBinaryRelation::EqRestrict(
    const ValueClassMasks& masks) const {
  BlockedBinaryRelation out(n_);
  std::vector<NodeId> kept;
  DynamicBitset scratch(n_);
  for (std::size_t u = 0; u < n_; ++u) {
    const Row& row = rows_[u];
    if (row.is_bitmap) {
      scratch = row.bits;
      scratch &= masks.ClassOf(static_cast<NodeId>(u));
      out.SetRowFromBitset(static_cast<NodeId>(u), scratch);
    } else if (!row.array.empty()) {
      const DynamicBitset& cls = masks.ClassOf(static_cast<NodeId>(u));
      kept.clear();
      for (NodeId v : row.array) {
        if (cls.Test(v)) {
          kept.push_back(v);
        }
      }
      out.SetRowFromSortedArray(static_cast<NodeId>(u), kept);
    }
  }
  return out;
}

BlockedBinaryRelation BlockedBinaryRelation::NeqRestrict(
    const ValueClassMasks& masks) const {
  BlockedBinaryRelation out(n_);
  std::vector<NodeId> kept;
  DynamicBitset scratch(n_);
  for (std::size_t u = 0; u < n_; ++u) {
    const Row& row = rows_[u];
    if (row.is_bitmap) {
      scratch = row.bits;
      scratch -= masks.ClassOf(static_cast<NodeId>(u));
      out.SetRowFromBitset(static_cast<NodeId>(u), scratch);
    } else if (!row.array.empty()) {
      const DynamicBitset& cls = masks.ClassOf(static_cast<NodeId>(u));
      kept.clear();
      for (NodeId v : row.array) {
        if (!cls.Test(v)) {
          kept.push_back(v);
        }
      }
      out.SetRowFromSortedArray(static_cast<NodeId>(u), kept);
    }
  }
  return out;
}

bool BlockedBinaryRelation::IsSubsetOf(
    const BlockedBinaryRelation& other) const {
  assert(n_ == other.n_);
  for (std::size_t u = 0; u < n_; ++u) {
    const Row& a = rows_[u];
    const Row& b = other.rows_[u];
    // The canonical container choice means a bitmap row always has higher
    // cardinality than any array row, so bitmap ⊆ array is impossible.
    if (a.is_bitmap && !b.is_bitmap) {
      return false;
    }
    if (a.is_bitmap) {
      if (!a.bits.IsSubsetOf(b.bits)) {
        return false;
      }
    } else if (b.is_bitmap) {
      for (NodeId v : a.array) {
        if (!b.bits.Test(v)) {
          return false;
        }
      }
    } else {
      if (!std::includes(b.array.begin(), b.array.end(), a.array.begin(),
                         a.array.end())) {
        return false;
      }
    }
  }
  return true;
}

bool BlockedBinaryRelation::operator==(
    const BlockedBinaryRelation& other) const {
  if (n_ != other.n_ || nnz_ != other.nnz_) {
    return false;
  }
  for (std::size_t u = 0; u < n_; ++u) {
    const Row& a = rows_[u];
    const Row& b = other.rows_[u];
    // Equal rows have equal cardinality, hence the same canonical
    // container kind; a kind mismatch is an inequality.
    if (a.is_bitmap != b.is_bitmap) {
      return false;
    }
    if (a.is_bitmap ? (a.bits != b.bits) : (a.array != b.array)) {
      return false;
    }
  }
  return true;
}

std::size_t BlockedBinaryRelation::Hash() const {
  std::size_t seed = HashCombine(0x5241444152ULL, n_);
  for (std::size_t u = 0; u < n_; ++u) {
    const Row& row = rows_[u];
    if (row.is_bitmap ? row.card == 0 : row.array.empty()) {
      continue;
    }
    seed = HashCombine(seed, u);
    if (row.is_bitmap) {
      seed = HashCombine(seed, row.bits.Hash());
    } else {
      for (NodeId v : row.array) {
        seed = HashCombine(seed, v);
      }
    }
  }
  return seed;
}

BinaryRelation BlockedBinaryRelation::ToDense() const {
  BinaryRelation dense(n_);
  for (std::size_t u = 0; u < n_; ++u) {
    ForEachInRow(static_cast<NodeId>(u),
                 [&](NodeId v) { dense.Set(static_cast<NodeId>(u), v); });
  }
  return dense;
}

std::size_t BlockedBinaryRelation::ByteSize() const {
  std::size_t bytes = rows_.size() * sizeof(Row);
  for (const Row& row : rows_) {
    bytes += row.is_bitmap ? row.bits.words().size() * sizeof(std::uint64_t)
                           : row.array.size() * sizeof(NodeId);
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// AdaptiveRelation

AdaptiveRelation AdaptiveRelation::FromPairs(
    std::size_t n, std::vector<std::pair<NodeId, NodeId>> pairs,
    RelationBackend choice) {
  CanonicalizePairs(&pairs);
  if (choice == RelationBackend::kAuto) {
    choice = ChooseRelationBackend(n, pairs.size());
  }
  AdaptiveRelation rel;
  rel.backend_ = choice;
  rel.n_ = n;
  rel.nnz_ = pairs.size();
  switch (choice) {
    case RelationBackend::kDense:
      rel.dense_ = BinaryRelation::FromPairs(n, pairs);
      break;
    case RelationBackend::kSparse:
      rel.sparse_ = SparseBinaryRelation::FromPairs(n, std::move(pairs));
      break;
    default:
      rel.backend_ = RelationBackend::kBlocked;
      rel.blocked_ = BlockedBinaryRelation::FromPairs(n, std::move(pairs));
      break;
  }
  return rel;
}

AdaptiveRelation AdaptiveRelation::FromDense(BinaryRelation dense) {
  AdaptiveRelation rel;
  rel.backend_ = RelationBackend::kDense;
  rel.n_ = dense.num_nodes();
  rel.nnz_ = dense.Count();
  rel.dense_ = std::move(dense);
  return rel;
}

std::vector<std::pair<NodeId, NodeId>> AdaptiveRelation::Pairs() const {
  switch (backend_) {
    case RelationBackend::kDense:
      return dense_.Pairs();
    case RelationBackend::kSparse:
      return sparse_.Pairs();
    default:
      return blocked_.Pairs();
  }
}

BinaryRelation AdaptiveRelation::ToDense() const {
  switch (backend_) {
    case RelationBackend::kDense:
      return dense_;
    case RelationBackend::kSparse:
      return BinaryRelation::FromPairs(n_, sparse_.Pairs());
    default:
      return blocked_.ToDense();
  }
}

std::size_t AdaptiveRelation::ByteSize() const {
  switch (backend_) {
    case RelationBackend::kDense:
      return n_ * ((n_ + 63) / 64) * sizeof(std::uint64_t);
    case RelationBackend::kSparse:
      return sparse_.ByteSize();
    default:
      return blocked_.ByteSize();
  }
}

}  // namespace gqd
