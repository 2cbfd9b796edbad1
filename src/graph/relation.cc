#include "graph/relation.h"

#include <cassert>
#include <sstream>

namespace gqd {

ValueClassMasks::ValueClassMasks(const DataGraph& graph) {
  std::size_t n = graph.NumNodes();
  value_of_.resize(n);
  masks_.assign(graph.NumDataValues() == 0 ? 1 : graph.NumDataValues(),
                DynamicBitset(n));
  for (NodeId v = 0; v < n; v++) {
    value_of_[v] = graph.DataValueOf(v);
    masks_[value_of_[v]].Set(v);
  }
}

BinaryRelation BinaryRelation::Identity(std::size_t n) {
  BinaryRelation r(n);
  for (NodeId v = 0; v < n; v++) {
    r.Set(v, v);
  }
  return r;
}

BinaryRelation BinaryRelation::Full(std::size_t n) {
  BinaryRelation r(n);
  for (NodeId u = 0; u < n; u++) {
    for (NodeId v = 0; v < n; v++) {
      r.Set(u, v);
    }
  }
  return r;
}

BinaryRelation BinaryRelation::FromEdges(const DataGraph& graph,
                                         LabelId label) {
  BinaryRelation r(graph.NumNodes());
  for (const Edge& e : graph.edges()) {
    if (e.label == label) {
      r.Set(e.from, e.to);
    }
  }
  return r;
}

BinaryRelation BinaryRelation::FromPairs(
    std::size_t n, const std::vector<std::pair<NodeId, NodeId>>& pairs) {
  BinaryRelation r(n);
  for (const auto& [u, v] : pairs) {
    assert(u < n && v < n);
    r.Set(u, v);
  }
  return r;
}

std::size_t BinaryRelation::Count() const {
  std::size_t total = 0;
  for (const auto& row : rows_) {
    total += row.Count();
  }
  return total;
}

bool BinaryRelation::Empty() const {
  for (const auto& row : rows_) {
    if (row.Any()) {
      return false;
    }
  }
  return true;
}

std::vector<std::pair<NodeId, NodeId>> BinaryRelation::Pairs() const {
  std::vector<std::pair<NodeId, NodeId>> out;
  for (NodeId u = 0; u < n_; u++) {
    for (std::size_t v = rows_[u].FindNext(0); v < n_;
         v = rows_[u].FindNext(v + 1)) {
      out.emplace_back(u, static_cast<NodeId>(v));
    }
  }
  return out;
}

BinaryRelation& BinaryRelation::UnionWith(const BinaryRelation& other) {
  assert(n_ == other.n_);
  for (std::size_t u = 0; u < n_; u++) {
    rows_[u] |= other.rows_[u];
  }
  return *this;
}

BinaryRelation BinaryRelation::Compose(const BinaryRelation& other) const {
  assert(n_ == other.n_);
  BinaryRelation result(n_);
  for (NodeId u = 0; u < n_; u++) {
    // result.row(u) = union of other.row(z) over all z with (u,z) in this.
    const DynamicBitset& mids = rows_[u];
    DynamicBitset& out = result.rows_[u];
    for (std::size_t z = mids.FindNext(0); z < n_; z = mids.FindNext(z + 1)) {
      out |= other.rows_[z];
    }
  }
  return result;
}

BinaryRelation BinaryRelation::EqRestrict(const DataGraph& graph) const {
  assert(graph.NumNodes() == n_);
  BinaryRelation result(n_);
  for (NodeId u = 0; u < n_; u++) {
    const DynamicBitset& row = rows_[u];
    for (std::size_t v = row.FindNext(0); v < n_; v = row.FindNext(v + 1)) {
      if (graph.DataValueOf(u) == graph.DataValueOf(static_cast<NodeId>(v))) {
        result.Set(u, static_cast<NodeId>(v));
      }
    }
  }
  return result;
}

BinaryRelation BinaryRelation::NeqRestrict(const DataGraph& graph) const {
  assert(graph.NumNodes() == n_);
  BinaryRelation result(n_);
  for (NodeId u = 0; u < n_; u++) {
    const DynamicBitset& row = rows_[u];
    for (std::size_t v = row.FindNext(0); v < n_; v = row.FindNext(v + 1)) {
      if (graph.DataValueOf(u) != graph.DataValueOf(static_cast<NodeId>(v))) {
        result.Set(u, static_cast<NodeId>(v));
      }
    }
  }
  return result;
}

BinaryRelation BinaryRelation::EqRestrict(const ValueClassMasks& masks) const {
  assert(masks.num_nodes() == n_);
  BinaryRelation result = *this;
  for (NodeId u = 0; u < n_; u++) {
    result.rows_[u] &= masks.ClassOf(u);
  }
  return result;
}

BinaryRelation BinaryRelation::NeqRestrict(const ValueClassMasks& masks) const {
  assert(masks.num_nodes() == n_);
  BinaryRelation result = *this;
  for (NodeId u = 0; u < n_; u++) {
    result.rows_[u] -= masks.ClassOf(u);
  }
  return result;
}

BinaryRelation& BinaryRelation::IntersectWith(const BinaryRelation& other) {
  assert(n_ == other.n_);
  for (std::size_t u = 0; u < n_; u++) {
    rows_[u] &= other.rows_[u];
  }
  return *this;
}

BinaryRelation& BinaryRelation::SubtractFrom(const BinaryRelation& other) {
  assert(n_ == other.n_);
  for (std::size_t u = 0; u < n_; u++) {
    rows_[u] -= other.rows_[u];
  }
  return *this;
}

bool BinaryRelation::IsSubsetOf(const BinaryRelation& other) const {
  assert(n_ == other.n_);
  for (std::size_t u = 0; u < n_; u++) {
    if (!rows_[u].IsSubsetOf(other.rows_[u])) {
      return false;
    }
  }
  return true;
}

bool BinaryRelation::operator<(const BinaryRelation& other) const {
  if (n_ != other.n_) {
    return n_ < other.n_;
  }
  return rows_ < other.rows_;
}

std::size_t BinaryRelation::Hash() const {
  std::size_t seed = n_;
  for (const auto& row : rows_) {
    seed = HashCombine(seed, row.Hash());
  }
  return seed;
}

std::string BinaryRelation::ToString() const {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [u, v] : Pairs()) {
    if (!first) {
      os << ", ";
    }
    first = false;
    os << "(" << u << "," << v << ")";
  }
  os << "}";
  return os.str();
}

std::string BinaryRelation::ToString(const DataGraph& graph) const {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [u, v] : Pairs()) {
    if (!first) {
      os << ", ";
    }
    first = false;
    os << "(" << graph.NodeName(u) << "," << graph.NodeName(v) << ")";
  }
  os << "}";
  return os.str();
}

BinaryRelation TransitivePlus(const BinaryRelation& rel) {
  // Floyd–Warshall-style closure on the row bitsets: O(n² · n/64) words.
  BinaryRelation out = rel;
  std::size_t n = rel.num_nodes();
  for (NodeId k = 0; k < n; k++) {
    const DynamicBitset row_k = out.Row(k);  // copy: rows mutate below
    for (NodeId i = 0; i < n; i++) {
      if (out.Test(i, k)) {
        out.MutableRow(i) |= row_k;
      }
    }
  }
  return out;
}

TupleRelation TupleRelation::FromBinary(const BinaryRelation& rel) {
  TupleRelation out(2);
  for (const auto& [u, v] : rel.Pairs()) {
    out.Insert({u, v});
  }
  return out;
}

void TupleRelation::Insert(NodeTuple tuple) {
  assert(tuple.size() == arity_);
  tuples_.insert(std::move(tuple));
}

std::string TupleRelation::ToString(const DataGraph& graph) const {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const NodeTuple& t : tuples_) {
    if (!first) {
      os << ", ";
    }
    first = false;
    os << "(";
    for (std::size_t i = 0; i < t.size(); i++) {
      if (i > 0) {
        os << ",";
      }
      os << graph.NodeName(t[i]);
    }
    os << ")";
  }
  os << "}";
  return os.str();
}

}  // namespace gqd
