// Relations over the nodes of a data graph.
//
// BinaryRelation is the workhorse: an n×n boolean matrix with the four
// operators of Definition 26 (union +, composition ∘, =-restriction,
// ≠-restriction). The REE definability checker (Definition 27's level
// closure) manipulates thousands of these, so the representation is one
// bitset row per source node and all operators are word-parallel.
//
// TupleRelation holds relations of arbitrary arity for UCRDPQ-definability
// (Definition 13 allows answer tuples of any width).

#ifndef GQD_GRAPH_RELATION_H_
#define GQD_GRAPH_RELATION_H_

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/bitset.h"
#include "graph/data_graph.h"

namespace gqd {

/// Pre-computed node partition by data value: one bitset per value class,
/// {v | ρ(v) = d}. With these, the =/≠ restrictions of Definition 26 become
/// one word-parallel AND (resp. AND-NOT) of each row against the source
/// node's class — the same rowized-kernel idea the k-REM checker uses —
/// instead of a per-bit value comparison per set pair.
class ValueClassMasks {
 public:
  explicit ValueClassMasks(const DataGraph& graph);

  std::size_t num_nodes() const { return value_of_.size(); }

  /// The class mask of u's data value: {v | ρ(v) = ρ(u)}.
  const DynamicBitset& ClassOf(NodeId u) const {
    return masks_[value_of_[u]];
  }

 private:
  std::vector<std::uint32_t> value_of_;
  std::vector<DynamicBitset> masks_;
};

/// A binary relation on {0, ..., n-1}, stored as n row bitsets.
class BinaryRelation {
 public:
  BinaryRelation() : n_(0) {}

  /// The empty relation on n nodes.
  explicit BinaryRelation(std::size_t n)
      : n_(n), rows_(n, DynamicBitset(n)) {}

  /// {(v, v) | v ∈ V} — the relation S_ε defined by the ε query.
  static BinaryRelation Identity(std::size_t n);

  /// V × V.
  static BinaryRelation Full(std::size_t n);

  /// {(u, v) | (u, a, v) ∈ E} — the relation S_a defined by the letter a.
  static BinaryRelation FromEdges(const DataGraph& graph, LabelId label);

  /// Builds a relation from explicit pairs.
  static BinaryRelation FromPairs(
      std::size_t n, const std::vector<std::pair<NodeId, NodeId>>& pairs);

  std::size_t num_nodes() const { return n_; }

  bool Test(NodeId u, NodeId v) const { return rows_[u].Test(v); }
  void Set(NodeId u, NodeId v) { rows_[u].Set(v); }
  void Reset(NodeId u, NodeId v) { rows_[u].Reset(v); }

  /// Number of pairs in the relation.
  std::size_t Count() const;

  bool Empty() const;

  /// All pairs, in row-major order.
  std::vector<std::pair<NodeId, NodeId>> Pairs() const;

  /// S1 + S2 (Definition 26).
  BinaryRelation& UnionWith(const BinaryRelation& other);
  friend BinaryRelation operator|(BinaryRelation a, const BinaryRelation& b) {
    a.UnionWith(b);
    return a;
  }

  /// S1 ∘ S2 = {(u,v) | ∃z: (u,z) ∈ S1, (z,v) ∈ S2} (Definition 26).
  /// Boolean matrix product; O(n² · n/64) words touched.
  BinaryRelation Compose(const BinaryRelation& other) const;

  /// S= : keep pairs whose endpoints carry the same data value in `graph`.
  BinaryRelation EqRestrict(const DataGraph& graph) const;

  /// S≠ : keep pairs whose endpoints carry different data values.
  BinaryRelation NeqRestrict(const DataGraph& graph) const;

  /// Rowized S= : row u becomes row_u ∧ class(u), one word-parallel AND
  /// per row. Equivalent to EqRestrict(graph) for masks built from it.
  BinaryRelation EqRestrict(const ValueClassMasks& masks) const;

  /// Rowized S≠ : row u becomes row_u ∖ class(u).
  BinaryRelation NeqRestrict(const ValueClassMasks& masks) const;

  /// Intersection (not one of the paper's operators, but used by checkers).
  BinaryRelation& IntersectWith(const BinaryRelation& other);

  /// Difference this \ other.
  BinaryRelation& SubtractFrom(const BinaryRelation& other);

  /// True iff every pair of this is in `other`.
  bool IsSubsetOf(const BinaryRelation& other) const;

  bool operator==(const BinaryRelation& other) const {
    return n_ == other.n_ && rows_ == other.rows_;
  }
  bool operator!=(const BinaryRelation& other) const {
    return !(*this == other);
  }
  bool operator<(const BinaryRelation& other) const;

  std::size_t Hash() const;

  /// Row `u` as a bitset over target nodes.
  const DynamicBitset& Row(NodeId u) const { return rows_[u]; }
  DynamicBitset& MutableRow(NodeId u) { return rows_[u]; }

  /// Renders "{(0,1), (2,3)}" using node ids.
  std::string ToString() const;

  /// Renders "{(u,v), ...}" using node display names from `graph`.
  std::string ToString(const DataGraph& graph) const;

 private:
  std::size_t n_;
  std::vector<DynamicBitset> rows_;
};

/// std::hash adapter for BinaryRelation.
struct BinaryRelationHash {
  std::size_t operator()(const BinaryRelation& r) const { return r.Hash(); }
};

/// R⁺ = R ∪ R∘R ∪ R∘R∘R ∪ ... (the relation of e⁺ given the relation of e).
BinaryRelation TransitivePlus(const BinaryRelation& rel);

/// A tuple of nodes (an element of V^r).
using NodeTuple = std::vector<NodeId>;

/// A finite relation of fixed arity over graph nodes.
class TupleRelation {
 public:
  /// Empty relation of the given arity.
  explicit TupleRelation(std::size_t arity) : arity_(arity) {}

  /// Wraps a binary relation as a TupleRelation of arity 2.
  static TupleRelation FromBinary(const BinaryRelation& rel);

  std::size_t arity() const { return arity_; }
  std::size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }

  /// Inserts a tuple; it must have the declared arity.
  void Insert(NodeTuple tuple);

  bool Contains(const NodeTuple& tuple) const {
    return tuples_.count(tuple) > 0;
  }

  const std::set<NodeTuple>& tuples() const { return tuples_; }

  bool operator==(const TupleRelation& other) const = default;

  std::string ToString(const DataGraph& graph) const;

 private:
  std::size_t arity_;
  std::set<NodeTuple> tuples_;
};

}  // namespace gqd

#endif  // GQD_GRAPH_RELATION_H_
