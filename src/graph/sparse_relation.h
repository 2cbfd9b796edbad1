// Density-adaptive relation representations.
//
// BinaryRelation (relation.h) stores an n×n bit matrix — n²/8 bytes — which
// is ideal for the REE level closure on small graphs but is 125 GB at a
// million nodes. Real candidate relations on mmap-era graphs are sparse, so
// this layer adds two more representations behind one facade:
//
//   * SparseBinaryRelation — sorted coordinate list in CSR form. O(nnz)
//     bytes; membership by binary search within a row. The right shape for
//     nnz ≪ n (a few pairs per source, or most sources empty).
//   * BlockedBinaryRelation — roaring-style per-row containers: a sorted
//     u32 array while the row is small, a packed bitmap once the array
//     would outweigh it. The right shape for mid-density relations, and the
//     representation the streaming REE closure composes in.
//   * BinaryRelation — the dense matrix, retained for small n where n²/8 is
//     trivially affordable and the word-parallel kernels win outright.
//
// AdaptiveRelation picks one of the three from (n, nnz) — or an explicit
// override — and is what the checkers and the CLI admission path consume.
// All three representations describe the same set of pairs; the checkers'
// differential tests pin their verdicts bit-identical.

#ifndef GQD_GRAPH_SPARSE_RELATION_H_
#define GQD_GRAPH_SPARSE_RELATION_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/bitset.h"
#include "graph/data_graph.h"
#include "graph/relation.h"

namespace gqd {

/// Which physical representation an AdaptiveRelation uses.
enum class RelationBackend : std::uint8_t {
  kAuto,     ///< Let ChooseRelationBackend pick from (n, nnz).
  kDense,    ///< n×n bit matrix (BinaryRelation).
  kSparse,   ///< Sorted coordinate list (CSR).
  kBlocked,  ///< Per-row array/bitmap containers.
};

/// Stable lowercase name ("auto", "dense", "sparse", "blocked") for CLI
/// flags, traces, metrics, and partial-progress messages.
const char* RelationBackendName(RelationBackend backend);

/// Parses a backend name as accepted by `--relation-backend`; returns true
/// and sets `*out` on success.
bool ParseRelationBackend(const std::string& name, RelationBackend* out);

/// Up to this many nodes a dense matrix costs at most 2 MB, so
/// ChooseRelationBackend always picks it, and the REE level closure runs on
/// dense rows; above it the closure runs on blocked relations.
inline constexpr std::size_t kDenseRelationMaxNodes = 4096;

/// Picks the representation for an n-node relation with `nnz` pairs. Dense
/// while the matrix is small in absolute terms (n ≤ kDenseRelationMaxNodes)
/// or the relation is dense enough that containers cannot beat it; sparse
/// while rows average only a handful of entries; blocked in between.
RelationBackend ChooseRelationBackend(std::size_t n, std::size_t nnz);

/// Admission estimate, in bytes, of building the given backend for an
/// n-node relation with `nnz` pairs. kAuto estimates whatever
/// ChooseRelationBackend would pick. This is what `gqd check` charges
/// against --max-bytes instead of the old unconditional n²/8.
std::size_t EstimateRelationBytes(RelationBackend backend, std::size_t n,
                                  std::size_t nnz);

/// A binary relation as a sorted coordinate list (CSR: one offset per
/// source row into a single sorted column array). Immutable after
/// construction; O(nnz) bytes; Test is a binary search within the row.
class SparseBinaryRelation {
 public:
  SparseBinaryRelation() = default;

  /// Builds from pairs. The pairs need not be sorted or unique; the
  /// constructor sorts row-major and deduplicates.
  static SparseBinaryRelation FromPairs(
      std::size_t n, std::vector<std::pair<NodeId, NodeId>> pairs);

  std::size_t num_nodes() const { return n_; }
  std::size_t Nnz() const { return cols_.size(); }
  bool Empty() const { return cols_.empty(); }

  bool Test(NodeId u, NodeId v) const {
    const NodeId* begin = cols_.data() + offsets_[u];
    const NodeId* end = cols_.data() + offsets_[u + 1];
    return std::binary_search(begin, end, v);
  }

  std::size_t RowDegree(NodeId u) const { return offsets_[u + 1] - offsets_[u]; }

  /// Calls fn(v) for each v with (u, v) in the relation, ascending.
  template <typename Fn>
  void ForEachInRow(NodeId u, Fn&& fn) const {
    for (std::size_t i = offsets_[u]; i < offsets_[u + 1]; ++i) {
      fn(cols_[i]);
    }
  }

  /// All pairs in row-major order (the canonical order shared by every
  /// representation).
  std::vector<std::pair<NodeId, NodeId>> Pairs() const;

  /// Actual footprint of the offsets + column arrays.
  std::size_t ByteSize() const {
    return offsets_.size() * sizeof(std::uint64_t) +
           cols_.size() * sizeof(NodeId);
  }

 private:
  std::size_t n_ = 0;
  std::vector<std::uint64_t> offsets_;  // n+1 entries
  std::vector<NodeId> cols_;            // row-major, sorted within each row
};

/// A binary relation with roaring-style per-row containers: each row is
/// either a sorted u32 array (while its cardinality is at most
/// ArrayThreshold(n)) or an n-bit bitmap. The container choice is canonical
/// — a function of the row's cardinality only — so equal relations always
/// have identical physical layout, making Equal/Hash cheap and exact.
///
/// Unlike SparseBinaryRelation this representation supports the REE
/// operator set (union, composition, =/≠ restriction), composing by
/// streaming each source row's frontier through the other relation's rows
/// into an n-bit scratch and recompressing — never materializing anything
/// larger than one row.
class BlockedBinaryRelation {
 public:
  BlockedBinaryRelation() = default;

  /// Empty relation on n nodes.
  explicit BlockedBinaryRelation(std::size_t n) : n_(n), rows_(n) {}

  /// Array rows flip to bitmaps above this cardinality: the break-even
  /// point where 4·card bytes of sorted u32s would exceed the n/8-byte
  /// bitmap (with a small floor so tiny rows never allocate bitmap words).
  static std::size_t ArrayThreshold(std::size_t n) {
    return std::max<std::size_t>(8, n / 32);
  }

  static BlockedBinaryRelation FromPairs(
      std::size_t n, std::vector<std::pair<NodeId, NodeId>> pairs);
  static BlockedBinaryRelation FromDense(const BinaryRelation& dense);
  static BlockedBinaryRelation Identity(std::size_t n);
  /// {(u, v) | (u, label, v) ∈ E} — the letter relation S_a.
  static BlockedBinaryRelation FromEdges(const DataGraph& graph,
                                         LabelId label);

  std::size_t num_nodes() const { return n_; }
  std::size_t Nnz() const { return nnz_; }
  std::size_t Count() const { return nnz_; }
  bool Empty() const { return nnz_ == 0; }

  bool Test(NodeId u, NodeId v) const {
    const Row& row = rows_[u];
    if (row.is_bitmap) {
      return row.bits.Test(v);
    }
    return std::binary_search(row.array.begin(), row.array.end(), v);
  }

  std::size_t RowDegree(NodeId u) const {
    const Row& row = rows_[u];
    return row.is_bitmap ? row.card : row.array.size();
  }

  /// True iff row u currently uses the bitmap container (exposed so the
  /// flip-point property tests can pin the array↔bitmap boundary).
  bool RowIsBitmap(NodeId u) const { return rows_[u].is_bitmap; }

  /// Calls fn(v) for each v with (u, v) in the relation, ascending.
  template <typename Fn>
  void ForEachInRow(NodeId u, Fn&& fn) const {
    const Row& row = rows_[u];
    if (row.is_bitmap) {
      for (std::size_t v = row.bits.FindNext(0); v < n_;
           v = row.bits.FindNext(v + 1)) {
        fn(static_cast<NodeId>(v));
      }
    } else {
      for (NodeId v : row.array) {
        fn(v);
      }
    }
  }

  std::vector<std::pair<NodeId, NodeId>> Pairs() const;

  /// ORs row u into an n-bit scratch (used by the streaming composition).
  void OrRowInto(NodeId u, DynamicBitset* scratch) const;

  /// Replaces row u with the set bits of `scratch`, choosing the canonical
  /// container for the new cardinality.
  void SetRowFromBitset(NodeId u, const DynamicBitset& scratch);

  /// S1 + S2: row-wise union, recompressed per row.
  BlockedBinaryRelation& UnionWith(const BlockedBinaryRelation& other);

  /// S1 ∘ S2 by frontier streaming: for each source u, OR together
  /// other's rows at this's row-u frontier into one n-bit scratch, then
  /// compress. Peak intermediate is a single row, not an n² matrix.
  BlockedBinaryRelation Compose(const BlockedBinaryRelation& other) const;

  /// S= / S≠ against the node partition (Definition 26's restrictions).
  BlockedBinaryRelation EqRestrict(const ValueClassMasks& masks) const;
  BlockedBinaryRelation NeqRestrict(const ValueClassMasks& masks) const;

  bool IsSubsetOf(const BlockedBinaryRelation& other) const;

  bool operator==(const BlockedBinaryRelation& other) const;
  bool operator!=(const BlockedBinaryRelation& other) const {
    return !(*this == other);
  }

  /// Hash over the canonical (row-major sorted) pair stream. Because the
  /// container choice is canonical, equal relations hash equal regardless
  /// of how they were built.
  std::size_t Hash() const;

  /// Dense expansion (small n only; used by tests and verdict bridging).
  BinaryRelation ToDense() const;

  /// Actual footprint across all row containers.
  std::size_t ByteSize() const;

 private:
  struct Row {
    bool is_bitmap = false;
    std::size_t card = 0;           // only tracked for bitmap rows
    std::vector<NodeId> array;      // sorted; empty when is_bitmap
    DynamicBitset bits;             // empty when !is_bitmap
  };

  void SetRowFromSortedArray(NodeId u, std::vector<NodeId> sorted);

  std::size_t n_ = 0;
  std::size_t nnz_ = 0;
  std::vector<Row> rows_;
};

/// std::hash adapter for BlockedBinaryRelation.
struct BlockedBinaryRelationHash {
  std::size_t operator()(const BlockedBinaryRelation& r) const {
    return r.Hash();
  }
};

/// The facade the checkers and CLI consume: one of the three physical
/// representations, chosen by ChooseRelationBackend or forced by an
/// explicit override. Read-only once built.
class AdaptiveRelation {
 public:
  AdaptiveRelation() = default;

  /// Builds from pairs (sorted/deduplicated internally). `choice` kAuto
  /// defers to ChooseRelationBackend(n, distinct pairs).
  static AdaptiveRelation FromPairs(
      std::size_t n, std::vector<std::pair<NodeId, NodeId>> pairs,
      RelationBackend choice = RelationBackend::kAuto);

  /// Wraps an existing dense relation (backend is kDense).
  static AdaptiveRelation FromDense(BinaryRelation dense);

  RelationBackend backend() const { return backend_; }
  std::size_t num_nodes() const { return n_; }
  std::size_t Nnz() const { return nnz_; }
  bool Empty() const { return nnz_ == 0; }

  bool Test(NodeId u, NodeId v) const {
    switch (backend_) {
      case RelationBackend::kDense:
        return dense_.Test(u, v);
      case RelationBackend::kSparse:
        return sparse_.Test(u, v);
      default:
        return blocked_.Test(u, v);
    }
  }

  /// All pairs in row-major order — identical across backends.
  std::vector<std::pair<NodeId, NodeId>> Pairs() const;

  /// The wrapped dense relation; only valid when backend() == kDense.
  const BinaryRelation& dense() const { return dense_; }
  const SparseBinaryRelation& sparse() const { return sparse_; }
  const BlockedBinaryRelation& blocked() const { return blocked_; }

  /// Dense expansion regardless of backend (small n only).
  BinaryRelation ToDense() const;

  /// Footprint of the selected representation.
  std::size_t ByteSize() const;

 private:
  RelationBackend backend_ = RelationBackend::kDense;
  std::size_t n_ = 0;
  std::size_t nnz_ = 0;
  BinaryRelation dense_;
  SparseBinaryRelation sparse_;
  BlockedBinaryRelation blocked_;
};

}  // namespace gqd

#endif  // GQD_GRAPH_SPARSE_RELATION_H_
