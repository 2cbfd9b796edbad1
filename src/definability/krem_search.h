// The k-REM macro-tuple search (Lemma 21) as the k-REM and RPQ checkers
// share it, before either materializes its per-pair witness vector: the
// k-REM checker builds KRemDefinabilityResult::witnesses from a search
// outcome, the RPQ checker builds RpqDefinabilityResult::witness_words,
// and neither builds the other's. Internal to the definability library.

#ifndef GQD_DEFINABILITY_KREM_SEARCH_H_
#define GQD_DEFINABILITY_KREM_SEARCH_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/status.h"
#include "definability/krem_definability.h"
#include "graph/data_graph.h"
#include "graph/relation.h"
#include "graph/sparse_relation.h"

namespace gqd {

/// S as CSR rows: row u is cols()[offsets()[u], offsets()[u + 1]),
/// ascending, so pair j in Pairs() order is (its row, cols()[j]). Either a
/// view of a sparse relation's own arrays, or arrays this object owns
/// (built once for the other backends). Move-only: a moved vector keeps its
/// buffer, so the spans stay valid across moves.
class PairRows {
 public:
  PairRows() = default;
  /// Views arrays that must outlive this object.
  PairRows(std::span<const std::uint64_t> offsets, std::span<const NodeId> cols)
      : offsets_(offsets), cols_(cols) {}
  /// Owns the arrays.
  PairRows(std::vector<std::uint64_t> offsets, std::vector<NodeId> cols)
      : own_offsets_(std::move(offsets)),
        own_cols_(std::move(cols)),
        offsets_(own_offsets_),
        cols_(own_cols_) {}
  PairRows(PairRows&&) = default;
  PairRows& operator=(PairRows&&) = default;
  PairRows(const PairRows&) = delete;
  PairRows& operator=(const PairRows&) = delete;

  std::size_t size() const { return cols_.size(); }
  std::span<const std::uint64_t> offsets() const { return offsets_; }
  std::span<const NodeId> cols() const { return cols_; }

  /// Calls fn(j, from, to) for every pair j, in Pairs() order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (std::size_t row = 0; row + 1 < offsets_.size(); row++) {
      for (std::size_t j = offsets_[row]; j < offsets_[row + 1]; j++) {
        fn(j, static_cast<NodeId>(row), cols_[j]);
      }
    }
  }

 private:
  std::vector<std::uint64_t> own_offsets_;
  std::vector<NodeId> own_cols_;
  std::span<const std::uint64_t> offsets_;
  std::span<const NodeId> cols_;
};

/// A finished search: everything a KRemDefinabilityResult holds except
/// `witnesses`, plus what either checker needs to build its own per-pair
/// witness vector.
struct KRemSearchOutcome {
  KRemDefinabilityResult result;  ///< `witnesses` left empty
  /// S's pairs, in Pairs() order (a view of the relation when it is
  /// sparse, so the relation must outlive this outcome).
  PairRows pairs;
  /// When definable: pair j's witness path, an index into result.paths.
  std::vector<std::size_t> pair_path;
};

/// The search halves of the CheckKRemDefinability overloads, with the same
/// validation and the same verdicts, tuples_explored, paths and budget
/// charges.
Result<KRemSearchOutcome> SearchKRem(const DataGraph& graph,
                                     const BinaryRelation& relation,
                                     std::size_t k,
                                     const KRemDefinabilityOptions& options);
Result<KRemSearchOutcome> SearchKRem(const DataGraph& graph,
                                     const AdaptiveRelation& relation,
                                     std::size_t k,
                                     const KRemDefinabilityOptions& options);
Result<KRemSearchOutcome> SearchKRem(const KRemSetup& setup,
                                     const DataGraph& graph,
                                     const AdaptiveRelation& relation,
                                     const KRemDefinabilityOptions& options);

}  // namespace gqd

#endif  // GQD_DEFINABILITY_KREM_SEARCH_H_
