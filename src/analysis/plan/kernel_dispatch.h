// Specialized-kernel dispatch table over an assignment graph.
//
// For every (store mask, letter, equality pattern) transition of a built
// AssignmentGraph, classification (analysis/plan/kernel_class.h) picks the
// cheapest inner loop that reproduces the generic word-parallel path
// bit-for-bit, together with the pre-extracted operands that loop needs:
//
//   kNoOp      — nothing; the transition has no edges anywhere.
//   kIdentity  — every source maps to exactly itself: the source bitmask
//                *is* the transition image, part |= Q & mask.
//   kSingleBit — at most one successor per source: a u32 target per state.
//   kSparse    — CSR edge lists; cost tracks the edge count, not |Q|².
//   kDense     — the assignment graph's packed kernel rows, OR'd over the
//                clipped target word span.
//
// Every non-noop transition also records the word spans its sources and
// targets occupy, so both the scanning loops and the subset-DFS save/OR/
// restore in the k-REM checker touch only the words that can change.
//
// The table is a pure acceleration structure: PlanFor never changes which
// successor bits a transition produces, only how they are computed, which
// is what keeps the planned engine bit-identical to the reference engine
// (tests/test_definability_diff).

#ifndef GQD_ANALYSIS_PLAN_KERNEL_DISPATCH_H_
#define GQD_ANALYSIS_PLAN_KERNEL_DISPATCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "analysis/plan/kernel_class.h"
#include "definability/assignment_graph.h"

namespace gqd {

/// Classification + operands of one (store mask, letter, pattern)
/// transition. Word spans are half-open [begin, end) over the packed
/// state-set words (⌈|Q|/64⌉ per set).
struct TransitionPlan {
  TransitionKernelClass cls = TransitionKernelClass::kNoOp;
  std::uint32_t num_sources = 0;  ///< states with at least one edge
  std::uint32_t num_edges = 0;
  std::uint32_t src_begin_word = 0;
  std::uint32_t src_end_word = 0;
  std::uint32_t tgt_begin_word = 0;
  std::uint32_t tgt_end_word = 0;
  /// Estimated words touched per application (the plan dump's cost model):
  /// identity → src span, single-bit → sources, sparse → edges,
  /// dense → sources × target span.
  std::uint64_t cost = 0;
  std::size_t mask_offset = 0;  ///< into the source-mask pool
  std::size_t pool_offset = 0;  ///< class-specific pool start (see accessors)
};

class KernelDispatchTable {
 public:
  KernelDispatchTable() = default;

  /// Classifies every transition of `ag`. The resulting table is disabled
  /// (enabled() == false, empty pools) when the graph has no states or the
  /// operand pools would exceed kDispatchMemoryBudgetBytes — the k-REM
  /// search then runs the reference walk over the successor lists.
  static KernelDispatchTable Build(const AssignmentGraph& ag);

  bool enabled() const { return enabled_; }
  std::size_t num_states() const { return num_states_; }
  std::size_t set_words() const { return set_words_; }
  std::size_t num_patterns() const { return num_patterns_; }
  std::size_t num_labels() const { return num_labels_; }
  std::size_t num_store_masks() const {
    return num_labels_ == 0 || num_patterns_ == 0
               ? 0
               : plans_.size() / (num_labels_ * num_patterns_);
  }

  const TransitionPlan& PlanFor(std::uint32_t store_mask, LabelId label,
                                std::uint32_t pattern) const {
    return plans_[(store_mask * num_labels_ + label) * num_patterns_ +
                  pattern];
  }

  /// Source bitmask of a non-noop transition: bit s ⟺ state s has at least
  /// one edge under the transition. set_words() words. For kIdentity this
  /// doubles as the transition image.
  const std::uint64_t* SourceMask(const TransitionPlan& plan) const {
    return source_masks_.data() + plan.mask_offset;
  }

  /// kSingleBit: target state per source, num_states() entries indexed by
  /// state id; kNoTarget for states without an edge (never visited by the
  /// masked scan, kept only so indexing is direct).
  const std::uint32_t* SingleTargets(const TransitionPlan& plan) const {
    return single_targets_.data() + plan.pool_offset;
  }
  static constexpr std::uint32_t kNoTarget = 0xffffffffu;

  /// kSparse: num_states()+1 absolute offsets into CsrTargets(); state s's
  /// targets are [offsets[s], offsets[s+1]).
  const std::uint32_t* CsrOffsets(const TransitionPlan& plan) const {
    return csr_offsets_.data() + plan.pool_offset;
  }
  const std::uint32_t* CsrTargets() const { return csr_targets_.data(); }

  /// Census over every transition (including noops), by class.
  const std::size_t* class_counts() const { return class_counts_; }
  std::uint64_t total_cost() const { return total_cost_; }
  std::size_t pool_bytes() const { return pool_bytes_; }

  /// Operand-pool ceiling; a table that would exceed it stays disabled.
  static constexpr std::size_t kDispatchMemoryBudgetBytes =
      std::size_t{64} << 20;

 private:
  bool enabled_ = false;
  std::size_t num_states_ = 0;
  std::size_t num_labels_ = 0;
  std::size_t num_patterns_ = 0;
  std::size_t set_words_ = 0;
  std::vector<TransitionPlan> plans_;
  std::vector<std::uint64_t> source_masks_;
  std::vector<std::uint32_t> single_targets_;
  std::vector<std::uint32_t> csr_offsets_;
  std::vector<std::uint32_t> csr_targets_;
  std::size_t class_counts_[kNumKernelClasses] = {};
  std::uint64_t total_cost_ = 0;
  std::size_t pool_bytes_ = 0;
};

}  // namespace gqd

#endif  // GQD_ANALYSIS_PLAN_KERNEL_DISPATCH_H_
