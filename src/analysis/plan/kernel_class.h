// The kernel vocabulary of the query-plan static analyzer.
//
// The plan pass classifies every (store mask, label, pattern) transition of
// an assignment graph into one of a handful of shapes, each with its own
// specialized inner loop in the definability checkers. Classification is
// purely structural — it never changes *which* bits a transition produces,
// only how they are computed — so planned and generic execution are
// bit-identical (tests/test_definability_diff pins this down).

#ifndef GQD_ANALYSIS_PLAN_KERNEL_CLASS_H_
#define GQD_ANALYSIS_PLAN_KERNEL_CLASS_H_

#include <cstddef>
#include <cstdint>

namespace gqd {

/// Shape of one transition's successor structure.
enum class TransitionKernelClass : std::uint8_t {
  /// No edges at all: the transition can never fire. Skipped outright.
  kNoOp,
  /// Every source has exactly one successor, itself. The source bitmask
  /// doubles as the transition row: part |= Q & mask, word-parallel.
  kIdentity,
  /// Every source has at most one successor: one u32 target per state.
  kSingleBit,
  /// Few edges relative to the dense-row footprint: CSR edge lists,
  /// cost proportional to the edge count.
  kSparse,
  /// Dense successor rows: word-parallel OR of pre-packed kernel rows,
  /// clipped to the target word span.
  kDense,
  /// Classification abstained (no dispatch table); the generic
  /// word-parallel or per-successor path runs instead.
  kGeneric,
};

inline constexpr std::size_t kNumKernelClasses = 6;

/// Stable lower-case name, used in plan dumps and metric labels.
inline const char* TransitionKernelClassName(TransitionKernelClass cls) {
  switch (cls) {
    case TransitionKernelClass::kNoOp:
      return "noop";
    case TransitionKernelClass::kIdentity:
      return "identity";
    case TransitionKernelClass::kSingleBit:
      return "single_bit";
    case TransitionKernelClass::kSparse:
      return "sparse";
    case TransitionKernelClass::kDense:
      return "dense";
    case TransitionKernelClass::kGeneric:
      return "generic";
  }
  return "unknown";
}

}  // namespace gqd

#endif  // GQD_ANALYSIS_PLAN_KERNEL_CLASS_H_
