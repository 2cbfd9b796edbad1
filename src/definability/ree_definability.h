// RDPQ_=-definability (Section 4 of the paper): PSPACE algorithm via the
// level hierarchy of Definition 27.
//
// Key algebra (Lemma 29 + distributivity): ∘ distributes over +, and the
// =/≠ restrictions distribute over + as well:
//   (S1 + S2) ∘ T = S1∘T + S2∘T,   (S1 + S2)= = S1= + S2=.
// Hence every level L_i is exactly the set of unions of elements of a
// finite ∘-monoid M_i, where
//   M_0 = ∘-closure({S_ε} ∪ {S_a : a ∈ Σ})
//   M_i = ∘-closure(M_{i-1} ∪ {m=, m≠ : m ∈ M_{i-1}})
// and the hierarchy stabilizes within n² rounds (Lemma 28). By Lemma 30,
// S is RDPQ_=-definable iff S ∈ L_∞, i.e. iff S equals the union of all
// monoid elements contained in S.
//
// Every monoid element carries its REE derivation, so a defining REE is
// synthesized directly from a greedy cover of S (and round-trip-verified by
// tests through EvaluateRee).
//
// By Lemma 30, S enters only that final cover test: the level monoid M_∞
// depends on the graph alone. The checker is therefore split into
// CloseReeMonoid (per graph, in a representation picked from the graph) and
// a per-S decision that converts S to the monoid's element type, and
// `gqd serve` keeps one closed monoid on the graph's registry entry so
// repeated checks over one graph skip the closure, whatever S's backend.

#ifndef GQD_DEFINABILITY_REE_DEFINABILITY_H_
#define GQD_DEFINABILITY_REE_DEFINABILITY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/budget.h"
#include "common/cancel.h"
#include "common/status.h"
#include "definability/verdict.h"
#include "graph/data_graph.h"
#include "graph/relation.h"
#include "graph/sparse_relation.h"
#include "ree/ast.h"

namespace gqd {

/// Which relation machinery the level closure runs on. Both engines
/// enumerate the monoid in the same order and compute the same relations,
/// so verdicts, levels_used, monoid_size and the synthesized expression
/// are identical — the reference engine exists as a differential-testing
/// oracle for the planned one (see tests/test_definability_diff).
enum class ReeEngine {
  /// Packed 64-bit relations when n ≤ 8, else word-parallel value-class
  /// restrictions (ValueClassMasks) over bitset rows, or over blocked
  /// relations above kDenseRelationMaxNodes. The default.
  kPlanned,
  /// Generic BinaryRelation ops with per-bit =/≠ restriction loops — the
  /// shape of the original implementation, kept as an oracle.
  kReference,
};

struct ReeDefinabilityOptions {
  /// Maximum number of distinct relations to materialize in the monoid
  /// (0 = unlimited). A secondary cap; max_monoid_bytes is the primary
  /// guard because blocked-relation elements vary in size by orders of
  /// magnitude, so a count bounds memory only for packed and dense ones.
  std::size_t max_monoid_size = 200'000;
  /// Maximum bytes of monoid storage (0 = unlimited), accounted by each
  /// element's *actual* representation size (BlockedBinaryRelation's
  /// heap footprint when blocked, the n²-bit matrix when dense)
  /// through an internal ResourceBudget. Tripping either monoid cap stops
  /// the closure cleanly with verdict kBudgetExhausted and a populated
  /// `partial` report (stage "ree-monoid").
  std::size_t max_monoid_bytes = std::size_t{1} << 30;
  /// Maximum restriction levels; 0 means the paper's bound n².
  std::size_t max_levels = 0;
  /// Relation machinery; kPlanned unless you are cross-checking.
  ReeEngine engine = ReeEngine::kPlanned;
  /// Optional cooperative cancellation: the level closure polls this token
  /// and returns Status::DeadlineExceeded once it expires.
  const CancelToken* cancel = nullptr;
  /// Optional resource governance: monoid insertions are charged here and
  /// the closure polls it. On exhaustion the checker stops cleanly with
  /// verdict kBudgetExhausted and a populated `partial` report.
  const ResourceBudget* budget = nullptr;
};

struct ReeDefinabilityResult {
  DefinabilityVerdict verdict = DefinabilityVerdict::kBudgetExhausted;
  /// Number of restriction levels applied before the monoid stabilized.
  std::size_t levels_used = 0;
  /// Final monoid size (the E4 bench's cost measure).
  std::size_t monoid_size = 0;
  /// A defining REE (populated iff verdict == kDefinable and S non-empty).
  ReePtr defining_expression;
  /// Set iff a budget trip stopped the closure: how far it got. Stage
  /// "ree-closure" marks an options.budget trip, "ree-monoid" a
  /// max_monoid_bytes / max_monoid_size trip.
  std::optional<PartialProgress> partial;
};

/// The relation representation a level closure runs on. M_∞ is the same
/// set in every representation; a closed monoid decides a relation held by
/// any backend, converting it to its own element type for the cover test.
enum class ReeRepresentation : std::uint8_t {
  /// One 64-bit word per relation: 0 < n ≤ 8.
  kPacked,
  /// n row bitsets; =/≠ through value-class masks (per-bit loops under
  /// ReeEngine::kReference).
  kDense,
  /// Array/bitmap containers: n > kDenseRelationMaxNodes, where n row
  /// bitsets per element would not fit.
  kBlocked,
};

/// The representation CheckReeDefinability closes the monoid of `graph` in:
/// packed for 0 < n ≤ 8, dense up to kDenseRelationMaxNodes, blocked above
/// it, and dense for every n under ReeEngine::kReference.
ReeRepresentation ReeRepresentationFor(const DataGraph& graph,
                                       ReeEngine engine = ReeEngine::kPlanned);

struct ReeMonoidState;

/// A closed level monoid M_∞ (Definition 27) of one graph: its elements,
/// their REE derivations, the levels the closure used and the exact bytes
/// and elements it charged. Immutable; safe to share across threads.
class ReeMonoid {
 public:
  explicit ReeMonoid(std::unique_ptr<ReeMonoidState> state);
  ReeMonoid(ReeMonoid&&) noexcept;
  ReeMonoid& operator=(ReeMonoid&&) noexcept;
  ~ReeMonoid();

  /// Elements (each charged one tuple to options.budget).
  std::size_t size() const;
  /// True when the closure reached its fixpoint under the default caps. A
  /// closure stopped by a budget or cap is not complete; deciding against
  /// it reports that stop (verdict kBudgetExhausted, partial progress).
  bool complete() const;
  /// Bytes the closure charged to options.budget.
  std::uint64_t charged_bytes() const;

  /// Could a fresh closure for a check with `options` differ from this
  /// one? False unless this monoid is complete, `options` keeps the
  /// default max_levels / max_monoid_size / max_monoid_bytes, and
  /// options.budget has room for the recorded bytes and elements (a
  /// tighter budget could stop a fresh closure part way). A reusable
  /// monoid plus ChargeReuse reproduces the cold check exactly.
  bool ReusableFor(const ReeDefinabilityOptions& options) const;

  /// Replays the closure's ree.closure failpoint hits (one per closure
  /// round) and its budget charges for a check that reuses this monoid.
  Status ChargeReuse(const ResourceBudget* budget) const;

  /// Resident bytes, as accounted by the closure.
  std::size_t HeldBytes() const;

  /// Implementation state (opaque outside ree_definability.cc).
  const ReeMonoidState& state() const { return *state_; }

 private:
  std::unique_ptr<ReeMonoidState> state_;
};

/// Runs the level closure of `graph` in `representation`, charging
/// options.budget as the check would. A budget or cap trip still returns a
/// (not complete) monoid; cancellation and injected faults are errors.
Result<ReeMonoid> CloseReeMonoid(const DataGraph& graph,
                                 ReeRepresentation representation,
                                 const ReeDefinabilityOptions& options = {});

/// Decides whether `relation` is definable by an RDPQ_= on `graph`: closes
/// the monoid (CloseReeMonoid) in ReeRepresentationFor(graph,
/// options.engine) and runs the cover test on it.
Result<ReeDefinabilityResult> CheckReeDefinability(
    const DataGraph& graph, const BinaryRelation& relation,
    const ReeDefinabilityOptions& options = {});

/// Same decision on a density-adaptive relation. The monoid interner is
/// semantic, so verdict, levels_used, monoid_size and the synthesized
/// expression do not depend on the relation's backend.
Result<ReeDefinabilityResult> CheckReeDefinability(
    const DataGraph& graph, const AdaptiveRelation& relation,
    const ReeDefinabilityOptions& options = {});

/// The decision alone (Lemma 30's cover test plus synthesis) against a
/// prebuilt `monoid` of `graph`, in any representation and for a relation
/// on any backend. Charges nothing: a caller reusing a monoid closed for
/// another check calls monoid.ChargeReuse first.
Result<ReeDefinabilityResult> CheckReeDefinability(
    const ReeMonoid& monoid, const DataGraph& graph,
    const AdaptiveRelation& relation);

}  // namespace gqd

#endif  // GQD_DEFINABILITY_REE_DEFINABILITY_H_
