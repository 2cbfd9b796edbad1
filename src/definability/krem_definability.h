// k-RDPQ_mem-definability (Section 3.1, Theorem 22) and, at k = 0,
// RPQ-definability (the baseline of Antonopoulos–Neven–Servais).
//
// By Lemmas 18/20/21, S is definable by a k-register REM iff every pair
// ⟨v_p, v_q⟩ ∈ S has a *k-REM witness*: a basic k-REM e (a block sequence
// ↓r̄_1.a_1[c_1] ··· ↓r̄_m.a_m[c_m]) such that
//   (1) some run (v_p, ⊥^k) —e→ (v_q, ·) exists in the assignment graph, and
//   (2) every run (v_i, ⊥^k) —e→ (v', ·) has ⟨v_i, v'⟩ ∈ S.
//
// The checker runs BFS over the deterministic *macro-tuple* system: a tuple
// ⟨Q_1, ..., Q_n⟩ of assignment-graph state sets, Q_i = states reachable
// from (v_i, ⊥^k) along the block prefix read so far (sequence (2) in the
// proof of Lemma 21). A tuple is *safe* when condition (2) holds of it, and
// accepts ⟨v_p, v_q⟩ when it is safe and v_q appears in Q_p. The paper's
// pigeonhole bound 2^(n²(δ+1)^k) on witness length is exactly the number of
// distinct tuples, i.e. the BFS's worst-case frontier — hence the explicit
// tuple budget.

#ifndef GQD_DEFINABILITY_KREM_DEFINABILITY_H_
#define GQD_DEFINABILITY_KREM_DEFINABILITY_H_

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "analysis/plan/kernel_dispatch.h"
#include "common/budget.h"
#include "common/cancel.h"
#include "common/interner.h"
#include "common/status.h"
#include "definability/assignment_graph.h"
#include "definability/verdict.h"
#include "graph/data_graph.h"
#include "graph/relation.h"
#include "graph/sparse_relation.h"
#include "rem/ast.h"

namespace gqd {

/// A k-REM witness for one pair of S: the block sequence of a basic k-REM
/// (empty sequence = the ε expression, witnessing diagonal pairs). Every
/// pair accepted by one macro tuple has the same witness (Lemma 21), so
/// `blocks` views that tuple's path in its KRemDefinabilityResult, which
/// keeps the blocks alive (copies of the result included).
struct KRemWitness {
  NodeId from;
  NodeId to;
  std::span<const BasicRemBlock> blocks;
  /// Index of `blocks` in KRemDefinabilityResult::paths.
  std::size_t path;
};

/// Which successor machinery the dense tuple store runs on. Both engines
/// explore tuples in the same canonical order and compute the same
/// successor bits, so verdicts, witnesses and tuples_explored are identical
/// at every thread count — the reference engine exists as a
/// differential-testing oracle for the planned one (see
/// tests/test_definability_diff).
enum class KRemEngine {
  /// Specialized per-transition kernels picked by the query-plan static
  /// analyzer (analysis/plan/kernel_dispatch.h): identity, single-bit,
  /// CSR-sparse or dense inner loops clipped to the word spans each
  /// transition can touch. Runs the reference walk when the dispatch table
  /// declines to build. The default.
  kPlanned,
  /// Straightforward per-successor derivation with from-scratch subset
  /// unions — the shape of the original implementation, kept as an oracle.
  kReference,
};

/// How the BFS stores macro tuples. Both stores intern tuples semantically
/// (two tuples are equal iff their state *sets* are), explore them in the
/// same canonical order, and produce identical verdicts, witnesses and
/// tuples_explored — they differ only in memory shape and in how budget
/// bytes are charged (each charges its actual allocation, so byte-budget
/// trip points are store-specific).
enum class KRemTupleStore {
  /// kDense while one flat tuple fits kDenseTupleBytesCap and the
  /// assignment graph is within AssignmentGraph::WithinCaps, else
  /// kSparseFrontier. The default.
  kAuto,
  /// Flat bitset tuples, n·⌈|Q|/64⌉ words each — O(n²) per tuple at k = 0,
  /// fast word-parallel engines, the historical representation.
  kDense,
  /// Sorted (node, state) entry lists — memory proportional to the live
  /// frontier states instead of n², the only representation that fits
  /// million-node graphs. Successors are derived on the fly from the
  /// graph's out-edges (AgStateSpace::ForEachSuccessor), so no assignment
  /// graph is built. Runs sequentially: the `engine` and `num_threads`
  /// options are ignored, with bit-identical results.
  kSparseFrontier,
};

/// Above this dense-tuple footprint (words × 8 bytes) KRemTupleStore::kAuto
/// switches to the sparse frontier store (as it does past the dense
/// store's assignment-graph caps).
inline constexpr std::size_t kDenseTupleBytesCap = std::size_t{64} << 20;

struct KRemDefinabilityOptions {
  /// Maximum number of distinct macro tuples to explore before giving up.
  std::size_t max_tuples = 200'000;
  /// Successor-generation workers for each BFS frontier step. The
  /// independent (store set, letter) blocks of the current tuple fan out
  /// across a shared ThreadPool; results merge back in canonical block
  /// order, so verdicts, witnesses and tuples_explored are bit-identical
  /// for every thread count. 0 or 1 means sequential; more than the
  /// hardware's concurrency is clamped to it (but never below 2). The
  /// sparse frontier store always runs sequentially.
  std::size_t num_threads = 1;
  /// Successor machinery; kPlanned unless you are cross-checking. Ignored
  /// by the sparse frontier tuple store (successors from the graph).
  KRemEngine engine = KRemEngine::kPlanned;
  /// Macro-tuple representation; kAuto unless you are cross-checking.
  KRemTupleStore tuple_store = KRemTupleStore::kAuto;
  /// Optional cooperative cancellation: the BFS (and its workers) polls
  /// this token and returns Status::DeadlineExceeded once it expires.
  const CancelToken* cancel = nullptr;
  /// Optional resource governance: the tuple store charges its allocations
  /// here and the BFS polls it at frontier boundaries. On exhaustion the
  /// checker stops cleanly with verdict kBudgetExhausted and a populated
  /// `partial` report (see KRemDefinabilityResult) instead of growing
  /// without bound.
  const ResourceBudget* budget = nullptr;
};

struct KRemDefinabilityResult {
  DefinabilityVerdict verdict = DefinabilityVerdict::kBudgetExhausted;
  /// One witness per pair of S, in Pairs() order (populated iff verdict ==
  /// kDefinable). The search itself records only each pair's path index;
  /// CheckKRemDefinability builds this vector from those, and the RPQ
  /// checker builds its RpqWitness vector from the same indices instead,
  /// so neither pays for the other's per-pair vector.
  std::vector<KRemWitness> witnesses;
  /// Each distinct witness path once — one per macro tuple that accepted
  /// some pair — in the order of the first pair it witnesses. Distinct
  /// tuples have distinct paths, so no two entries are equal.
  std::vector<std::span<const BasicRemBlock>> paths;
  /// Owns the blocks `paths` and `witnesses` view, one run per path;
  /// shared, so every copy of the result keeps its views valid.
  std::shared_ptr<const std::vector<BasicRemBlock>> path_blocks;
  /// Macro tuples explored (the E2 bench's cost measure).
  std::size_t tuples_explored = 0;
  /// Set iff an options.budget trip stopped the search: how far it got.
  /// (The legacy max_tuples cap reports kBudgetExhausted without this.)
  std::optional<PartialProgress> partial;
};

/// The per-(G, k) half of a k-REM check: the state encoding of T_G
/// (Definition 19) and, for the dense tuple store, the materialized
/// assignment graph plus — for the planned engine — its kernel dispatch
/// table. The sparse frontier store derives successors from the graph on
/// the fly, so its setup holds the encoding alone. None of it depends on
/// S, so one setup decides any number of relations over the same graph
/// (CheckKRemDefinability with a setup, below). Immutable once built; safe
/// to share across threads.
///
/// When the dispatch table is enabled and classifies no transition as
/// kDense, the planned engine never reads the assignment graph's kernel
/// rows, so the setup releases them (the successor lists stay).
class KRemSetup {
 public:
  std::size_t k() const { return space_.k(); }
  /// The state encoding and transition rule the search runs on.
  const AgStateSpace& state_space() const { return space_; }
  /// The materialized assignment graph, or nullptr on the sparse frontier
  /// store.
  const AssignmentGraph* assignment_graph() const {
    return graph_.has_value() ? &*graph_ : nullptr;
  }
  /// The dispatch table, or nullptr when none was built (non-planned
  /// engine or sparse frontier store).
  const KernelDispatchTable* dispatch() const {
    return with_dispatch_ ? &dispatch_ : nullptr;
  }
  /// The tuple store the search runs on (kDense or kSparseFrontier).
  KRemTupleStore tuple_store() const { return store_; }

  /// Could a fresh build for a check with `options` on this graph differ
  /// from this setup? False when the engine or tuple store would build a
  /// different setup, or when options.budget could change the build: a
  /// byte limit the recorded charges could reach (Build drops the kernel
  /// or trips under it). A reusable setup plus ChargeReuse reproduces the
  /// cold check exactly — verdict, tuples_explored, partial progress. A
  /// sparse setup charges nothing, so only the store decides.
  bool ReusableFor(const KRemDefinabilityOptions& options) const;

  /// True when a check with `options` runs on this setup's shape: the same
  /// tuple store and, on the dense store, the same engine.
  bool Suits(const KRemDefinabilityOptions& options) const;

  /// True when nothing about this setup was shaped by the budget it was
  /// built under, so it may serve other checks.
  bool shareable() const {
    return !graph_.has_value() || !graph_->kernel_dropped_for_budget();
  }

  /// Replays the build's failpoint and budget charges (see
  /// AssignmentGraph::ChargeReuse) for a check that reuses this setup; a
  /// sparse setup built nothing, so there is nothing to replay.
  Status ChargeReuse(const ResourceBudget* budget) const;

  /// Resident bytes of the assignment graph and dispatch table (0 for a
  /// sparse setup).
  std::size_t HeldBytes() const;

 private:
  friend Result<KRemSetup> BuildKRemSetup(const DataGraph& graph,
                                          std::size_t k,
                                          const KRemDefinabilityOptions&);
  KRemSetup() = default;

  AgStateSpace space_;
  std::optional<AssignmentGraph> graph_;  ///< dense store only
  KernelDispatchTable dispatch_;
  bool with_dispatch_ = false;
  KRemTupleStore store_ = KRemTupleStore::kDense;
  KRemTupleStore auto_store_ = KRemTupleStore::kDense;  ///< what kAuto picks
  KRemEngine engine_ = KRemEngine::kPlanned;
};

/// Builds the setup a check with `options` needs for `graph` and k,
/// charging options.budget exactly as the check itself would. Fails on
/// k > 4, on the injected failpoint or a budget trip in the dense store's
/// AssignmentGraph::Build, and past each store's state cap: 2^24 states
/// (and 2^32 − 1 successor entries) for the dense store's materialized
/// CSR, 2^32 − 1 states for the sparse store's packed entries. Over a cap
/// the refusal is ResourceExhausted when options.budget has a byte limit,
/// else OutOfRange. kAuto never picks the dense store past its caps, so
/// only a forced kDense meets the dense refusal.
Result<KRemSetup> BuildKRemSetup(const DataGraph& graph, std::size_t k,
                                 const KRemDefinabilityOptions& options = {});

/// Decides whether S is definable by an RDPQ_mem using at most k registers.
/// Requires k <= 4 (see AssignmentGraph::Build). Builds the setup
/// (BuildKRemSetup) and runs the search on it.
Result<KRemDefinabilityResult> CheckKRemDefinability(
    const DataGraph& graph, const BinaryRelation& relation, std::size_t k,
    const KRemDefinabilityOptions& options = {});

/// Same decision on a density-adaptive relation. The search's pair book
/// reads S as CSR rows in Pairs() order: the sparse backend's own
/// offset/column arrays in place, or one CSR built from the rows of any
/// other backend. The sparse tuple store's acceptance merge-walks a
/// tuple's sorted entries against those rows; the dense store probes
/// membership (relation.Test). So any backend works without
/// densification, and verdicts are bit-identical to the dense overload on
/// the same pair set.
Result<KRemDefinabilityResult> CheckKRemDefinability(
    const DataGraph& graph, const AdaptiveRelation& relation, std::size_t k,
    const KRemDefinabilityOptions& options = {});

/// The search half alone, on a prebuilt `setup` for this `graph`
/// (InvalidArgument unless setup.Suits(options)). Charges options.budget
/// only for the search: a caller reusing a setup built for another check
/// calls setup.ChargeReuse first. An empty S is decided without the setup.
Result<KRemDefinabilityResult> CheckKRemDefinability(
    const KRemSetup& setup, const DataGraph& graph,
    const AdaptiveRelation& relation,
    const KRemDefinabilityOptions& options = {});

/// RDPQ_mem-definability with unbounded registers: by Lemma 23 this equals
/// δ-RDPQ_mem-definability, so this calls CheckKRemDefinability with
/// k = min(δ, needed) — δ registers always suffice, and fewer than δ are
/// never *required* to exceed (the call still fails with OutOfRange when
/// δ > 4, the practical wall the E3 bench demonstrates).
Result<KRemDefinabilityResult> CheckRemDefinability(
    const DataGraph& graph, const BinaryRelation& relation,
    const KRemDefinabilityOptions& options = {});

/// Unbounded-register decision on a density-adaptive relation.
Result<KRemDefinabilityResult> CheckRemDefinability(
    const DataGraph& graph, const AdaptiveRelation& relation,
    const KRemDefinabilityOptions& options = {});

/// Materializes a witness's block sequence as a basic k-REM AST
/// (Definition 16); the empty sequence yields ε. Conditions equal to the
/// full minterm set and empty store sets are omitted for readability.
RemPtr BasicRemFromBlocks(std::span<const BasicRemBlock> blocks,
                          std::size_t k, const StringInterner& labels);

}  // namespace gqd

#endif  // GQD_DEFINABILITY_KREM_DEFINABILITY_H_
