// The k-assignment graph T_G (Definition 19 of the paper).
//
// States are pairs (v, σ) of a graph node and a register assignment over
// D_G ∪ {⊥}. A transition (v, σ) —↓r̄.a[c]→ (v', σ') exists when
// (v, a, v') ∈ E, σ' = σ[r̄ → ρ(v)], and ρ(v'), σ' ⊨ c.
//
// For the definability search the transition alphabet is finite: store sets
// r̄ range over the 2^k register subsets and conditions over the 2^(2^k)
// semantically distinct minterm masks. This class pre-computes, for every
// (r̄, a) pair and every state, the successor states *annotated with the
// equality pattern of the target value against σ'* — a condition mask then
// selects successors by pattern membership without re-deriving anything.
//
// Layout: the successor lists are one CSR structure — a std::uint32_t
// offset per row (r̄, a, s), indexed (mask·|Σ| + a)·|Q| + s, plus one
// contiguous Successor array. Each state (v, σ) has exactly one entry per
// (store set, out-edge of v), so the array holds exactly 2^k·(δ+1)^k·|E|
// entries; Build knows both sizes in advance, charges them to the budget
// before allocating, and fills the rows in index order. A graph whose
// entry count overflows the offsets is refused like one over the state cap.
//
// T_G depends on (G, k) only, never on the relation S being checked, so one
// built graph serves any number of checks over the same data graph: the
// k-REM/RPQ checkers split into a per-(G, k) setup (KRemSetup in
// definability/krem_definability.h) and a per-S search, and `gqd serve`
// keeps the setups on the graph's registry entry. ChargeReuse replays the
// build's failpoint and budget charges for such a reused graph.

#ifndef GQD_DEFINABILITY_ASSIGNMENT_GRAPH_H_
#define GQD_DEFINABILITY_ASSIGNMENT_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/budget.h"
#include "common/status.h"
#include "graph/data_graph.h"
#include "rem/condition.h"

namespace gqd {

/// Dense index of an assignment-graph state (v, σ).
using AgState = std::uint32_t;

/// One transition block label ↓r̄.a[c] of a basic k-REM (Definition 16).
struct BasicRemBlock {
  std::uint32_t store_mask;  ///< bit i set ⟺ r_{i+1} ∈ r̄
  LabelId label;             ///< a
  MintermMask condition;     ///< c as a minterm set (see rem/condition.h)
};

/// The assignment graph of a data graph for a fixed register count k.
class AssignmentGraph {
 public:
  /// Requires k <= 4 (the transition alphabet has 2^k · |Σ| · 2^(2^k)
  /// letters; beyond k = 4 the construction is pointless in practice).
  ///
  /// When `budget` is given, the CSR adjacency (offsets plus entries) is
  /// charged against it up front and exhaustion fails with
  /// ResourceExhausted before anything is allocated; the optional
  /// word-parallel kernel, charged next, instead *degrades* — it is skipped
  /// when it would not fit the remaining budget, and callers fall back to
  /// SuccessorsOf (slower, but correct).
  ///
  /// Beyond 2^24 states, or 2^32 − 1 successor entries, the build is
  /// refused before allocating anything: with OutOfRange, or — when
  /// `budget` carries a byte limit — with ResourceExhausted naming the
  /// adjacency bytes, so a budgeted caller sees a budget outcome (CLI
  /// exit 4) rather than a hard error.
  static Result<AssignmentGraph> Build(const DataGraph& graph, std::size_t k,
                                       const ResourceBudget* budget = nullptr);

  // --- Reuse across checks --------------------------------------------------

  /// Bytes Build charged a budget: the CSR offsets and entries, plus the
  /// kernel rows when the budget had a byte limit (only then is the kernel
  /// charged).
  std::uint64_t BuildChargeBytes(bool byte_limited) const {
    return adjacency_bytes_ + (byte_limited ? kernel_bytes_ : 0);
  }

  /// True when Build skipped the kernel only to fit a byte budget: the
  /// graph is then shaped by that one budget and must not be reused.
  bool kernel_dropped_for_budget() const { return kernel_dropped_for_budget_; }

  /// Replays, against `budget`, what Build did to it: the
  /// assignment_graph.build failpoint, then the same charges in the same
  /// order with the same exhaustion checks. Returns the status Build would
  /// have returned — provided `budget` has room for BuildChargeBytes(true)
  /// when it has a byte limit (otherwise Build would have dropped the
  /// kernel or tripped mid-build, and the caller must build afresh).
  Status ChargeReuse(const ResourceBudget* budget) const;

  /// Frees the kernel rows once a consumer that never reads them (a
  /// dispatch table without kDense transitions) is in place. has_kernel()
  /// turns false; the recorded build charges stay as they were.
  void ReleaseKernelRows();

  /// Resident bytes: the CSR adjacency plus any kernel rows still held.
  std::size_t HeldBytes() const;

  std::size_t k() const { return k_; }
  /// n · (δ+1)^k.
  std::size_t num_states() const { return num_states_; }
  std::size_t num_nodes() const { return num_nodes_; }
  std::size_t num_labels() const { return num_labels_; }
  std::size_t num_store_masks() const { return std::size_t{1} << k_; }
  std::size_t num_patterns() const { return std::size_t{1} << k_; }

  /// The state (v, ⊥^k).
  AgState InitialState(NodeId v) const;

  /// The node component of a state.
  NodeId NodeOf(AgState state) const {
    return static_cast<NodeId>(state / assignment_codes_);
  }

  /// Decodes the assignment component of a state.
  RegisterAssignment AssignmentOf(AgState state) const;

  /// A successor under a fixed (store set, letter), annotated with the
  /// equality pattern of the target node's value against the post-store
  /// assignment σ'. A block ↓r̄.a[c] admits the successor iff c's minterm
  /// mask contains `pattern`.
  struct Successor {
    AgState state;
    std::uint8_t pattern;
  };

  /// Successors of `state` under store set `store_mask` and letter `label`,
  /// in the order of OutEdges(NodeOf(state)).
  std::span<const Successor> SuccessorsOf(std::uint32_t store_mask,
                                          LabelId label,
                                          AgState state) const {
    std::size_t row = (store_mask * num_labels_ + label) * num_states_ + state;
    return {successors_.data() + offsets_[row],
            successors_.data() + offsets_[row + 1]};
  }

  // --- Word-parallel transition kernel -------------------------------------
  //
  // Build() additionally materializes, for every (store_mask, label,
  // pattern), a row-indexed bitset adjacency: row s is the set of successor
  // states of s whose equality pattern is `pattern`, packed as
  // ⌈|Q|/64⌉ words. The definability BFS then derives a frontier's
  // successors as word-parallel unions — `part |= row(s)` covers 64 target
  // states per instruction — instead of pushing successors one at a time.
  // Rows are stored flat (one contiguous word vector, fixed stride) so the
  // whole kernel is two allocations, not |masks|·|Σ|·|patterns|·|Q| of them.
  //
  // The kernel is skipped (has_kernel() == false) when its footprint would
  // exceed kKernelMemoryBudgetBytes; callers fall back to SuccessorsOf.

  /// Rows materialized at Build time and within the memory budget?
  bool has_kernel() const { return !kernel_words_.empty(); }

  /// Words per kernel row (⌈num_states/64⌉).
  std::size_t kernel_row_words() const { return kernel_row_words_; }

  /// Pointer to the packed successor row of `state` under (store_mask,
  /// label) restricted to equality pattern `pattern`; kernel_row_words()
  /// words. Requires has_kernel().
  const std::uint64_t* KernelRow(std::uint32_t store_mask, LabelId label,
                                 std::uint32_t pattern, AgState state) const {
    return kernel_words_.data() +
           (((store_mask * num_labels_ + label) * num_patterns_ + pattern) *
                num_states_ +
            state) *
               kernel_row_words_;
  }

  /// Bitmask over patterns with at least one successor of `state` under
  /// (store_mask, label) — lets the BFS skip all-zero kernel rows without
  /// touching them. Requires has_kernel().
  std::uint16_t AchievedPatternsAt(std::uint32_t store_mask, LabelId label,
                                  AgState state) const {
    return kernel_patterns_[(store_mask * num_labels_ + label) * num_states_ +
                            state];
  }

  /// Upper bound on the flat kernel's size; beyond it Build() leaves the
  /// kernel unmaterialized and callers use the successor lists.
  static constexpr std::size_t kKernelMemoryBudgetBytes =
      std::size_t{64} << 20;

 private:
  AssignmentGraph() = default;

  std::size_t k_ = 0;
  std::size_t num_nodes_ = 0;
  std::size_t num_labels_ = 0;
  std::size_t num_values_ = 0;
  std::size_t num_patterns_ = 1;  // 2^k
  std::uint64_t assignment_codes_ = 1;  // (δ+1)^k
  std::size_t num_states_ = 0;
  /// Row (mask·|Σ| + a)·|Q| + s — the successors of s under (mask, a) — is
  /// successors_[offsets_[row], offsets_[row + 1]).
  std::vector<std::uint32_t> offsets_;
  std::vector<Successor> successors_;
  /// Flat kernel rows, stride kernel_row_words_, indexed as in KernelRow.
  std::vector<std::uint64_t> kernel_words_;
  /// Achieved-pattern masks, indexed as in AchievedPatternsAt.
  std::vector<std::uint16_t> kernel_patterns_;
  std::size_t kernel_row_words_ = 0;
  // Build's budget charges, for ChargeReuse and BuildChargeBytes.
  std::uint64_t adjacency_bytes_ = 0;  ///< offsets plus entries
  std::uint64_t kernel_bytes_ = 0;  ///< 0 unless the kernel was built
  bool kernel_dropped_for_budget_ = false;
};

}  // namespace gqd

#endif  // GQD_DEFINABILITY_ASSIGNMENT_GRAPH_H_
