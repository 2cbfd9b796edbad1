// The k-assignment graph T_G (Definition 19 of the paper).
//
// States are pairs (v, σ) of a graph node and a register assignment over
// D_G ∪ {⊥}. A transition (v, σ) —↓r̄.a[c]→ (v', σ') exists when
// (v, a, v') ∈ E, σ' = σ[r̄ → ρ(v)], and ρ(v'), σ' ⊨ c.
//
// For the definability search the transition alphabet is finite: store sets
// r̄ range over the 2^k register subsets and conditions over the 2^(2^k)
// semantically distinct minterm masks. A transition under (r̄, a) is
// annotated with the *equality pattern* of the target value against σ' — a
// condition mask then selects successors by pattern membership without
// re-deriving anything.
//
// AgStateSpace holds the state encoding and the transition rule itself
// (ForEachSuccessor): a successor is a few integer operations on v's
// out-edges and σ's code. The sparse tuple store calls it on the fly for
// the states its frontier touches; AssignmentGraph materializes it for
// every state, as the dense store's CSR lists and kernel rows.
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
// dense k-REM/RPQ search splits into a per-(G, k) setup (KRemSetup in
// definability/krem_definability.h, which holds an AssignmentGraph only
// for the dense store) and a per-S search, and `gqd serve` keeps the
// setups on the graph's registry entry. ChargeReuse replays the build's
// failpoint and budget charges for such a reused graph.

#ifndef GQD_DEFINABILITY_ASSIGNMENT_GRAPH_H_
#define GQD_DEFINABILITY_ASSIGNMENT_GRAPH_H_

#include <cstdint>
#include <span>
#include <utility>
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

/// The states of T_G for a fixed register count k, and its transition
/// rule. State (v, σ) is v·(δ+1)^k + code(σ), where code(σ) has register
/// r_{i+1} as its base-(δ+1) digit i and digit δ stands for ⊥. Everything
/// here is 32-bit arithmetic: the encoding requires n·(δ+1)^k < 2^32.
class AgStateSpace {
 public:
  AgStateSpace() = default;

  /// The register count the encoding (and the 8-bit pattern) supports.
  static constexpr std::size_t kMaxRegisters = 4;
  /// The largest state count the 32-bit encoding holds.
  static constexpr std::uint64_t kMaxStates = 0xffffffffu;

  /// Requires k <= kMaxRegisters and StateCount(graph, k) <= kMaxStates.
  AgStateSpace(const DataGraph& graph, std::size_t k);

  /// OutOfRange when k > kMaxRegisters.
  static Status CheckRegisterCount(std::size_t k);

  /// n·(δ+1)^k, saturating at the largest std::uint64_t.
  static std::uint64_t StateCount(const DataGraph& graph, std::size_t k);

  std::size_t k() const { return k_; }
  std::size_t num_nodes() const { return num_nodes_; }
  std::size_t num_labels() const { return num_labels_; }
  std::size_t num_store_masks() const { return std::size_t{1} << k_; }
  std::size_t num_patterns() const { return std::size_t{1} << k_; }
  /// (δ+1)^k.
  std::uint32_t assignment_codes() const { return codes_; }
  /// n · (δ+1)^k.
  std::size_t num_states() const {
    return num_nodes_ * static_cast<std::size_t>(codes_);
  }

  /// The state (v, ⊥^k): ⊥^k is the all-δ code, (δ+1)^k − 1.
  AgState InitialState(NodeId v) const { return v * codes_ + codes_ - 1; }

  /// The node component of a state (at k = 0, the state itself).
  NodeId NodeOf(AgState state) const {
    return k_ == 0 ? state : state / codes_;
  }

  /// Decodes the assignment component of a state.
  RegisterAssignment AssignmentOf(AgState state) const;

  /// Definition 19's transitions out of (v, σ), σ given by its `code`,
  /// under store set `store_mask` and letter `label`: calls
  /// fn(target, pattern) once per a-edge (v, a, v') in OutEdges(v) order,
  /// where target is (v', σ') with σ' = σ[r̄ → ρ(v)], and bit r of pattern
  /// says σ'(r_{r+1}) = ρ(v') (⊥ equals no value). A block ↓r̄.a[c] admits
  /// the successor iff c's minterm mask contains `pattern`.
  template <typename Fn>
  void ForEachSuccessor(const DataGraph& graph, NodeId v, std::uint32_t code,
                        std::uint32_t store_mask, LabelId label,
                        Fn&& fn) const {
    if (k_ == 0) {  // the state is the node, and every pattern is 0
      for (const LabeledEdge& edge : graph.OutEdges(v)) {
        if (edge.label == label) {
          fn(static_cast<AgState>(edge.node), std::uint8_t{0});
        }
      }
      return;
    }
    // σ' digit by digit, and its code.
    std::uint32_t digits[kMaxRegisters];
    std::uint32_t target_code = 0;
    const ValueId stored = graph.DataValueOf(v);
    for (std::uint32_t r = 0, place = 1; r < k_; r++, place *= base_) {
      std::uint32_t digit = code % base_;
      code /= base_;
      digits[r] = ((store_mask >> r) & 1u) ? stored : digit;
      target_code += digits[r] * place;
    }
    for (const LabeledEdge& edge : graph.OutEdges(v)) {
      if (edge.label != label) {
        continue;
      }
      const ValueId value = graph.DataValueOf(edge.node);
      std::uint8_t pattern = 0;
      for (std::uint32_t r = 0; r < k_; r++) {
        pattern |= static_cast<std::uint8_t>((digits[r] == value) << r);
      }
      fn(static_cast<AgState>(edge.node * codes_ + target_code), pattern);
    }
  }

  /// The same transitions out of a state given whole.
  template <typename Fn>
  void ForEachSuccessor(const DataGraph& graph, AgState state,
                        std::uint32_t store_mask, LabelId label,
                        Fn&& fn) const {
    NodeId v = NodeOf(state);
    ForEachSuccessor(graph, v, state - v * codes_, store_mask, label,
                     std::forward<Fn>(fn));
  }

 private:
  std::uint32_t k_ = 0;
  std::size_t num_nodes_ = 0;
  std::size_t num_labels_ = 0;
  std::uint32_t base_ = 1;   // δ + 1
  std::uint32_t codes_ = 1;  // (δ+1)^k
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

  /// The state encoding and transition rule the lists materialize.
  const AgStateSpace& space() const { return space_; }
  std::size_t k() const { return space_.k(); }
  /// n · (δ+1)^k.
  std::size_t num_states() const { return num_states_; }
  std::size_t num_nodes() const { return space_.num_nodes(); }
  std::size_t num_labels() const { return space_.num_labels(); }
  std::size_t num_store_masks() const { return space_.num_store_masks(); }
  std::size_t num_patterns() const { return space_.num_patterns(); }

  /// The state (v, ⊥^k).
  AgState InitialState(NodeId v) const { return space_.InitialState(v); }

  /// The node component of a state.
  NodeId NodeOf(AgState state) const { return space_.NodeOf(state); }

  /// Decodes the assignment component of a state.
  RegisterAssignment AssignmentOf(AgState state) const {
    return space_.AssignmentOf(state);
  }

  /// A successor under a fixed (store set, letter), annotated with the
  /// equality pattern of the target node's value against the post-store
  /// assignment σ' (see AgStateSpace::ForEachSuccessor).
  struct Successor {
    AgState state;
    std::uint8_t pattern;
  };

  /// Successors of `state` under store set `store_mask` and letter `label`:
  /// what AgStateSpace::ForEachSuccessor yields, in its order.
  std::span<const Successor> SuccessorsOf(std::uint32_t store_mask,
                                          LabelId label,
                                          AgState state) const {
    std::size_t row =
        (store_mask * num_labels() + label) * num_states_ + state;
    return {successors_.data() + offsets_[row],
            successors_.data() + offsets_[row + 1]};
  }

  // --- Word-parallel transition kernel -------------------------------------
  //
  // Build() additionally materializes, for every (store_mask, label,
  // pattern), a row-indexed bitset adjacency: row s is the set of successor
  // states of s whose equality pattern is `pattern`, packed as
  // ⌈|Q|/64⌉ words. The planned engine's kDense transitions (see
  // analysis/plan/kernel_dispatch.h) then derive a frontier's successors as
  // word-parallel unions — `part |= row(s)` covers 64 target states per
  // instruction — instead of pushing successors one at a time. Rows are
  // stored flat (one contiguous word vector, fixed stride), one allocation
  // rather than |masks|·|Σ|·|patterns|·|Q| of them.
  //
  // The kernel is skipped (has_kernel() == false) when its footprint would
  // exceed kKernelMemoryBudgetBytes; the dispatch table then classifies no
  // transition kDense.

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
           (((store_mask * num_labels() + label) * num_patterns() + pattern) *
                num_states_ +
            state) *
               kernel_row_words_;
  }

  /// Upper bound on the flat kernel's size; beyond it Build() leaves the
  /// kernel unmaterialized and callers use the successor lists.
  static constexpr std::size_t kKernelMemoryBudgetBytes =
      std::size_t{64} << 20;

 private:
  AssignmentGraph() = default;

  AgStateSpace space_;
  std::size_t num_states_ = 0;  ///< space_.num_states(), as Build sized it
  /// Row (mask·|Σ| + a)·|Q| + s — the successors of s under (mask, a) — is
  /// successors_[offsets_[row], offsets_[row + 1]).
  std::vector<std::uint32_t> offsets_;
  std::vector<Successor> successors_;
  /// Flat kernel rows, stride kernel_row_words_, indexed as in KernelRow.
  std::vector<std::uint64_t> kernel_words_;
  std::size_t kernel_row_words_ = 0;
  // Build's budget charges, for ChargeReuse and BuildChargeBytes.
  std::uint64_t adjacency_bytes_ = 0;  ///< offsets plus entries
  std::uint64_t kernel_bytes_ = 0;  ///< 0 unless the kernel was built
  bool kernel_dropped_for_budget_ = false;
};

}  // namespace gqd

#endif  // GQD_DEFINABILITY_ASSIGNMENT_GRAPH_H_
