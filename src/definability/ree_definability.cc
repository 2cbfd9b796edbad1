#include "definability/ree_definability.h"

#include <cstdint>
#include <vector>

#include "common/failpoint.h"
#include "definability/small_relation.h"
#include "obs/trace.h"

namespace gqd {

namespace {

GQD_FAILPOINT_DEFINE(fp_ree_closure, "ree.closure");

/// Policy for the generic level algorithm over plain BinaryRelations.
/// With `masks` set, the =/≠ restrictions run rowized (one word-parallel
/// AND / AND-NOT per row against the source node's value class); with
/// `masks == nullptr` they run the retained per-bit reference loops.
struct BigRelationOps {
  using Rel = BinaryRelation;
  using Hash = BinaryRelationHash;

  const DataGraph* graph;
  const ValueClassMasks* masks;

  Rel Empty() const { return BinaryRelation(graph->NumNodes()); }
  Rel Identity() const { return BinaryRelation::Identity(graph->NumNodes()); }
  Rel FromLabel(LabelId a) const {
    return BinaryRelation::FromEdges(*graph, a);
  }
  Rel Compose(const Rel& a, const Rel& b) const { return a.Compose(b); }
  Rel Eq(const Rel& a) const {
    return masks != nullptr ? a.EqRestrict(*masks) : a.EqRestrict(*graph);
  }
  Rel Neq(const Rel& a) const {
    return masks != nullptr ? a.NeqRestrict(*masks) : a.NeqRestrict(*graph);
  }
  bool Subset(const Rel& a, const Rel& b) const { return a.IsSubsetOf(b); }
  void UnionInto(Rel* a, const Rel& b) const { a->UnionWith(b); }
  bool Equal(const Rel& a, const Rel& b) const { return a == b; }
  /// Actual bytes one materialized relation costs (budget accounting):
  /// dense rows are fixed-size, so the n²-bit matrix is exact.
  std::size_t ElementBytes(const Rel& /*rel*/) const {
    std::size_t n = graph->NumNodes();
    return sizeof(Rel) + n * ((n + 63) / 64) * sizeof(std::uint64_t);
  }
  /// S as an element: borrowed when dense, else expanded into `*storage`.
  const Rel& Target(const AdaptiveRelation& s, Rel* storage) const {
    if (s.backend() == RelationBackend::kDense) {
      return s.dense();
    }
    *storage = s.ToDense();
    return *storage;
  }
};

/// Policy over blocked (array/bitmap container) relations — what the
/// closure runs on above kDenseRelationMaxNodes nodes. Every
/// operation produces the same *set* the dense ops produce, and the monoid
/// interner is semantic (hash + Equal), so the closure enumerates the same
/// elements in the same order: verdict, levels_used, monoid_size and the
/// synthesized expression are identical to the dense engines. Compose
/// streams per-source frontiers through one n-bit scratch row instead of
/// materializing an n² intermediate.
struct BlockedRelationOps {
  using Rel = BlockedBinaryRelation;
  using Hash = BlockedBinaryRelationHash;

  const DataGraph* graph;
  const ValueClassMasks* masks;

  Rel Empty() const { return BlockedBinaryRelation(graph->NumNodes()); }
  Rel Identity() const {
    return BlockedBinaryRelation::Identity(graph->NumNodes());
  }
  Rel FromLabel(LabelId a) const {
    return BlockedBinaryRelation::FromEdges(*graph, a);
  }
  Rel Compose(const Rel& a, const Rel& b) const { return a.Compose(b); }
  Rel Eq(const Rel& a) const { return a.EqRestrict(*masks); }
  Rel Neq(const Rel& a) const { return a.NeqRestrict(*masks); }
  bool Subset(const Rel& a, const Rel& b) const { return a.IsSubsetOf(b); }
  void UnionInto(Rel* a, const Rel& b) const { a->UnionWith(b); }
  bool Equal(const Rel& a, const Rel& b) const { return a == b; }
  /// Actual per-element budget charge: blocked rows size with content, so
  /// the container's own heap accounting is the honest cost — a
  /// near-empty relation charges a few rows, a dense-ish one its bitmap
  /// blocks. Byte-budget trip points are therefore representation-exact,
  /// not a nominal per-element constant.
  std::size_t ElementBytes(const Rel& rel) const {
    return sizeof(Rel) + rel.ByteSize();
  }
  /// S as an element: borrowed when blocked, else rebuilt into `*storage`.
  const Rel& Target(const AdaptiveRelation& s, Rel* storage) const {
    if (s.backend() == RelationBackend::kBlocked) {
      return s.blocked();
    }
    *storage = BlockedBinaryRelation::FromPairs(s.num_nodes(), s.Pairs());
    return *storage;
  }
};

/// The splitmix64 finalizer. The interner probes from the hash's low bits,
/// which under the identity hash are only the packed matrix's first rows.
struct SmallRelationHash {
  std::size_t operator()(std::uint64_t bits) const {
    bits = (bits ^ (bits >> 30)) * 0xbf58476d1ce4e5b9ULL;
    bits = (bits ^ (bits >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(bits ^ (bits >> 31));
  }
};

/// Policy over packed 64-bit relations (n ≤ 8) — same algorithm, ~10-50×
/// cheaper per operation (the E9 ablation).
struct SmallRelationOps {
  using Rel = SmallRelation;
  using Hash = SmallRelationHash;

  const SmallRelationSpace* space;

  Rel Empty() const { return space->Empty(); }
  Rel Identity() const { return space->Identity(); }
  Rel FromLabel(LabelId a) const { return space->FromLabel(a); }
  Rel Compose(Rel a, Rel b) const { return space->Compose(a, b); }
  Rel Eq(Rel a) const { return space->EqRestrict(a); }
  Rel Neq(Rel a) const { return space->NeqRestrict(a); }
  bool Subset(Rel a, Rel b) const { return space->IsSubsetOf(a, b); }
  void UnionInto(Rel* a, Rel b) const { *a |= b; }
  bool Equal(Rel a, Rel b) const { return a == b; }
  std::size_t ElementBytes(Rel /*rel*/) const { return sizeof(Rel); }
  const Rel& Target(const AdaptiveRelation& s, Rel* storage) const {
    *storage = s.backend() == RelationBackend::kDense
                   ? space->Pack(s.dense())
                   : space->Pack(s.ToDense());
    return *storage;
  }
};

}  // namespace

/// How a monoid element was derived. The closure attempts |M|·|gens|
/// compositions but inserts only |M| of them, so REE ASTs are *not* built
/// eagerly per attempt — each element records this five-word recipe and the
/// few elements the greedy cover actually uses are materialized at the end.
struct ReeDerivation {
  enum class Kind : std::uint8_t { kEpsilon, kLetter, kConcat, kEq, kNeq };
  Kind kind = Kind::kEpsilon;
  std::uint32_t a = 0;  ///< left/only operand element index
  std::uint32_t b = 0;  ///< kConcat: right operand index; kLetter: label id
};

/// Everything a closed level monoid holds. Exactly one element vector is
/// used, the one of `representation`.
struct ReeMonoidState {
  ReeRepresentation representation = ReeRepresentation::kDense;
  std::optional<SmallRelationSpace> space;  ///< kPacked: packs S to decide
  std::vector<SmallRelation> packed;
  std::vector<BinaryRelation> dense;
  std::vector<BlockedBinaryRelation> blocked;
  std::vector<ReeDerivation> derivations;
  std::size_t levels_used = 0;
  /// close() rounds started — each one hit the ree.closure failpoint.
  std::size_t closures = 0;
  /// Bytes charged to options.budget (one ChargeTuples per element).
  std::uint64_t charged_bytes = 0;
  /// Stopped by options.budget or a monoid cap: decisions report this.
  bool tripped = false;
  std::optional<PartialProgress> partial;
  /// Ran to its fixpoint under the default caps (reusable).
  bool complete = false;
};

namespace {

template <typename Rel>
std::vector<Rel>& ElementsOf(ReeMonoidState* state);
template <>
std::vector<SmallRelation>& ElementsOf<SmallRelation>(ReeMonoidState* state) {
  return state->packed;
}
template <>
std::vector<BinaryRelation>& ElementsOf<BinaryRelation>(
    ReeMonoidState* state) {
  return state->dense;
}
template <>
std::vector<BlockedBinaryRelation>& ElementsOf<BlockedBinaryRelation>(
    ReeMonoidState* state) {
  return state->blocked;
}

/// The level closure (Definition 27 / Lemmas 28-29), generic over the
/// relation representation. See the header for the algebraic argument
/// (distribution of ∘ and =/≠ over +) that reduces levels to a ∘-monoid
/// with generator-only closure. Fills `state`; a budget or monoid-cap trip
/// leaves it `tripped` with a partial-progress report, while cancellation
/// and the injected ree.closure fault return an error.
template <typename Ops>
Status CloseLevels(const Ops& ops, std::size_t num_nodes,
                   std::size_t num_labels,
                   const ReeDefinabilityOptions& options,
                   ReeMonoidState* state) {
  using Rel = typename Ops::Rel;
  std::size_t max_levels =
      options.max_levels > 0 ? options.max_levels : num_nodes * num_nodes;
  GQD_TRACE_SPAN(algorithm_span, "ree.level_algorithm");
  GQD_TRACE_SPAN_ATTR(algorithm_span, "nodes", num_nodes);
  GQD_TRACE_SPAN_ATTR(algorithm_span, "labels", num_labels);

  // The monoid: distinct relations, each with one derivation recipe. The
  // interner is open-addressed over stored hashes — probes compare against
  // elements[slot] directly, so a relation is never copied into a map key.
  std::vector<Rel>& elements = ElementsOf<Rel>(state);
  std::vector<ReeDerivation>& derivations = state->derivations;
  std::vector<std::size_t> hashes;
  std::vector<std::size_t> slots(64, 0);  // index+1, 0 = empty; pow-2 size
  // Generator bookkeeping: right-multiplication by generators alone
  // enumerates the ∘-semigroup (every element is a generator product),
  // making the closure |M|·|gens| instead of |M|².
  std::vector<std::size_t> gens;
  std::vector<bool> is_gen;
  std::vector<std::size_t> applied;

  // The monoid cap reuses ResourceBudget accounting: the bytes axis caps
  // the *actual* representation size of the interned elements (exact for
  // dense, the container's heap footprint for blocked), the tuples axis
  // keeps the legacy element-count cap. Tripping either stops the closure
  // with a partial-progress verdict, exactly like an options.budget trip.
  const ResourceBudget monoid_budget(options.max_monoid_bytes,
                                     options.max_monoid_size);
  // Interner bookkeeping per element (hash, slot, derivation, flags).
  const std::size_t bookkeeping_bytes =
      3 * sizeof(std::size_t) + sizeof(ReeDerivation);

  auto add_element = [&](Rel rel, ReeDerivation derivation) -> std::size_t {
    std::size_t hash = typename Ops::Hash{}(rel);
    std::size_t mask = slots.size() - 1;
    std::size_t pos = hash & mask;
    while (slots[pos] != 0) {
      std::size_t index = slots[pos] - 1;
      if (hashes[index] == hash && ops.Equal(elements[index], rel)) {
        return index;
      }
      pos = (pos + 1) & mask;
    }
    std::size_t index = elements.size();
    elements.push_back(std::move(rel));
    derivations.push_back(derivation);
    hashes.push_back(hash);
    applied.push_back(0);
    is_gen.push_back(false);
    slots[pos] = index + 1;
    const std::size_t element_bytes =
        ops.ElementBytes(elements.back()) + bookkeeping_bytes;
    monoid_budget.ChargeBytes(static_cast<std::int64_t>(element_bytes));
    monoid_budget.ChargeTuples(1);
    state->charged_bytes += element_bytes;
    if (options.budget != nullptr) {
      options.budget->ChargeBytes(static_cast<std::int64_t>(element_bytes));
      options.budget->ChargeTuples(1);
    }
    if ((elements.size() + 1) * 4 > slots.size() * 3) {
      std::vector<std::size_t> bigger(slots.size() * 2, 0);
      std::size_t bigger_mask = bigger.size() - 1;
      for (std::size_t i = 0; i < elements.size(); i++) {
        std::size_t p = hashes[i] & bigger_mask;
        while (bigger[p] != 0) {
          p = (p + 1) & bigger_mask;
        }
        bigger[p] = i + 1;
      }
      slots.swap(bigger);
    }
    return index;
  };
  auto add_generator = [&](Rel rel, ReeDerivation derivation) {
    std::size_t i = add_element(std::move(rel), derivation);
    if (!is_gen[i]) {
      is_gen[i] = true;
      gens.push_back(i);
    }
  };

  add_generator(ops.Identity(), ReeDerivation{ReeDerivation::Kind::kEpsilon, 0, 0});
  for (LabelId a = 0; a < num_labels; a++) {
    add_generator(ops.FromLabel(a),
                  ReeDerivation{ReeDerivation::Kind::kLetter, 0, a});
  }

  std::uint32_t ticks = 0;
  std::uint32_t budget_ticks = 0;
  bool expired = false;
  bool injected = false;
  bool budget_tripped = false;
  bool monoid_tripped = false;
  auto close = [&]() -> bool {
    GQD_TRACE_SPAN(round_span, "ree.closure_round");
    GQD_TRACE_SPAN_ATTR(round_span, "elements_before", elements.size());
    state->closures++;
    if (GQD_FAILPOINT_FIRED(fp_ree_closure)) {
      injected = true;
      return false;
    }
    bool progress = true;
    while (progress) {
      progress = false;
      for (std::size_t i = 0; i < elements.size(); i++) {
        while (applied[i] < gens.size()) {
          if (GQD_CANCEL_STRIDE_CHECK(options.cancel, ticks)) {
            expired = true;
            return false;
          }
          if (GQD_BUDGET_STRIDE_CHECK(options.budget, budget_ticks)) {
            budget_tripped = true;
            return false;
          }
          std::size_t g = gens[applied[i]++];
          std::size_t before = elements.size();
          add_element(ops.Compose(elements[i], elements[g]),
                      ReeDerivation{ReeDerivation::Kind::kConcat,
                                 static_cast<std::uint32_t>(i),
                                 static_cast<std::uint32_t>(g)});
          if (elements.size() > before) {
            progress = true;
          }
          if (elements.size() > before && monoid_budget.Exhausted()) {
            monoid_tripped = true;
            return false;
          }
        }
      }
    }
    return true;
  };

  // Maps a failed close() to the corresponding outcome: cancellation,
  // injected fault, ResourceBudget trip, or the monoid byte/count cap —
  // both budget paths report partial progress.
  auto closure_failure = [&]() -> Status {
    if (expired) {
      return options.cancel->Check();
    }
    if (injected) {
      return Status::ResourceExhausted(
          "injected monoid closure failure (failpoint ree.closure)");
    }
    state->tripped = true;
    if (budget_tripped || (options.budget != nullptr &&
                           options.budget->Exhausted())) {
      state->partial =
          PartialProgress{elements.size(), state->levels_used,
                          options.budget->bytes_peak(), "ree-closure"};
    } else if (monoid_tripped || monoid_budget.Exhausted()) {
      state->partial =
          PartialProgress{elements.size(), state->levels_used,
                          monoid_budget.bytes_peak(), "ree-monoid"};
    }
    return Status::OK();
  };

  if (!close()) {
    return closure_failure();
  }
  for (std::size_t level = 0; level < max_levels; level++) {
    GQD_TRACE_SPAN(level_span, "ree.level");
    GQD_TRACE_SPAN_ATTR(level_span, "level", level);
    std::size_t before = elements.size();
    for (std::size_t i = 0; i < before; i++) {
      if (GQD_CANCEL_STRIDE_CHECK(options.cancel, ticks)) {
        return options.cancel->Check();
      }
      add_generator(ops.Eq(elements[i]),
                    ReeDerivation{ReeDerivation::Kind::kEq,
                               static_cast<std::uint32_t>(i), 0});
      add_generator(ops.Neq(elements[i]),
                    ReeDerivation{ReeDerivation::Kind::kNeq,
                               static_cast<std::uint32_t>(i), 0});
      if (GQD_BUDGET_STRIDE_CHECK(options.budget, budget_ticks)) {
        budget_tripped = true;
        return closure_failure();
      }
      if (monoid_budget.Exhausted()) {
        monoid_tripped = true;
        return closure_failure();
      }
    }
    if (elements.size() == before) {
      break;
    }
    state->levels_used = level + 1;
    if (!close()) {
      return closure_failure();
    }
  }
  const ReeDefinabilityOptions defaults;
  state->complete = options.max_levels == defaults.max_levels &&
                    options.max_monoid_size == defaults.max_monoid_size &&
                    options.max_monoid_bytes == defaults.max_monoid_bytes;
  GQD_TRACE_SPAN_ATTR(algorithm_span, "monoid_size", elements.size());
  GQD_TRACE_SPAN_ATTR(algorithm_span, "levels_used", state->levels_used);
  return Status::OK();
}

/// The decision of Lemma 30 plus greedy synthesis: S is definable iff it
/// equals the union of the monoid elements it contains. Reads the monoid
/// only, so any number of relations can be decided against one closure;
/// S is converted to the monoid's element type first.
template <typename Ops>
ReeDefinabilityResult DecideCover(const Ops& ops,
                                  const std::vector<typename Ops::Rel>& elements,
                                  const ReeMonoidState& state,
                                  const AdaptiveRelation& relation,
                                  const std::vector<std::string>& label_names) {
  using Rel = typename Ops::Rel;
  ReeDefinabilityResult result;
  result.levels_used = state.levels_used;
  result.monoid_size = elements.size();
  if (state.tripped) {
    result.verdict = DefinabilityVerdict::kBudgetExhausted;
    result.partial = state.partial;
    return result;
  }
  const std::vector<ReeDerivation>& derivations = state.derivations;

  GQD_TRACE_SPAN(synthesis_span, "ree.synthesize");
  Rel converted{};
  const Rel& target = ops.Target(relation, &converted);
  Rel covered = ops.Empty();
  std::vector<std::size_t> cover;
  for (std::size_t i = 0; i < elements.size(); i++) {
    if (!ops.Subset(elements[i], target)) {
      continue;
    }
    Rel merged = covered;
    ops.UnionInto(&merged, elements[i]);
    if (!ops.Equal(merged, covered)) {
      covered = merged;
      cover.push_back(i);
    }
    if (ops.Equal(covered, target)) {
      break;
    }
  }
  if (!ops.Equal(covered, target)) {
    result.verdict = DefinabilityVerdict::kNotDefinable;
    return result;
  }
  result.verdict = DefinabilityVerdict::kDefinable;
  if (relation.Empty()) {
    result.defining_expression = ree::Neq(ree::Epsilon());
    return result;
  }

  // Materialize the cover members' recipes as REE ASTs (iteratively — a
  // concat chain's depth can approach the monoid size). Shared subtrees
  // materialize once via the memo.
  std::vector<ReePtr> memo(elements.size());
  std::vector<std::size_t> stack;
  std::vector<ReePtr> cover_exprs;
  for (std::size_t root : cover) {
    stack.push_back(root);
    while (!stack.empty()) {
      std::size_t i = stack.back();
      if (memo[i] != nullptr) {
        stack.pop_back();
        continue;
      }
      const ReeDerivation& d = derivations[i];
      switch (d.kind) {
        case ReeDerivation::Kind::kEpsilon:
          memo[i] = ree::Epsilon();
          break;
        case ReeDerivation::Kind::kLetter:
          memo[i] = ree::Letter(label_names[d.b]);
          break;
        case ReeDerivation::Kind::kConcat:
          if (memo[d.a] == nullptr) {
            stack.push_back(d.a);
          } else if (memo[d.b] == nullptr) {
            stack.push_back(d.b);
          } else {
            memo[i] = ree::Concat({memo[d.a], memo[d.b]});
          }
          break;
        case ReeDerivation::Kind::kEq:
          if (memo[d.a] == nullptr) {
            stack.push_back(d.a);
          } else {
            memo[i] = ree::Eq(memo[d.a]);
          }
          break;
        case ReeDerivation::Kind::kNeq:
          if (memo[d.a] == nullptr) {
            stack.push_back(d.a);
          } else {
            memo[i] = ree::Neq(memo[d.a]);
          }
          break;
      }
      if (memo[i] != nullptr) {
        stack.pop_back();
      }
    }
    cover_exprs.push_back(memo[root]);
  }
  result.defining_expression = ree::Union(std::move(cover_exprs));
  return result;
}

Status CheckNodeCount(const DataGraph& graph, std::size_t relation_nodes) {
  if (relation_nodes != graph.NumNodes()) {
    return Status::InvalidArgument(
        "relation is over a different node count than the graph");
  }
  return Status::OK();
}

}  // namespace

ReeMonoid::ReeMonoid(std::unique_ptr<ReeMonoidState> state)
    : state_(std::move(state)) {}
ReeMonoid::ReeMonoid(ReeMonoid&&) noexcept = default;
ReeMonoid& ReeMonoid::operator=(ReeMonoid&&) noexcept = default;
ReeMonoid::~ReeMonoid() = default;

std::size_t ReeMonoid::size() const { return state_->derivations.size(); }

bool ReeMonoid::complete() const { return state_->complete; }

std::uint64_t ReeMonoid::charged_bytes() const {
  return state_->charged_bytes;
}

bool ReeMonoid::ReusableFor(const ReeDefinabilityOptions& options) const {
  const ReeDefinabilityOptions defaults;
  if (!state_->complete || options.max_levels != defaults.max_levels ||
      options.max_monoid_size != defaults.max_monoid_size ||
      options.max_monoid_bytes != defaults.max_monoid_bytes) {
    return false;
  }
  const ResourceBudget* budget = options.budget;
  return budget == nullptr ||
         ((budget->max_bytes() == 0 ||
           budget->bytes_used() + state_->charged_bytes <=
               budget->max_bytes()) &&
          (budget->max_tuples() == 0 ||
           budget->tuples_used() + size() <= budget->max_tuples()));
}

Status ReeMonoid::ChargeReuse(const ResourceBudget* budget) const {
  for (std::size_t round = 0; round < state_->closures; round++) {
    if (GQD_FAILPOINT_FIRED(fp_ree_closure)) {
      return Status::ResourceExhausted(
          "injected monoid closure failure (failpoint ree.closure)");
    }
  }
  if (budget != nullptr) {
    budget->ChargeBytes(static_cast<std::int64_t>(state_->charged_bytes));
    budget->ChargeTuples(size());
  }
  return Status::OK();
}

std::size_t ReeMonoid::HeldBytes() const { return state_->charged_bytes; }

ReeRepresentation ReeRepresentationFor(const DataGraph& graph,
                                       ReeEngine engine) {
  const std::size_t n = graph.NumNodes();
  if (engine == ReeEngine::kReference) {
    return ReeRepresentation::kDense;
  }
  if (n > 0 && n <= 8) {
    return ReeRepresentation::kPacked;
  }
  return n <= kDenseRelationMaxNodes ? ReeRepresentation::kDense
                                     : ReeRepresentation::kBlocked;
}

Result<ReeMonoid> CloseReeMonoid(const DataGraph& graph,
                                 ReeRepresentation representation,
                                 const ReeDefinabilityOptions& options) {
  auto state = std::make_unique<ReeMonoidState>();
  state->representation = representation;
  const std::size_t n = graph.NumNodes();
  const std::size_t num_labels = graph.NumLabels();
  Status closed;
  switch (representation) {
    case ReeRepresentation::kPacked: {
      state->space.emplace(graph);
      SmallRelationOps ops{&*state->space};
      closed = CloseLevels(ops, n, num_labels, options, state.get());
      break;
    }
    case ReeRepresentation::kDense: {
      if (options.engine == ReeEngine::kReference) {
        BigRelationOps ops{&graph, nullptr};
        closed = CloseLevels(ops, n, num_labels, options, state.get());
      } else {
        ValueClassMasks masks(graph);
        BigRelationOps ops{&graph, &masks};
        closed = CloseLevels(ops, n, num_labels, options, state.get());
      }
      break;
    }
    case ReeRepresentation::kBlocked: {
      ValueClassMasks masks(graph);
      BlockedRelationOps ops{&graph, &masks};
      closed = CloseLevels(ops, n, num_labels, options, state.get());
      break;
    }
  }
  GQD_RETURN_NOT_OK(closed);
  return ReeMonoid(std::move(state));
}

Result<ReeDefinabilityResult> CheckReeDefinability(
    const DataGraph& graph, const BinaryRelation& relation,
    const ReeDefinabilityOptions& options) {
  return CheckReeDefinability(graph, AdaptiveRelation::FromDense(relation),
                              options);
}

Result<ReeDefinabilityResult> CheckReeDefinability(
    const DataGraph& graph, const AdaptiveRelation& relation,
    const ReeDefinabilityOptions& options) {
  GQD_RETURN_NOT_OK(CheckNodeCount(graph, relation.num_nodes()));
  GQD_ASSIGN_OR_RETURN(
      ReeMonoid monoid,
      CloseReeMonoid(graph, ReeRepresentationFor(graph, options.engine),
                     options));
  return CheckReeDefinability(monoid, graph, relation);
}

Result<ReeDefinabilityResult> CheckReeDefinability(
    const ReeMonoid& monoid, const DataGraph& graph,
    const AdaptiveRelation& relation) {
  GQD_RETURN_NOT_OK(CheckNodeCount(graph, relation.num_nodes()));
  const ReeMonoidState& state = monoid.state();
  const std::vector<std::string>& label_names = graph.labels().names();
  switch (state.representation) {
    case ReeRepresentation::kPacked:
      return DecideCover(SmallRelationOps{&*state.space}, state.packed, state,
                         relation, label_names);
    case ReeRepresentation::kDense:
      return DecideCover(BigRelationOps{&graph, nullptr}, state.dense, state,
                         relation, label_names);
    case ReeRepresentation::kBlocked:
      break;
  }
  return DecideCover(BlockedRelationOps{&graph, nullptr}, state.blocked,
                     state, relation, label_names);
}

}  // namespace gqd
