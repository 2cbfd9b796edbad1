#include "definability/ucrdpq_definability.h"

#include <algorithm>
#include <cassert>
#include <cstdint>

#include "common/failpoint.h"
#include "obs/trace.h"

namespace gqd {

namespace {

GQD_FAILPOINT_DEFINE(fp_ucrdpq_search, "ucrdpq.search");

/// Enumerates tuples of V^arity in lexicographic order via an odometer.
bool NextTuple(NodeTuple* tuple, std::size_t n) {
  for (std::size_t i = tuple->size(); i-- > 0;) {
    if (++(*tuple)[i] < n) {
      return true;
    }
    (*tuple)[i] = 0;
  }
  return false;
}

/// Pins consistent with the tuple pattern: positions of t with equal nodes
/// must receive equal images (they pin the same CSP variable).
bool BuildPins(const NodeTuple& source, const NodeTuple& image,
               std::vector<std::pair<NodeId, NodeId>>* pins) {
  pins->clear();
  for (std::size_t i = 0; i < source.size(); i++) {
    for (const auto& [node, pinned] : *pins) {
      if (node == source[i] && pinned != image[i]) {
        return false;  // contradictory pin: h(v) can't be two nodes
      }
    }
    pins->emplace_back(source[i], image[i]);
  }
  return true;
}

/// AC-3's fixpoint is the unique greatest arc-consistent subdomain. With
/// closed = AC(D) for the base domains D and a seed's first pin (p, u),
///   AC(AC(closed ∩ {p=u}) ∩ pins) = AC(D ∩ pins),
/// so a seed searched from AC(closed ∩ {p=u}) sees exactly the domains a
/// pinned copy of the CSP would, and a seed whose other pins fall outside
/// them is refuted by a bit test. This memo holds AC(closed ∩ {p=u}) per
/// u for one p at a time: tuples iterate sorted, so p changes at most n
/// times and at most n entries are live. Without AC-3 in the search it
/// holds the pinned base domains unclosed.
class FirstPinMemo {
 public:
  FirstPinMemo(const Csp& csp, bool use_ac3, const ResourceBudget* budget,
               CspStats* stats)
      : csp_(csp),
        use_ac3_(use_ac3),
        budget_(budget),
        stats_(stats),
        closed_(csp.domains),
        closed_ok_(!use_ac3 || EnforceArcConsistency(csp, &closed_, stats)),
        state_(csp.num_variables, State::kUnknown),
        entries_(csp.num_variables),
        var_(csp.num_variables),
        entry_bytes_(static_cast<std::int64_t>(
            csp.num_variables * csp.WordsPerRow() * sizeof(std::uint64_t))) {}

  /// The domains for h(p) = u, or nullptr when AC-3 refutes it. Each new
  /// entry is charged to the budget, and released when p changes.
  const std::vector<DynamicBitset>* Get(NodeId p, NodeId u) {
    if (p != var_) {
      var_ = p;
      std::fill(state_.begin(), state_.end(), State::kUnknown);
      for (std::vector<DynamicBitset>& entry : entries_) {
        std::vector<DynamicBitset>().swap(entry);
      }
      Charge(-live_bytes_);
    }
    if (state_[u] == State::kUnknown) {
      state_[u] = State::kWiped;
      if (closed_ok_ && closed_[p].Test(u)) {
        std::vector<DynamicBitset>& entry = entries_[u];
        entry = closed_;
        Charge(entry_bytes_);
        entry[p].Clear();
        entry[p].Set(u);
        if (!use_ac3_ || EnforceArcConsistency(csp_, &entry, stats_, p)) {
          state_[u] = State::kClosed;
        } else {
          std::vector<DynamicBitset>().swap(entry);
          Charge(-entry_bytes_);
        }
      }
    }
    return state_[u] == State::kClosed ? &entries_[u] : nullptr;
  }

 private:
  enum class State : std::uint8_t { kUnknown, kWiped, kClosed };

  void Charge(std::int64_t bytes) {
    live_bytes_ += bytes;
    if (budget_ != nullptr) {
      budget_->ChargeBytes(bytes);
    }
  }

  const Csp& csp_;
  const bool use_ac3_;
  const ResourceBudget* budget_;
  CspStats* stats_;
  std::vector<DynamicBitset> closed_;
  const bool closed_ok_;
  std::vector<State> state_;
  std::vector<std::vector<DynamicBitset>> entries_;
  std::size_t var_;  ///< the p of the live entries
  const std::int64_t entry_bytes_;
  std::int64_t live_bytes_ = 0;
};

}  // namespace

Result<UcrdpqDefinabilityResult> CheckUcrdpqDefinability(
    const DataGraph& graph, const TupleRelation& relation,
    const UcrdpqDefinabilityOptions& options) {
  std::size_t n = graph.NumNodes();
  UcrdpqDefinabilityResult result;
  if (relation.empty()) {
    // Vacuously preserved by every homomorphism; definable (e.g. by a
    // CRDPQ with an unsatisfiable atom such as x -(eps)≠-> x... any query
    // with empty answer works).
    result.verdict = DefinabilityVerdict::kDefinable;
    return result;
  }

  GQD_TRACE_SPAN(search_span, "ucrdpq.search");
  GQD_TRACE_SPAN_ATTR(search_span, "tuples", relation.size());
  GQD_TRACE_SPAN_ATTR(search_span, "arity", relation.arity());
  const ResourceBudget* budget = options.csp.budget;
  // Build the homomorphism CSP once; no seed copies it.
  Csp base_csp;
  {
    GQD_TRACE_SPAN(build_span, "ucrdpq.build_csp");
    GQD_ASSIGN_OR_RETURN(base_csp, BuildHomomorphismCsp(graph, budget));
    GQD_TRACE_SPAN_ATTR(build_span, "variables", base_csp.num_variables);
    GQD_TRACE_SPAN_ATTR(build_span, "constraints", base_csp.constraints.size());
  }
  auto budget_stop = [&]() {
    result.verdict = DefinabilityVerdict::kBudgetExhausted;
    if (budget != nullptr && budget->Exhausted()) {
      result.partial =
          PartialProgress{result.csp_stats.nodes_expanded, result.seeds_tried,
                          budget->bytes_peak(), "ucrdpq-csp"};
    }
    return result;
  };

  FirstPinMemo memo(base_csp, options.csp.use_ac3, budget, &result.csp_stats);
  std::vector<std::pair<NodeId, NodeId>> pins;
  for (const NodeTuple& source : relation.tuples()) {
    NodeTuple image(relation.arity(), 0);
    do {
      if (relation.Contains(image)) {
        continue;  // h(t) ∈ S is not a violation
      }
      if (!BuildPins(source, image, &pins)) {
        continue;  // incompatible with h being a function
      }
      // Each seeded search may be too small to reach the CSP engine's
      // strided cancel poll, so the seed loop polls the deadline itself.
      if (options.csp.cancel != nullptr && options.csp.cancel->Expired()) {
        return options.csp.cancel->Check();
      }
      if (GQD_FAILPOINT_FIRED(fp_ucrdpq_search)) {
        return Status::ResourceExhausted(
            "injected seeded-search failure (failpoint ucrdpq.search)");
      }
      result.seeds_tried++;
      GQD_TRACE_SPAN(seed_span, "ucrdpq.seed");
      GQD_TRACE_SPAN_ATTR(seed_span, "seed", result.seeds_tried);
      const std::vector<DynamicBitset>* domains =
          memo.Get(pins[0].first, pins[0].second);
      if (budget != nullptr && budget->OverByteLimit()) {
        return budget_stop();
      }
      bool refuted = domains == nullptr;
      for (std::size_t i = 1; i < pins.size() && !refuted; i++) {
        refuted = !(*domains)[pins[i].first].Test(pins[i].second);
      }
      if (refuted) {
        continue;
      }
      std::vector<DynamicBitset> seeded = *domains;
      for (const auto& [node, pinned] : pins) {
        seeded[node].Clear();
        seeded[node].Set(pinned);
      }
      auto solved = SolveCsp(base_csp, std::move(seeded), options.csp,
                             &result.csp_stats);
      if (!solved.ok()) {
        if (solved.status().code() == StatusCode::kResourceExhausted) {
          return budget_stop();
        }
        return solved.status();
      }
      if (solved.value().has_value()) {
        NodeMapping mapping(solved.value()->begin(), solved.value()->end());
        assert(IsDataGraphHomomorphism(graph, mapping));
        result.verdict = DefinabilityVerdict::kNotDefinable;
        result.violating_homomorphism = std::move(mapping);
        result.violated_tuple = source;
        return result;
      }
    } while (NextTuple(&image, n));
  }
  result.verdict = DefinabilityVerdict::kDefinable;
  return result;
}

Result<UcrdpqDefinabilityResult> CheckUcrdpqDefinability(
    const DataGraph& graph, const BinaryRelation& relation,
    const UcrdpqDefinabilityOptions& options) {
  return CheckUcrdpqDefinability(graph, TupleRelation::FromBinary(relation),
                                 options);
}

Result<UcrdpqDefinabilityResult> CheckUcrdpqDefinability(
    const DataGraph& graph, const AdaptiveRelation& relation,
    const UcrdpqDefinabilityOptions& options) {
  if (relation.num_nodes() != graph.NumNodes()) {
    return Status::InvalidArgument(
        "relation is over a different node count than the graph");
  }
  // TupleRelation's std::set iterates row-major — the same order
  // TupleRelation::FromBinary produces from a dense relation, so the seed
  // loop (and with it seeds_tried and any violation witness) is identical.
  TupleRelation tuples(2);
  for (const auto& [u, v] : relation.Pairs()) {
    tuples.Insert({u, v});
  }
  return CheckUcrdpqDefinability(graph, tuples, options);
}

}  // namespace gqd
