#include "definability/assignment_graph.h"

#include <cassert>
#include <limits>

#include "common/failpoint.h"
#include "obs/trace.h"

namespace gqd {

namespace {

GQD_FAILPOINT_DEFINE(fp_assignment_graph_build, "assignment_graph.build");

/// a·b, saturating at the largest std::uint64_t.
std::uint64_t SaturatingMul(std::uint64_t a, std::uint64_t b) {
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  return (b != 0 && a > kMax / b) ? kMax : a * b;
}

/// a+b, saturating at the largest std::uint64_t.
std::uint64_t SaturatingAdd(std::uint64_t a, std::uint64_t b) {
  return a + b < a ? ~std::uint64_t{0} : a + b;
}

/// Decodes a base-(δ+1) assignment code; digit δ is ⊥.
RegisterAssignment DecodeAssignment(std::uint64_t code, std::size_t k,
                                    std::size_t num_values) {
  std::uint64_t base = num_values + 1;
  RegisterAssignment assignment(k);
  for (std::size_t i = 0; i < k; i++) {
    std::uint64_t digit = code % base;
    assignment[i] = (digit == num_values)
                        ? kEmptyRegister
                        : static_cast<std::uint32_t>(digit);
    code /= base;
  }
  return assignment;
}

}  // namespace

Result<AssignmentGraph> AssignmentGraph::Build(const DataGraph& graph,
                                               std::size_t k,
                                               const ResourceBudget* budget) {
  if (GQD_FAILPOINT_FIRED(fp_assignment_graph_build)) {
    return Status::ResourceExhausted(
        "injected allocation failure (failpoint assignment_graph.build)");
  }
  if (k > 4) {
    return Status::OutOfRange(
        "assignment graphs support at most k = 4 registers (got k = " +
        std::to_string(k) + ")");
  }
  GQD_TRACE_SPAN(span, "krem.assignment_graph_build");
  AssignmentGraph ag;
  ag.k_ = k;
  ag.num_nodes_ = graph.NumNodes();
  ag.num_labels_ = graph.NumLabels();
  ag.num_values_ = graph.NumDataValues();
  std::uint64_t codes = 1;
  for (std::size_t i = 0; i < k; i++) {
    codes = SaturatingMul(codes, ag.num_values_ + 1);
  }
  std::uint64_t states = SaturatingMul(ag.num_nodes_, codes);
  std::size_t masks = std::size_t{1} << k;
  // One offset per (mask, letter, state) plus the end sentinel, and exactly
  // one entry per (mask, edge, assignment): 2^k·(δ+1)^k·|E|.
  std::uint64_t rows =
      SaturatingMul(SaturatingMul(masks, ag.num_labels_), states);
  std::uint64_t entries =
      SaturatingMul(SaturatingMul(masks, codes), graph.NumEdges());
  std::uint64_t adjacency_bytes = SaturatingAdd(
      SaturatingMul(SaturatingAdd(rows, 1), sizeof(std::uint32_t)),
      SaturatingMul(entries, sizeof(Successor)));
  if (states > (std::uint64_t{1} << 24) ||
      entries > std::numeric_limits<std::uint32_t>::max()) {
    std::string size = std::to_string(states) + " states, " +
                       std::to_string(entries) + " successor entries";
    if (budget != nullptr && budget->max_bytes() != 0) {
      return Status::ResourceExhausted(
          "assignment graph too large for the byte budget: " + size +
          " need ~" + std::to_string(adjacency_bytes) +
          " bytes of adjacency (budget " +
          std::to_string(budget->max_bytes()) + " bytes)");
    }
    return Status::OutOfRange("assignment graph too large: " + size);
  }
  ag.assignment_codes_ = codes;
  ag.num_states_ = static_cast<std::size_t>(states);
  ag.num_patterns_ = std::size_t{1} << k;

  // Charge the adjacency before allocating it: its size is exact.
  ag.adjacency_bytes_ = adjacency_bytes;
  if (budget != nullptr) {
    budget->ChargeBytes(static_cast<std::int64_t>(adjacency_bytes));
    GQD_RETURN_NOT_OK(budget->Check());
  }

  // Materialize the word-parallel kernel rows unless they would blow the
  // memory budget (the CSR successor lists always exist as fallback).
  std::size_t row_words = (ag.num_states_ + 63) / 64;
  std::size_t num_rows =
      masks * ag.num_labels_ * ag.num_patterns_ * ag.num_states_;
  bool build_kernel =
      ag.num_states_ > 0 &&
      num_rows <= kKernelMemoryBudgetBytes / 8 / (row_words == 0 ? 1 : row_words);
  std::size_t kernel_bytes = num_rows * row_words * sizeof(std::uint64_t);
  if (build_kernel && budget != nullptr && budget->max_bytes() != 0) {
    // The kernel is an optimization: degrade (skip it) rather than fail the
    // request when it would not fit the remaining byte budget.
    if (budget->bytes_used() + kernel_bytes > budget->max_bytes()) {
      build_kernel = false;
      ag.kernel_dropped_for_budget_ = true;
    } else {
      budget->ChargeBytes(static_cast<std::int64_t>(kernel_bytes));
    }
  }
  if (build_kernel) {
    ag.kernel_bytes_ = kernel_bytes;
    ag.kernel_row_words_ = row_words;
    ag.kernel_words_.assign(num_rows * row_words, 0);
  }
  GQD_TRACE_SPAN_ATTR(span, "states", ag.num_states_);
  GQD_TRACE_SPAN_ATTR(span, "kernel", build_kernel ? 1 : 0);

  // Fill the rows in index order: row (mask·|Σ| + a)·|Q| + s, with
  // s = v·(δ+1)^k + code(σ), lists v's a-edges in OutEdges order.
  ag.offsets_.reserve(rows + 1);
  ag.successors_.reserve(entries);
  const std::uint64_t base = ag.num_values_ + 1;
  std::vector<std::uint32_t> sigma_prime(k);  // digits; digit δ is ⊥
  std::vector<NodeId> targets;
  std::uint32_t budget_ticks = 0;
  for (std::size_t block = 0; block < masks * ag.num_labels_; block++) {
    std::size_t mask = block / ag.num_labels_;
    LabelId label = static_cast<LabelId>(block % ag.num_labels_);
    for (NodeId v = 0; v < ag.num_nodes_; v++) {
      targets.clear();
      for (const auto& [edge_label, v_prime] : graph.OutEdges(v)) {
        if (edge_label == label) {
          targets.push_back(v_prime);
        }
      }
      for (std::uint64_t code = 0; code < codes; code++) {
        if (GQD_BUDGET_STRIDE_CHECK(budget, budget_ticks)) {
          return budget->Check();
        }
        ag.offsets_.push_back(
            static_cast<std::uint32_t>(ag.successors_.size()));
        // σ' = σ[r̄ → ρ(v)], decoded digit by digit.
        std::uint64_t rest = code, sigma_prime_code = 0, place = 1;
        for (std::size_t r = 0; r < k; r++, rest /= base, place *= base) {
          sigma_prime[r] = ((mask >> r) & 1u)
                               ? graph.DataValueOf(v)
                               : static_cast<std::uint32_t>(rest % base);
          sigma_prime_code += sigma_prime[r] * place;
        }
        AgState s = static_cast<AgState>(v * codes + code);
        for (NodeId v_prime : targets) {
          // Digit δ (⊥) never equals a value id, so it never matches.
          std::uint8_t pattern = 0;
          for (std::size_t r = 0; r < k; r++) {
            pattern |= static_cast<std::uint8_t>(
                (sigma_prime[r] == graph.DataValueOf(v_prime)) << r);
          }
          AgState target =
              static_cast<AgState>(v_prime * codes + sigma_prime_code);
          ag.successors_.push_back(Successor{target, pattern});
          if (build_kernel) {
            std::size_t kernel_row =
                (block * ag.num_patterns_ + pattern) * ag.num_states_ + s;
            ag.kernel_words_[kernel_row * row_words + (target >> 6)] |=
                std::uint64_t{1} << (target & 63);
          }
        }
      }
    }
  }
  ag.offsets_.push_back(static_cast<std::uint32_t>(ag.successors_.size()));
  assert(ag.successors_.size() == entries);
  if (budget != nullptr) {
    GQD_RETURN_NOT_OK(budget->Check());
  }
  return ag;
}

Status AssignmentGraph::ChargeReuse(const ResourceBudget* budget) const {
  if (GQD_FAILPOINT_FIRED(fp_assignment_graph_build)) {
    return Status::ResourceExhausted(
        "injected allocation failure (failpoint assignment_graph.build)");
  }
  if (budget == nullptr) {
    return Status::OK();
  }
  budget->ChargeBytes(static_cast<std::int64_t>(adjacency_bytes_));
  GQD_RETURN_NOT_OK(budget->Check());
  if (kernel_bytes_ != 0 && budget->max_bytes() != 0) {
    budget->ChargeBytes(static_cast<std::int64_t>(kernel_bytes_));
  }
  return budget->Check();
}

void AssignmentGraph::ReleaseKernelRows() {
  std::vector<std::uint64_t>().swap(kernel_words_);
}

std::size_t AssignmentGraph::HeldBytes() const {
  return offsets_.capacity() * sizeof(std::uint32_t) +
         successors_.capacity() * sizeof(Successor) +
         kernel_words_.capacity() * sizeof(std::uint64_t);
}

AgState AssignmentGraph::InitialState(NodeId v) const {
  // ⊥^k is the all-δ code, (δ+1)^k − 1.
  return static_cast<AgState>(v * assignment_codes_ + assignment_codes_ - 1);
}

RegisterAssignment AssignmentGraph::AssignmentOf(AgState state) const {
  return DecodeAssignment(state % assignment_codes_, k_, num_values_);
}

}  // namespace gqd
