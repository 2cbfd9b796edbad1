#include "definability/assignment_graph.h"

#include <algorithm>
#include <cassert>

#include "common/failpoint.h"
#include "obs/trace.h"

namespace gqd {

namespace {

GQD_FAILPOINT_DEFINE(fp_assignment_graph_build, "assignment_graph.build");

/// Encodes an assignment as a base-(δ+1) number; digit δ is ⊥.
std::uint64_t EncodeAssignment(const RegisterAssignment& assignment,
                               std::size_t num_values) {
  std::uint64_t base = num_values + 1;
  std::uint64_t code = 0;
  for (std::size_t i = assignment.size(); i-- > 0;) {
    std::uint64_t digit =
        (assignment[i] == kEmptyRegister) ? num_values : assignment[i];
    code = code * base + digit;
  }
  return code;
}

/// a·b, saturating at the largest std::uint64_t.
std::uint64_t SaturatingMul(std::uint64_t a, std::uint64_t b) {
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  return (b != 0 && a > kMax / b) ? kMax : a * b;
}

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
  if (states > (std::uint64_t{1} << 24)) {
    if (budget != nullptr && budget->max_bytes() != 0) {
      // Successor-list headers for every (mask, letter, state) plus one
      // entry per (mask, edge, assignment) — what Build would charge.
      std::uint64_t adjacency_bytes = SaturatingMul(
          SaturatingMul(masks * std::max<std::size_t>(ag.num_labels_, 1),
                        states),
          sizeof(std::vector<Successor>));
      std::uint64_t entry_bytes = SaturatingMul(
          SaturatingMul(masks * graph.NumEdges(), codes), sizeof(Successor));
      std::uint64_t estimate = adjacency_bytes + entry_bytes < adjacency_bytes
                                   ? ~std::uint64_t{0}
                                   : adjacency_bytes + entry_bytes;
      return Status::ResourceExhausted(
          "assignment graph too large for the byte budget: " +
          std::to_string(states) + " states need ~" +
          std::to_string(estimate) + " bytes of adjacency (budget " +
          std::to_string(budget->max_bytes()) + " bytes, cap 2^24 states)");
    }
    return Status::OutOfRange("assignment graph too large: " +
                              std::to_string(states) + " states");
  }
  ag.assignment_codes_ = codes;
  ag.num_states_ = static_cast<std::size_t>(states);

  ag.num_patterns_ = std::size_t{1} << k;
  ag.adjacency_.assign(masks * ag.num_labels_ * ag.num_states_, {});
  ag.adjacency_header_bytes_ =
      ag.adjacency_.size() * sizeof(std::vector<Successor>);
  if (budget != nullptr) {
    budget->ChargeBytes(
        static_cast<std::int64_t>(ag.adjacency_header_bytes_));
    GQD_RETURN_NOT_OK(budget->Check());
  }

  // Materialize the word-parallel kernel rows unless they would blow the
  // memory budget (the successor lists above always exist as fallback).
  std::size_t row_words = (ag.num_states_ + 63) / 64;
  std::size_t num_rows =
      masks * ag.num_labels_ * ag.num_patterns_ * ag.num_states_;
  bool build_kernel =
      ag.num_states_ > 0 &&
      num_rows <= kKernelMemoryBudgetBytes / 8 / (row_words == 0 ? 1 : row_words);
  std::size_t kernel_bytes =
      num_rows * row_words * sizeof(std::uint64_t) +
      masks * ag.num_labels_ * ag.num_states_ * sizeof(std::uint16_t);
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
    ag.kernel_patterns_.assign(masks * ag.num_labels_ * ag.num_states_, 0);
  }
  GQD_TRACE_SPAN_ATTR(span, "states", ag.num_states_);
  GQD_TRACE_SPAN_ATTR(span, "kernel", build_kernel ? 1 : 0);

  std::uint32_t budget_ticks = 0;
  for (AgState s = 0; s < ag.num_states_; s++) {
    if (GQD_BUDGET_STRIDE_CHECK(budget, budget_ticks)) {
      return budget->Check();
    }
    NodeId v = ag.NodeOf(s);
    RegisterAssignment sigma =
        DecodeAssignment(s % ag.assignment_codes_, k, ag.num_values_);
    std::uint32_t stored_value = graph.DataValueOf(v);
    std::size_t successors_added = 0;
    for (std::uint32_t mask = 0; mask < masks; mask++) {
      // σ' = σ[r̄ → ρ(v)].
      RegisterAssignment sigma_prime = sigma;
      for (std::size_t r = 0; r < k; r++) {
        if (mask & (1u << r)) {
          sigma_prime[r] = stored_value;
        }
      }
      std::uint64_t sigma_prime_code =
          EncodeAssignment(sigma_prime, ag.num_values_);
      for (const auto& [label, v_prime] : graph.OutEdges(v)) {
        AgState target = static_cast<AgState>(
            v_prime * ag.assignment_codes_ + sigma_prime_code);
        std::uint8_t pattern = static_cast<std::uint8_t>(
            EqualityPattern(graph.DataValueOf(v_prime), sigma_prime));
        ag.adjacency_[(mask * ag.num_labels_ + label) * ag.num_states_ + s]
            .push_back(Successor{target, pattern});
        successors_added++;
        if (build_kernel) {
          std::size_t row =
              ((mask * ag.num_labels_ + label) * ag.num_patterns_ + pattern) *
                  ag.num_states_ +
              s;
          ag.kernel_words_[row * row_words + (target >> 6)] |=
              std::uint64_t{1} << (target & 63);
          ag.kernel_patterns_[(mask * ag.num_labels_ + label) *
                                  ag.num_states_ +
                              s] |= static_cast<std::uint16_t>(1u << pattern);
        }
      }
    }
    ag.successor_bytes_ += successors_added * sizeof(Successor);
    if (budget != nullptr && successors_added > 0) {
      budget->ChargeBytes(
          static_cast<std::int64_t>(successors_added * sizeof(Successor)));
    }
  }
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
  budget->ChargeBytes(static_cast<std::int64_t>(adjacency_header_bytes_));
  GQD_RETURN_NOT_OK(budget->Check());
  if (kernel_bytes_ != 0 && budget->max_bytes() != 0) {
    budget->ChargeBytes(static_cast<std::int64_t>(kernel_bytes_));
  }
  if (successor_bytes_ != 0) {
    budget->ChargeBytes(static_cast<std::int64_t>(successor_bytes_));
  }
  return budget->Check();
}

void AssignmentGraph::ReleaseKernelRows() {
  std::vector<std::uint64_t>().swap(kernel_words_);
  std::vector<std::uint16_t>().swap(kernel_patterns_);
}

std::size_t AssignmentGraph::HeldBytes() const {
  return adjacency_header_bytes_ + successor_bytes_ +
         kernel_words_.capacity() * sizeof(std::uint64_t) +
         kernel_patterns_.capacity() * sizeof(std::uint16_t);
}

AgState AssignmentGraph::InitialState(NodeId v) const {
  RegisterAssignment bottom(k_, kEmptyRegister);
  return static_cast<AgState>(v * assignment_codes_ +
                              EncodeAssignment(bottom, num_values_));
}

RegisterAssignment AssignmentGraph::AssignmentOf(AgState state) const {
  return DecodeAssignment(state % assignment_codes_, k_, num_values_);
}

}  // namespace gqd
