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

/// (δ+1)^k, saturating at the largest std::uint64_t.
std::uint64_t CodeCount(const DataGraph& graph, std::size_t k) {
  std::uint64_t codes = 1;
  for (std::size_t i = 0; i < k; i++) {
    codes = SaturatingMul(codes, graph.NumDataValues() + 1);
  }
  return codes;
}

}  // namespace

AgStateSpace::AgStateSpace(const DataGraph& graph, std::size_t k)
    : k_(static_cast<std::uint32_t>(k)),
      num_nodes_(graph.NumNodes()),
      num_labels_(graph.NumLabels()),
      base_(static_cast<std::uint32_t>(graph.NumDataValues() + 1)) {
  assert(k <= kMaxRegisters && StateCount(graph, k) <= kMaxStates);
  codes_ = static_cast<std::uint32_t>(CodeCount(graph, k));
}

std::uint64_t AgStateSpace::StateCount(const DataGraph& graph,
                                       std::size_t k) {
  return SaturatingMul(graph.NumNodes(), CodeCount(graph, k));
}

RegisterAssignment AgStateSpace::AssignmentOf(AgState state) const {
  std::uint32_t code = state % codes_;
  RegisterAssignment assignment(k_);
  for (std::size_t i = 0; i < k_; i++) {
    std::uint32_t digit = code % base_;
    assignment[i] = digit == base_ - 1 ? kEmptyRegister : digit;
    code /= base_;
  }
  return assignment;
}

Status AgStateSpace::CheckRegisterCount(std::size_t k) {
  if (k > kMaxRegisters) {
    return Status::OutOfRange(
        "assignment graphs support at most k = 4 registers (got k = " +
        std::to_string(k) + ")");
  }
  return Status::OK();
}

Result<AssignmentGraph> AssignmentGraph::Build(const DataGraph& graph,
                                               std::size_t k,
                                               const ResourceBudget* budget) {
  if (GQD_FAILPOINT_FIRED(fp_assignment_graph_build)) {
    return Status::ResourceExhausted(
        "injected allocation failure (failpoint assignment_graph.build)");
  }
  GQD_RETURN_NOT_OK(AgStateSpace::CheckRegisterCount(k));
  GQD_TRACE_SPAN(span, "krem.assignment_graph_build");
  std::uint64_t codes = CodeCount(graph, k);
  std::uint64_t states = SaturatingMul(graph.NumNodes(), codes);
  std::size_t masks = std::size_t{1} << k;
  // One offset per (mask, letter, state) plus the end sentinel, and exactly
  // one entry per (mask, edge, assignment): 2^k·(δ+1)^k·|E|.
  std::uint64_t rows =
      SaturatingMul(SaturatingMul(masks, graph.NumLabels()), states);
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
  AssignmentGraph ag;
  ag.space_ = AgStateSpace(graph, k);
  ag.num_states_ = static_cast<std::size_t>(states);
  const std::size_t num_labels = graph.NumLabels();
  const std::size_t num_patterns = ag.space_.num_patterns();

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
      masks * num_labels * num_patterns * ag.num_states_;
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
  // s = v·(δ+1)^k + code(σ), lists ForEachSuccessor's transitions.
  ag.offsets_.reserve(rows + 1);
  ag.successors_.reserve(entries);
  const std::uint32_t num_codes = ag.space_.assignment_codes();
  std::uint32_t budget_ticks = 0;
  for (std::size_t block = 0; block < masks * num_labels; block++) {
    std::uint32_t mask = static_cast<std::uint32_t>(block / num_labels);
    LabelId label = static_cast<LabelId>(block % num_labels);
    std::uint64_t* kernel_block =
        build_kernel ? ag.kernel_words_.data() +
                           block * num_patterns * ag.num_states_ * row_words
                     : nullptr;
    AgState s = 0;
    for (NodeId v = 0; v < graph.NumNodes(); v++) {
      for (std::uint32_t code = 0; code < num_codes; code++, s++) {
        if (GQD_BUDGET_STRIDE_CHECK(budget, budget_ticks)) {
          return budget->Check();
        }
        ag.offsets_.push_back(
            static_cast<std::uint32_t>(ag.successors_.size()));
        ag.space_.ForEachSuccessor(
            graph, v, code, mask, label,
            [&](AgState target, std::uint8_t pattern) {
              ag.successors_.push_back(Successor{target, pattern});
              if (kernel_block != nullptr) {
                std::size_t kernel_row = pattern * ag.num_states_ + s;
                kernel_block[kernel_row * row_words + (target >> 6)] |=
                    std::uint64_t{1} << (target & 63);
              }
            });
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

}  // namespace gqd
