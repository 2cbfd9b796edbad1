// The four workloads and the closed-loop runner they share.

#ifndef GQDBENCH_WORKLOADS_H_
#define GQDBENCH_WORKLOADS_H_

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "bench.h"
#include "expected.h"
#include "spans.h"

namespace gqdbench {

/// How one operation ended.
struct OpOutcome {
  bool ok = false;        ///< finished with its expected outcome
  bool mismatch = false;  ///< finished, but the answer differs
};

/// Runs `clients` closed-loop threads, each calling op(client, i) for
/// i = 0, 1, ... until `seconds` have passed. With `whole_rounds` > 0 a
/// client only stops at a multiple of that many operations, so every run
/// measures complete rounds of the same instance list.
PhaseResult RunClosedLoop(std::size_t clients, double seconds,
                          std::size_t whole_rounds,
                          const std::function<OpOutcome(std::size_t,
                                                        std::size_t)>& op);

/// Adds a per-layer metric.
void SetLayer(WorkloadResult* result, const std::string& name, double value,
              const std::string& unit);

/// Share of a traced run's phases: the untraced phase gets this fraction of
/// --seconds, the traced phase the rest.
inline constexpr double kUntracedShare = 1.0 / 3.0;

WorkloadResult RunCheckBurst(const RunOptions& options,
                             const ExpectedAnswers& expected);
WorkloadResult RunEvalRouted(const RunOptions& options,
                             const ExpectedAnswers& expected);
WorkloadResult RunDeepCheck(const RunOptions& options,
                            const ExpectedAnswers& expected);
WorkloadResult RunSparseGrid(const RunOptions& options,
                             const ExpectedAnswers& expected);

/// Prints `what` and exits with status 1, without a result line.
[[noreturn]] void Die(const std::string& what);

/// Looks up every answer a workload needs; exits the process with an
/// error when the file lacks one or an input hash differs.
std::string RequireAnswer(const ExpectedAnswers& expected,
                          const std::string& id, std::uint64_t input_hash);

/// Writes a traced phase's spans under the work directory.
void DumpSpans(const RunOptions& options, const std::vector<Span>& spans);

}  // namespace gqdbench

#endif  // GQDBENCH_WORKLOADS_H_
