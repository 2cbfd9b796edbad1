// Shared types of the gqd benchmark program: run options, the per-run
// result every workload fills in, and small timing helpers.
//
// A workload runs in three steps. Setup builds its inputs from the seed and
// brings up whatever serves them (timed several times; the median is the
// reported set-up time). A measured phase then drives closed-loop operations
// for a fixed wall-clock window and checks every answer against the
// committed expected-answers file. A traced run (--trace 1) measures an
// untraced phase first and a traced phase after it, so the difference in
// throughput between the two is the tracing overhead.

#ifndef GQDBENCH_BENCH_H_
#define GQDBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace gqdbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Instance pool the expected-answers file was generated for: "default"
  /// or "heldout".
  std::string pool = "default";
  /// Directory for containers and span dumps (inside the checkout).
  std::string work_dir = ".bench_build/work";
  /// Directory holding the expected_<pool>.tsv files.
  std::string data_dir = "gqdbench/data";
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// Outcome of one measured phase.
struct PhaseResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;       ///< errors, refusals, wrong outcomes
  std::uint64_t mismatches = 0;   ///< answers that differ from expected
  std::vector<double> latencies_ms;  ///< in operation start order
  double wall_s = 0;
  double cpu_s = 0;

  std::uint64_t succeeded() const { return attempted - failed; }
};

/// Everything one run reports.
struct WorkloadResult {
  PhaseResult phase;               ///< untraced run: the measured phase;
                                   ///< traced run: the traced phase
  PhaseResult untraced;            ///< traced run: the untraced phase
  std::vector<double> setup_s;     ///< one entry per set-up repetition
  std::map<std::string, Metric> layers;
  std::vector<std::string> notes;  ///< extra human-readable lines
};

}  // namespace gqdbench

#endif  // GQDBENCH_BENCH_H_
