// Resource governance for the expensive decision procedures.
//
// The checkers in this library are EXPSPACE/PSPACE-complete (paper Thm
// 22/24/32): on adversarial inputs the macro-tuple store, the REE monoid
// closure, and the CSP search can each legitimately try to allocate far more
// memory than the host has. A ResourceBudget turns that from an OOM kill
// into a *normal* outcome: allocation-heavy code charges bytes/tuples as it
// grows, long loops poll Exhausted() alongside the CancelToken, and on
// exhaustion the checker returns Status::ResourceExhausted together with a
// structured PartialProgress report (how far the search got) instead of
// crashing the process.
//
// Accounting is deliberately coarse — the big allocations (tuple arena,
// interner tables, kernel bitset rows, monoid element stores) are charged;
// small fixed-size bookkeeping is not. Charging never fails: ChargeBytes /
// ChargeTuples only record usage, and callers observe exhaustion at their
// next poll. That keeps the hot paths branch-light and means a store may
// overshoot its budget by at most one growth step.
//
// Like CancelToken, the budget lives in common/ so the algorithm layers can
// accept one without depending on the serving subsystem; one budget may be
// shared by many worker threads.

#ifndef GQD_COMMON_BUDGET_H_
#define GQD_COMMON_BUDGET_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

#include "common/status.h"

namespace gqd {

/// Which limit a ResourceBudget ran into. kNone while within budget.
enum class BudgetAxis { kNone, kBytes, kTuples, kWall };

/// Metric-label-friendly name: "bytes", "tuples", "wall", or "none".
const char* BudgetAxisName(BudgetAxis axis);

/// Snapshot of how far a budgeted search got before exhaustion. Attached to
/// checker results (and serialized into serve error responses / CLI output)
/// so a caller can distinguish "barely started" from "almost done".
struct PartialProgress {
  std::uint64_t tuples_explored = 0;  ///< macro tuples / monoid elements / CSP nodes
  std::uint64_t frontier_depth = 0;   ///< BFS depth / closure level reached
  std::uint64_t bytes_peak = 0;       ///< peak accounted bytes
  std::string stage;                  ///< which phase hit the wall
};

/// Renders a PartialProgress as a one-line human-readable summary, e.g.
/// "stage=bfs tuples_explored=1842 frontier_depth=3 bytes_peak=33554432".
std::string PartialProgressToString(const PartialProgress& progress);

/// Shared, thread-safe byte/tuple/wall-clock budget. Zero for a limit means
/// "unlimited" along that axis.
class ResourceBudget {
 public:
  using Clock = std::chrono::steady_clock;

  ResourceBudget() = default;

  /// A budget capped at `max_bytes` / `max_tuples` (0 = unlimited) and,
  /// when `max_wall` is set, at a wall-clock duration from construction.
  ResourceBudget(std::uint64_t max_bytes, std::uint64_t max_tuples,
                 std::optional<std::chrono::nanoseconds> max_wall = {})
      : max_bytes_(max_bytes), max_tuples_(max_tuples) {
    if (max_wall.has_value()) {
      wall_deadline_ = Clock::now() + *max_wall;
    }
  }

  // Atomics pin the budget in place; share it by pointer.
  ResourceBudget(const ResourceBudget&) = delete;
  ResourceBudget& operator=(const ResourceBudget&) = delete;

  std::uint64_t max_bytes() const { return max_bytes_; }
  std::uint64_t max_tuples() const { return max_tuples_; }

  // Charging is const (counters are mutable atomics) so the same
  // `const ResourceBudget*` a loop polls can also record usage — mirroring
  // how CancelToken latches expiry through a const pointer.

  /// Records an allocation (`delta` > 0) or release (`delta` < 0).
  void ChargeBytes(std::int64_t delta) const {
    std::uint64_t now =
        bytes_.fetch_add(static_cast<std::uint64_t>(delta),
                         std::memory_order_relaxed) +
        static_cast<std::uint64_t>(delta);
    // Peak tracking is racy-but-monotone: a stale max only under-reports by
    // a transient amount, never over-reports.
    std::uint64_t peak = bytes_peak_.load(std::memory_order_relaxed);
    while (now > peak &&
           !bytes_peak_.compare_exchange_weak(peak, now,
                                              std::memory_order_relaxed)) {
    }
  }

  /// Records `n` newly materialized tuples / elements / search nodes.
  void ChargeTuples(std::uint64_t n) const {
    tuples_.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t bytes_used() const {
    return bytes_.load(std::memory_order_relaxed);
  }
  std::uint64_t bytes_peak() const {
    return bytes_peak_.load(std::memory_order_relaxed);
  }
  std::uint64_t tuples_used() const {
    return tuples_.load(std::memory_order_relaxed);
  }

  /// True once any axis is over budget. Latches (like CancelToken::Expired)
  /// so post-trip polls are a single relaxed load with no clock read.
  bool Exhausted() const {
    if (exhausted_.load(std::memory_order_relaxed)) {
      return true;
    }
    if ((max_bytes_ != 0 && bytes_used() > max_bytes_) ||
        (max_tuples_ != 0 && tuples_used() > max_tuples_) ||
        (wall_deadline_.has_value() && Clock::now() >= *wall_deadline_)) {
      exhausted_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// True while the byte axis alone is over its limit: the poll for a
  /// charge made outside a search loop, which must not trip on the tuple
  /// or wall axes before the loop's own strided poll would.
  bool OverByteLimit() const {
    return max_bytes_ != 0 && bytes_used() > max_bytes_;
  }

  /// OK while within budget, Status::ResourceExhausted (naming the tripped
  /// axis) once over.
  Status Check() const {
    if (!Exhausted()) {
      return Status::OK();
    }
    if (max_bytes_ != 0 && bytes_used() > max_bytes_) {
      return Status::ResourceExhausted(
          "byte budget exhausted (" + std::to_string(bytes_used()) + " > " +
          std::to_string(max_bytes_) + " bytes)");
    }
    if (max_tuples_ != 0 && tuples_used() > max_tuples_) {
      return Status::ResourceExhausted(
          "tuple budget exhausted (" + std::to_string(tuples_used()) + " > " +
          std::to_string(max_tuples_) + " tuples)");
    }
    return Status::ResourceExhausted("wall-clock budget exhausted");
  }

  /// The axis that tripped the budget (kNone while within budget). When
  /// several axes are simultaneously over, reports them in the same
  /// priority order as Check(): bytes, then tuples, then wall.
  BudgetAxis TrippedAxis() const {
    if (!Exhausted()) {
      return BudgetAxis::kNone;
    }
    if (max_bytes_ != 0 && bytes_used() > max_bytes_) {
      return BudgetAxis::kBytes;
    }
    if (max_tuples_ != 0 && tuples_used() > max_tuples_) {
      return BudgetAxis::kTuples;
    }
    return BudgetAxis::kWall;
  }

 private:
  std::uint64_t max_bytes_ = 0;
  std::uint64_t max_tuples_ = 0;
  std::optional<Clock::time_point> wall_deadline_;

  mutable std::atomic<std::uint64_t> bytes_{0};
  mutable std::atomic<std::uint64_t> bytes_peak_{0};
  mutable std::atomic<std::uint64_t> tuples_{0};
  mutable std::atomic<bool> exhausted_{false};
};

/// Amortized poll for hot loops, mirroring GQD_CANCEL_STRIDE_CHECK:
/// evaluates to true when `budget` (a `const ResourceBudget*`, may be null)
/// is exhausted, checking only every 256 invocations. `counter` must be an
/// integral l-value local to the loop.
#define GQD_BUDGET_STRIDE_CHECK(budget, counter) \
  ((budget) != nullptr && ((++(counter) & 0xFF) == 0) && (budget)->Exhausted())

}  // namespace gqd

#endif  // GQD_COMMON_BUDGET_H_
