// Aggregated service counters exported by the `stats` and `metrics`
// commands.
//
// ServerStats records one observation per handled request: the command
// name, whether it succeeded, and its wall latency. Since the
// observability subsystem landed, the counters live in a MetricsRegistry
// (src/obs/metrics.h) rather than ad-hoc fields: request totals are
// counters, latencies land in log2-microsecond histograms — one global
// and one per command, so the report can quote p50/p99 per command — and
// budget exhaustion is recorded per axis (bytes vs tuples vs wall).
//
// Two export formats: ToJson() keeps the historical `stats` JSON shape
// (plus the per-command percentiles and per-axis budget counters), and
// RenderPrometheus() emits the full registry — including pool / cache /
// admission snapshots mirrored into gauges and every failpoint site — in
// Prometheus text exposition format.

#ifndef GQD_RUNTIME_STATS_H_
#define GQD_RUNTIME_STATS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "common/budget.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "runtime/admission.h"
#include "runtime/result_cache.h"

namespace gqd {

/// Which held checker setup a served check consulted (see
/// runtime/check_setups.h), and how: reused (hit), built because none was
/// held (miss), or passed over because the request could make a fresh
/// build differ (bypass).
enum class CheckSetupKind { kKRem, kRee };
enum class CheckSetupUse { kHit, kMiss, kBypass };

class ServerStats {
 public:
  static constexpr std::size_t kNumLatencyBuckets = Histogram::kNumBuckets;

  ServerStats();
  ServerStats(const ServerStats&) = delete;
  ServerStats& operator=(const ServerStats&) = delete;

  /// Records one completed request. `code` classifies degraded outcomes:
  /// kUnavailable counts as shed, kResourceExhausted as budget-exhausted,
  /// kDeadlineExceeded (which also covers cancellation) as
  /// deadline-exceeded. Any other code (including kOk) only feeds the
  /// ok/error totals.
  void Record(const std::string& command, bool ok,
              std::chrono::nanoseconds latency,
              StatusCode code = StatusCode::kOk);

  /// Attributes one budget exhaustion to the axis that tripped
  /// (`gqd_budget_exhausted_total{axis=...}`). kNone is ignored.
  void RecordBudgetAxis(BudgetAxis axis);

  /// Counts one setup lookup (`gqd_check_setup_total{kind, result}`).
  void RecordCheckSetup(CheckSetupKind kind, CheckSetupUse use);

  std::uint64_t total_requests() const;
  std::uint64_t shed_requests() const;

  /// The registry backing these counters; request-path instruments live
  /// here permanently, snapshot mirrors are refreshed by the exporters.
  MetricsRegistry* registry() { return &registry_; }

  /// One JSON object combining request counters, the latency histograms
  /// (global buckets plus per-command p50/p99), the check-setup counters,
  /// and the supplied pool/cache/admission snapshots and held setup bytes.
  std::string ToJson(const ThreadPool::Stats& pool,
                     const ResultCache::Stats& cache,
                     const AdmissionStats& admission = {},
                     std::size_t check_setup_bytes = 0) const;

  /// Prometheus text exposition of the whole registry, with the supplied
  /// pool/cache/admission snapshots and held setup bytes mirrored into
  /// gauges/counters and every registered failpoint site exported.
  std::string RenderPrometheus(const ThreadPool::Stats& pool,
                               const ResultCache::Stats& cache,
                               const AdmissionStats& admission = {},
                               std::size_t check_setup_bytes = 0);

 private:
  struct PerCommand {
    Counter* requests = nullptr;
    Histogram* latency_us = nullptr;
  };

  PerCommand* PerCommandEntry(const std::string& command);
  void MirrorSnapshots(const ThreadPool::Stats& pool,
                       const ResultCache::Stats& cache,
                       const AdmissionStats& admission);

  MetricsRegistry registry_;

  // Request-path instruments, resolved once at construction.
  Counter* requests_;
  Counter* errors_;
  Counter* shed_;
  Counter* resource_exhausted_;
  Counter* deadline_exceeded_;
  Counter* budget_axis_[3];  ///< bytes, tuples, wall
  Counter* check_setup_[2][3];  ///< [krem, ree][hit, miss, bypass]
  Histogram* latency_us_;

  mutable std::mutex mutex_;  ///< guards per_command_ map shape only
  std::map<std::string, PerCommand> per_command_;
};

}  // namespace gqd

#endif  // GQD_RUNTIME_STATS_H_
