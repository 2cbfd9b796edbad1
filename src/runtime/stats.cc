#include "runtime/stats.h"

#include "analysis/plan/plan_metrics.h"
#include "common/json_util.h"
#include "storage/metrics.h"

namespace gqd {

namespace {

// Label values of gqd_check_setup_total, indexed by CheckSetupKind and
// CheckSetupUse.
constexpr const char* kCheckSetupKindNames[] = {"krem", "ree"};
constexpr const char* kCheckSetupUseNames[] = {"hit", "miss", "bypass"};

}  // namespace

ServerStats::ServerStats() {
  requests_ = registry_.GetCounter("gqd_requests_total");
  errors_ = registry_.GetCounter("gqd_request_errors_total");
  shed_ = registry_.GetCounter("gqd_requests_shed_total");
  resource_exhausted_ = registry_.GetCounter("gqd_resource_exhausted_total");
  deadline_exceeded_ = registry_.GetCounter("gqd_deadline_exceeded_total");
  // Pre-registered so all three axes render at zero from the first scrape.
  budget_axis_[0] =
      registry_.GetCounter("gqd_budget_exhausted_total", {{"axis", "bytes"}});
  budget_axis_[1] =
      registry_.GetCounter("gqd_budget_exhausted_total", {{"axis", "tuples"}});
  budget_axis_[2] =
      registry_.GetCounter("gqd_budget_exhausted_total", {{"axis", "wall"}});
  latency_us_ = registry_.GetHistogram("gqd_request_latency_us");
  for (int kind = 0; kind < 2; kind++) {
    for (int use = 0; use < 3; use++) {
      check_setup_[kind][use] = registry_.GetCounter(
          "gqd_check_setup_total",
          {{"kind", kCheckSetupKindNames[kind]},
           {"result", kCheckSetupUseNames[use]}});
    }
  }
}

ServerStats::PerCommand* ServerStats::PerCommandEntry(
    const std::string& command) {
  std::lock_guard<std::mutex> lock(mutex_);
  PerCommand& entry = per_command_[command];
  if (entry.requests == nullptr) {
    entry.requests = registry_.GetCounter("gqd_command_requests_total",
                                          {{"command", command}});
    entry.latency_us = registry_.GetHistogram("gqd_command_latency_us",
                                              {{"command", command}});
  }
  return &entry;
}

void ServerStats::Record(const std::string& command, bool ok,
                         std::chrono::nanoseconds latency, StatusCode code) {
  auto us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(latency).count());
  requests_->Inc();
  if (!ok) {
    errors_->Inc();
  }
  switch (code) {
    case StatusCode::kUnavailable:
      shed_->Inc();
      break;
    case StatusCode::kResourceExhausted:
      resource_exhausted_->Inc();
      break;
    case StatusCode::kDeadlineExceeded:
      deadline_exceeded_->Inc();
      break;
    default:
      break;
  }
  PerCommand* entry = PerCommandEntry(command);
  entry->requests->Inc();
  entry->latency_us->Observe(us);
  latency_us_->Observe(us);
}

void ServerStats::RecordBudgetAxis(BudgetAxis axis) {
  switch (axis) {
    case BudgetAxis::kBytes:
      budget_axis_[0]->Inc();
      break;
    case BudgetAxis::kTuples:
      budget_axis_[1]->Inc();
      break;
    case BudgetAxis::kWall:
      budget_axis_[2]->Inc();
      break;
    case BudgetAxis::kNone:
      break;
  }
}

void ServerStats::RecordCheckSetup(CheckSetupKind kind, CheckSetupUse use) {
  check_setup_[static_cast<int>(kind)][static_cast<int>(use)]->Inc();
}

std::uint64_t ServerStats::total_requests() const {
  return requests_->value();
}

std::uint64_t ServerStats::shed_requests() const { return shed_->value(); }

std::string ServerStats::ToJson(const ThreadPool::Stats& pool,
                                const ResultCache::Stats& cache,
                                const AdmissionStats& admission,
                                std::size_t check_setup_bytes) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{";
  out += "\"requests\":" + std::to_string(requests_->value());
  out += ",\"errors\":" + std::to_string(errors_->value());
  out += ",\"shed\":" + std::to_string(shed_->value());
  out += ",\"resource_exhausted\":" +
         std::to_string(resource_exhausted_->value());
  out += ",\"deadline_exceeded\":" +
         std::to_string(deadline_exceeded_->value());
  out += ",\"budget_exhausted\":{";
  out += "\"bytes\":" + std::to_string(budget_axis_[0]->value());
  out += ",\"tuples\":" + std::to_string(budget_axis_[1]->value());
  out += ",\"wall\":" + std::to_string(budget_axis_[2]->value());
  out += "}";
  out += ",\"total_latency_us\":" + std::to_string(latency_us_->sum());
  out += ",\"per_command\":{";
  bool first = true;
  for (const auto& [command, entry] : per_command_) {
    if (!first) out += ",";
    first = false;
    out += JsonQuote(command) + ":" + std::to_string(entry.requests->value());
  }
  out += "}";
  // Per-command latency percentiles, read off the log2 histograms (each
  // value is the inclusive upper bound of the quantile's bucket).
  out += ",\"per_command_latency_us\":{";
  first = true;
  for (const auto& [command, entry] : per_command_) {
    if (!first) out += ",";
    first = false;
    out += JsonQuote(command) + ":{";
    out += "\"count\":" + std::to_string(entry.latency_us->count());
    out += ",\"p50\":" +
           std::to_string(entry.latency_us->QuantileUpperBound(0.50));
    out += ",\"p99\":" +
           std::to_string(entry.latency_us->QuantileUpperBound(0.99));
    out += "}";
  }
  out += "}";
  // Histogram as {"le_us": count} with the bucket's inclusive upper bound;
  // the final bucket is open-ended and keyed "inf".
  out += ",\"latency_histogram_us\":{";
  first = true;
  for (std::size_t b = 0; b < kNumLatencyBuckets; b++) {
    std::uint64_t count = latency_us_->bucket(b);
    if (count == 0) continue;
    if (!first) out += ",";
    first = false;
    if (b + 1 == kNumLatencyBuckets) {
      out += "\"inf\"";
    } else {
      out += "\"" + std::to_string(Histogram::BucketUpperBound(b)) + "\"";
    }
    out += ":" + std::to_string(count);
  }
  out += "}";
  out += ",\"pool\":{";
  out += "\"num_threads\":" + std::to_string(pool.num_threads);
  out += ",\"active_workers\":" + std::to_string(pool.active_workers);
  out += ",\"queued_tasks\":" + std::to_string(pool.queued_tasks);
  out += ",\"tasks_executed\":" + std::to_string(pool.tasks_executed);
  out += ",\"tasks_stolen\":" + std::to_string(pool.tasks_stolen);
  out += ",\"tasks_inline\":" + std::to_string(pool.tasks_inline);
  out += "}";
  out += ",\"cache\":{";
  out += "\"hits\":" + std::to_string(cache.hits);
  out += ",\"misses\":" + std::to_string(cache.misses);
  out += ",\"evictions\":" + std::to_string(cache.evictions);
  out += ",\"drops\":" + std::to_string(cache.drops);
  out += ",\"entries\":" + std::to_string(cache.entries);
  out += ",\"capacity\":" + std::to_string(cache.capacity);
  out += "}";
  out += ",\"check_setup\":{";
  for (int kind = 0; kind < 2; kind++) {
    out += std::string("\"") + kCheckSetupKindNames[kind] + "\":{";
    for (int use = 0; use < 3; use++) {
      out += std::string(use == 0 ? "" : ",") + "\"" +
             kCheckSetupUseNames[use] +
             "\":" + std::to_string(check_setup_[kind][use]->value());
    }
    out += "},";
  }
  out += "\"bytes\":" + std::to_string(check_setup_bytes) + "}";
  out += ",\"admission\":{";
  out += "\"admitted\":" + std::to_string(admission.admitted);
  out += ",\"queued\":" + std::to_string(admission.queued);
  out += ",\"shed\":" + std::to_string(admission.shed);
  out += ",\"active\":" + std::to_string(admission.active);
  out += ",\"waiting\":" + std::to_string(admission.waiting);
  out += "}";
  out += "}";
  return out;
}

void ServerStats::MirrorSnapshots(const ThreadPool::Stats& pool,
                                  const ResultCache::Stats& cache,
                                  const AdmissionStats& admission) {
  registry_.GetGauge("gqd_pool_threads")
      ->Set(static_cast<std::int64_t>(pool.num_threads));
  registry_.GetGauge("gqd_pool_active_workers")
      ->Set(static_cast<std::int64_t>(pool.active_workers));
  registry_.GetGauge("gqd_pool_queued_tasks")
      ->Set(static_cast<std::int64_t>(pool.queued_tasks));
  registry_.GetCounter("gqd_pool_tasks_executed_total")
      ->Set(pool.tasks_executed);
  registry_.GetCounter("gqd_pool_tasks_stolen_total")->Set(pool.tasks_stolen);
  registry_.GetCounter("gqd_pool_tasks_inline_total")->Set(pool.tasks_inline);
  registry_.GetCounter("gqd_cache_hits_total")->Set(cache.hits);
  registry_.GetCounter("gqd_cache_misses_total")->Set(cache.misses);
  registry_.GetCounter("gqd_cache_evictions_total")->Set(cache.evictions);
  registry_.GetCounter("gqd_cache_drops_total")->Set(cache.drops);
  registry_.GetGauge("gqd_cache_entries")
      ->Set(static_cast<std::int64_t>(cache.entries));
  registry_.GetGauge("gqd_cache_capacity")
      ->Set(static_cast<std::int64_t>(cache.capacity));
  registry_.GetCounter("gqd_admission_admitted_total")->Set(admission.admitted);
  registry_.GetCounter("gqd_admission_queued_total")->Set(admission.queued);
  registry_.GetCounter("gqd_admission_shed_total")->Set(admission.shed);
  registry_.GetGauge("gqd_admission_active")
      ->Set(static_cast<std::int64_t>(admission.active));
  registry_.GetGauge("gqd_admission_waiting")
      ->Set(static_cast<std::int64_t>(admission.waiting));
}

std::string ServerStats::RenderPrometheus(const ThreadPool::Stats& pool,
                                          const ResultCache::Stats& cache,
                                          const AdmissionStats& admission,
                                          std::size_t check_setup_bytes) {
  MirrorSnapshots(pool, cache, admission);
  registry_.GetGauge("gqd_check_setup_bytes")
      ->Set(static_cast<std::int64_t>(check_setup_bytes));
  UpdateFailpointMetrics(&registry_);
  UpdatePlanMetrics(&registry_);
  UpdateStorageMetrics(&registry_);
  UpdateRelationMetrics(&registry_);
  return registry_.RenderPrometheus();
}

}  // namespace gqd
