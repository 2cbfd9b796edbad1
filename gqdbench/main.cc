// gqdbench: the gqd benchmark program.
//
//   gqdbench --workload <check-burst|eval-routed|deep-check|sparse-grid>
//            --seed N --seconds S --trace 0|1 [--pool default|heldout]
//            [--data-dir DIR] [--work-dir DIR]
//   gqdbench --generate-expected <pool> [--data-dir DIR]
//
// A run prints every metric by name with its unit, one per line, and then
// one JSON object as its last line:
//   {"correct":...,"attempted":...,"failed":...,"metrics":{...}}
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones (layers a workload does not pass through read 0). The
// exit code is 0 only when every answer matched the expected-answers file.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "expected.h"
#include "stats.h"
#include "workloads.h"

namespace gqdbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kLayerMetrics[] = {
    {"storage.open_ms", "ms"},
    {"graph.relation_build_ms", "ms"},
    {"graph.relation_bytes", "bytes"},
    {"regex.parse_ms", "ms"},
    {"rem.parse_ms", "ms"},
    {"ree.parse_ms", "ms"},
    {"analysis.plan_build_ms", "ms"},
    {"analysis.dispatch_build_ms", "ms"},
    {"definability.setup_ms", "ms"},
    {"definability.setup_share", "ratio"},
    {"definability.setup_share_definable", "ratio"},
    {"definability.setup_share_refuted", "ratio"},
    {"definability.rpq_check_ms", "ms"},
    {"definability.krem_check_ms", "ms"},
    {"definability.ree_check_ms", "ms"},
    {"definability.ucrdpq_check_ms", "ms"},
    {"definability.tuples_per_s", "1/s"},
    {"definability.monoid_elements_per_s", "1/s"},
    {"definability.budget_exhausted", "per_1000_checks"},
    {"homomorphism.seeds_tried", "count"},
    {"eval.rpq_ms", "ms"},
    {"eval.rem_ms", "ms"},
    {"eval.ree_ms", "ms"},
    {"runtime.handle_ms", "ms"},
    {"runtime.load_ms", "ms"},
    {"runtime.transport_ms", "ms"},
    {"runtime.cache_hit_ratio", "ratio"},
    {"runtime.cache_lookups", "count"},
    {"runtime.cache_evictions", "count"},
    {"runtime.admission_queued", "count"},
    {"cluster.route_self_ms", "ms"},
    {"cluster.failovers", "count"},
    {"cluster.worker_skew", "ratio"},
    {"trace.overhead_pct", "%"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: gqdbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--pool default|heldout]\n"
               "       gqdbench --generate-expected default|heldout\n");
  return 2;
}

std::string Number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void PrintMetric(std::string* json, bool* first, const std::string& name,
                 double value, const std::string& unit) {
  std::printf("%-40s %16.6f %s\n", name.c_str(), value, unit.c_str());
  if (!*first) {
    *json += ",";
  }
  *first = false;
  *json += "\"" + name + "\":{\"value\":" + Number(value) + ",\"unit\":\"" +
           unit + "\"}";
}

int Run(const RunOptions& options) {
  ExpectedAnswers expected;
  std::string error;
  if (!expected.Load(ExpectedPath(options.data_dir, options.pool), &error)) {
    std::fprintf(stderr, "gqdbench: %s\n", error.c_str());
    return 1;
  }
  WorkloadResult result;
  if (options.workload == "check-burst") {
    result = RunCheckBurst(options, expected);
  } else if (options.workload == "eval-routed") {
    result = RunEvalRouted(options, expected);
  } else if (options.workload == "deep-check") {
    result = RunDeepCheck(options, expected);
  } else if (options.workload == "sparse-grid") {
    result = RunSparseGrid(options, expected);
  } else {
    return Usage();
  }
  const PhaseResult& phase = result.phase;
  // A traced run checks the answers of both of its phases.
  const std::uint64_t attempted = phase.attempted + result.untraced.attempted;
  const std::uint64_t failed = phase.failed + result.untraced.failed;
  const std::uint64_t mismatches =
      phase.mismatches + result.untraced.mismatches;
  const double error_rate =
      attempted == 0 ? 1 : static_cast<double>(failed) / attempted;
  const bool correct = attempted > 0 && failed == 0 && mismatches == 0;

  std::printf("workload %s seed %llu pool %s trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.pool.c_str(), options.trace ? 1 : 0);
  std::size_t samples = phase.latencies_ms.size();
  std::printf("latency samples %zu; highest percentile with >= 10 samples "
              "beyond it: p%g (p90 has %zu beyond, p99 has %zu)\n",
              samples, SupportedTailPercentile(samples),
              SamplesBeyond(samples, 90), SamplesBeyond(samples, 99));
  if (samples >= 2 * kLatencyBlock) {
    std::printf("latency percentiles: median over %zu blocks of %zu "
                "operations\n",
                samples / kLatencyBlock, kLatencyBlock);
  } else {
    std::printf("latency percentiles: over all %zu operations\n", samples);
  }
  std::printf("error_rate %.6f (%llu of %llu attempted)\n", error_rate,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::printf("verdict_mismatches %llu\n",
              static_cast<unsigned long long>(mismatches));
  for (const std::string& note : result.notes) {
    std::printf("note: %s\n", note.c_str());
  }

  std::string metrics;
  bool first = true;
  const double ops_s = phase.succeeded() / phase.wall_s;
  if (!options.trace) {
    PrintMetric(&metrics, &first, "setup_s", Median(result.setup_s), "s");
    PrintMetric(&metrics, &first, "throughput_ops_s", ops_s, "1/s");
    PrintMetric(&metrics, &first, "latency_p50_ms",
                BlockPercentile(phase.latencies_ms, 50), "ms");
    PrintMetric(&metrics, &first, "latency_p90_ms",
                BlockPercentile(phase.latencies_ms, 90), "ms");
    PrintMetric(&metrics, &first, "latency_p99_ms",
                BlockPercentile(phase.latencies_ms, 99), "ms");
    PrintMetric(&metrics, &first, "cpu_ms_per_op",
                1000.0 * phase.cpu_s / std::max<double>(1, phase.attempted),
                "ms");
    PrintMetric(&metrics, &first, "peak_rss_mb", PeakRssMb(), "MB");
  } else {
    const double untraced_ops_s =
        result.untraced.succeeded() / result.untraced.wall_s;
    SetLayer(&result, "trace.overhead_pct",
             100.0 * (untraced_ops_s - ops_s) / untraced_ops_s, "%");
    std::printf("note: tracing overhead base: untraced %.3f ops/s, traced "
                "%.3f ops/s\n",
                untraced_ops_s, ops_s);
    for (const MetricSpec& spec : kLayerMetrics) {
      auto it = result.layers.find(spec.name);
      PrintMetric(&metrics, &first, spec.name,
                  it == result.layers.end() ? 0 : it->second.value,
                  spec.unit);
    }
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace gqdbench

int main(int argc, char** argv) {
  gqdbench::RunOptions options;
  std::string generate;
  for (int i = 1; i < argc; i++) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      return gqdbench::Usage();
    }
    std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--pool") {
      options.pool = value;
    } else if (flag == "--data-dir") {
      options.data_dir = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--generate-expected") {
      generate = value;
    } else {
      return gqdbench::Usage();
    }
  }
  if (options.pool != "default" && options.pool != "heldout") {
    return gqdbench::Usage();
  }
  if (!generate.empty()) {
    return gqdbench::GenerateExpected(
        generate, gqdbench::ExpectedPath(options.data_dir, generate));
  }
  if (options.workload.empty() || options.seconds <= 0) {
    return gqdbench::Usage();
  }
  return gqdbench::Run(options);
}
