#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <thread>
#include <utility>

#include "stats.h"
#include "workloads.h"

namespace gqdbench {

PhaseResult RunClosedLoop(
    std::size_t clients, double seconds, std::size_t whole_rounds,
    const std::function<OpOutcome(std::size_t, std::size_t)>& op) {
  PhaseResult result;
  std::mutex mutex;
  const double cpu_start = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  // (start offset, latency) of every operation, merged in start order.
  using Sample = std::pair<Clock::duration, double>;
  std::vector<Sample> samples;
  auto client = [&](std::size_t c) {
    PhaseResult local;
    std::vector<Sample> local_samples;
    for (std::size_t i = 0;; i++) {
      bool round_boundary = whole_rounds == 0 || i % whole_rounds == 0;
      if (round_boundary && Clock::now() >= deadline) {
        break;
      }
      Clock::time_point op_start = Clock::now();
      OpOutcome outcome = op(c, i);
      local_samples.emplace_back(op_start - start, MsSince(op_start));
      local.attempted++;
      if (!outcome.ok) {
        local.failed++;
      }
      if (outcome.mismatch) {
        local.mismatches++;
      }
    }
    std::lock_guard<std::mutex> lock(mutex);
    result.attempted += local.attempted;
    result.failed += local.failed;
    result.mismatches += local.mismatches;
    samples.insert(samples.end(), local_samples.begin(),
                   local_samples.end());
  };
  if (clients == 1) {
    client(0);
  } else {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; c++) {
      threads.emplace_back(client, c);
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
  }
  result.wall_s = MsSince(start) / 1000.0;
  result.cpu_s = ProcessCpuSeconds() - cpu_start;
  std::sort(samples.begin(), samples.end());
  result.latencies_ms.reserve(samples.size());
  for (const Sample& sample : samples) {
    result.latencies_ms.push_back(sample.second);
  }
  return result;
}

void SetLayer(WorkloadResult* result, const std::string& name, double value,
              const std::string& unit) {
  result->layers[name] = {value, unit};
}

void Die(const std::string& what) {
  std::fprintf(stderr, "gqdbench: %s\n", what.c_str());
  std::exit(1);
}

std::string RequireAnswer(const ExpectedAnswers& expected,
                          const std::string& id, std::uint64_t input_hash) {
  std::string error;
  std::string answer = expected.AnswerFor(id, input_hash, &error);
  if (answer.empty()) {
    Die(error);
  }
  return answer;
}

void DumpSpans(const RunOptions& options, const std::vector<Span>& spans) {
  std::filesystem::create_directories(options.work_dir);
  std::string path = options.work_dir + "/spans-" + options.workload + "-" +
                     std::to_string(options.seed) + ".json";
  std::ofstream out(path, std::ios::trunc);
  out << SpansToJson(spans);
}

}  // namespace gqdbench
