#include "stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

namespace gqdbench {

namespace {

std::size_t NearestRank(std::size_t n, double p) {
  // The epsilon keeps p/100·n from rounding up past an exact rank.
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::size_t rank = NearestRank(values.size(), p);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double Median(const std::vector<double>& values) {
  return Percentile(values, 50);
}

double BlockPercentile(const std::vector<double>& values, double p,
                       std::size_t block) {
  std::size_t blocks = block == 0 ? 0 : values.size() / block;
  if (blocks < 2) {
    return Percentile(values, p);
  }
  std::vector<double> per_block;
  for (std::size_t b = 0; b < blocks; b++) {
    per_block.push_back(Percentile(
        std::vector<double>(values.begin() + b * block,
                            values.begin() + (b + 1) * block),
        p));
  }
  return Median(per_block);
}

std::size_t SamplesBeyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - NearestRank(n, p);
}

double SupportedTailPercentile(std::size_t n) {
  double best = 0;
  for (double p : {50.0, 90.0, 99.0, 99.9}) {
    if (SamplesBeyond(n, p) >= 10) {
      best = p;
    }
  }
  return best;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace gqdbench
