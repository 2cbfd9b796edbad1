// Summary statistics and process resource readings for gqdbench.

#ifndef GQDBENCH_STATS_H_
#define GQDBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace gqdbench {

/// Nearest-rank percentile (p in [0, 100]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);

double Median(const std::vector<double>& values);

/// Operations per block in BlockPercentile: the fewest that leave ten
/// samples beyond p99.
inline constexpr std::size_t kLatencyBlock = 1000;

/// Median over consecutive blocks of `block` samples of each block's
/// nearest-rank percentile p; a trailing partial block is left out. With
/// fewer than two whole blocks this is the percentile of all samples. Pass
/// samples in operation start order, so that a few slow seconds of the host
/// move a few blocks instead of the whole run's tail.
double BlockPercentile(const std::vector<double>& values, double p,
                       std::size_t block = kLatencyBlock);

/// Samples ranked above the nearest-rank position of percentile p among n.
std::size_t SamplesBeyond(std::size_t n, double p);

/// The highest of p50, p90, p99 and p99.9 that has at least ten samples
/// beyond it among n samples; 0 when not even the median has.
double SupportedTailPercentile(std::size_t n);

/// User + system CPU seconds this process has used so far.
double ProcessCpuSeconds();

/// The process's resident-set high-water mark, in MB.
double PeakRssMb();

}  // namespace gqdbench

#endif  // GQDBENCH_STATS_H_
