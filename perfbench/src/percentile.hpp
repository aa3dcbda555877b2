// Nearest-rank percentiles over raw samples.
//
// The p-th percentile of n samples is the sample of rank ceil(p * n) in
// ascending order (rank 1 is the minimum, rank n the maximum), so every
// reported percentile is a sample that was actually observed and p90 never
// exceeds the maximum.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// 1-based nearest rank ceil(q * n), clamped to [1, n]; n must be > 0.
std::size_t nearest_rank(double q, std::size_t n);

/// Nearest-rank q-quantile (q in [0, 1]) of `values`; 0 when empty.
double percentile(std::vector<double> values, double q);

inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

/// Mean of the slowest (1 - q) share of `values`: the ceil((1 - q) * n)
/// largest samples, at least one.  Unlike a single percentile it moves
/// smoothly when a tail cluster of about (1 - q) * n samples gains or loses
/// a member; 0 when empty.
double tail_mean(std::vector<double> values, double q);

/// Arithmetic mean; 0 when empty.
double mean(const std::vector<double>& values);

}  // namespace perfbench
