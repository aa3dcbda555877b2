#include "percentile.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

namespace perfbench {

std::size_t nearest_rank(double q, std::size_t n) {
  // q * n is computed in binary floating point, so a product that is
  // mathematically an integer (0.9 * 30 = 27) can land a hair above it;
  // the tolerance keeps ceil from skipping to the next rank.
  const double exact = q * static_cast<double>(n);
  const auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const std::size_t rank = nearest_rank(q, values.size());
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double tail_mean(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const std::size_t n = values.size();
  const auto count = static_cast<std::size_t>(
      std::ceil((1.0 - q) * static_cast<double>(n) - 1e-9));
  const std::size_t take = std::clamp<std::size_t>(count, 1, n);
  std::sort(values.begin(), values.end(), std::greater<>());
  values.resize(take);
  return mean(values);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

}  // namespace perfbench
