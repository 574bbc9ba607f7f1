// Order statistics for the benchmark's reported numbers.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Linear interpolation between order statistics (the "type 7" estimator
/// of numpy/R); q in [0, 1]. Empty input gives 0.
[[nodiscard]] inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Samples that lie above the q-quantile of n samples. A reported tail
/// percentile must leave at least kMinBeyond of them, so p95 needs 200
/// samples and p99 needs 1000.
inline constexpr int kMinBeyond = 10;

[[nodiscard]] constexpr std::size_t samples_beyond(std::size_t n, double q) {
  // Rounded so that 200 x (1 - 0.95) counts as 10, not 9.999...
  return static_cast<std::size_t>(static_cast<double>(n) * (1.0 - q) + 1e-6);
}

[[nodiscard]] constexpr bool supports_percentile(std::size_t n, double q) {
  return samples_beyond(n, q) >= static_cast<std::size_t>(kMinBeyond);
}

/// Fewest samples that support the q-quantile (200 for p95).
[[nodiscard]] constexpr std::size_t min_samples_for(double q) {
  std::size_t n = 1;
  while (!supports_percentile(n, q)) ++n;
  return n;
}

}  // namespace perfbench
