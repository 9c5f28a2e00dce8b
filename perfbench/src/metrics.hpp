// Metric maths of the service benchmark: percentile cuts over exact
// per-request samples, zero-window guards and per-op ratios.
//
// Everything here is a pure function of its arguments so the benchmark's
// tests can pin each rule down without running a simulation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Samples a tail percentile must leave beyond itself to be reported.
inline constexpr std::size_t kMinTailSamples = 10;

/// `num / den`, 0 when the window is empty (den == 0): an idle layer
/// reports 0, never inf or NaN.
inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `q` of the samples at or below it. 0 when empty.
inline double percentile(const std::vector<std::int64_t>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  // The epsilon keeps q*n from rounding up past an exact rank
  // (0.07 * 100 = 7.000000000000001 in binary floating point).
  auto rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return static_cast<double>(sorted[rank - 1]);
}

/// A tail percentile cut: the requested percentile when at least
/// kMinTailSamples samples lie beyond it, otherwise the highest percentile
/// that still has that many beyond it.
struct TailCut {
  double value = 0.0;     ///< the sample at the cut
  double quantile = 0.0;  ///< percentile actually reported (rank / n)
  std::size_t beyond = 0;  ///< samples strictly after the cut's rank
  std::size_t samples = 0;
};

inline TailCut tail_cut(const std::vector<std::int64_t>& sorted, double q) {
  TailCut cut;
  cut.samples = sorted.size();
  if (sorted.size() <= kMinTailSamples) return cut;  // no cut has 10 beyond
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size() - kMinTailSamples);
  cut.value = static_cast<double>(sorted[rank - 1]);
  cut.quantile = static_cast<double>(rank) / n;
  cut.beyond = sorted.size() - rank;
  return cut;
}

/// Share of issued requests that missed the latency limit: every request
/// that did not complete counts as a miss, as does every completed one
/// slower than `limit`. `latencies` holds the completed requests only.
inline double slo_miss_frac(const std::vector<std::int64_t>& latencies,
                            std::uint64_t issued, std::int64_t limit) {
  if (issued == 0) return 0.0;
  const auto completed = static_cast<std::uint64_t>(latencies.size());
  const std::uint64_t failed = issued > completed ? issued - completed : 0;
  const auto slow = static_cast<std::uint64_t>(
      std::count_if(latencies.begin(), latencies.end(),
                    [limit](std::int64_t l) { return l > limit; }));
  return static_cast<double>(failed + slow) / static_cast<double>(issued);
}

/// Arithmetic mean of a sample (0 when empty).
inline double mean(const std::vector<std::int64_t>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const std::int64_t x : v) sum += static_cast<double>(x);
  return sum / static_cast<double>(v.size());
}

/// Median of an unsorted set of repeated measurements (0 when empty).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

}  // namespace perfbench
