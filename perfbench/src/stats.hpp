// Sample statistics for the benchmark: nearest-rank percentiles and the
// "highest percentile with at least ten samples beyond it" rule.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly beyond a reported tail percentile.
inline constexpr std::size_t kTailSamplesBeyond = 10;

/// Nearest-rank rank (1-based) of percentile `q` (0 < q <= 100) among `n`
/// samples: the smallest rank whose share of samples at or below it is at
/// least q percent. 0 when n == 0.
[[nodiscard]] std::size_t nearest_rank(std::size_t n, double q);

/// Nearest-rank percentile of `v` (sorted in place). 0 for an empty `v`.
[[nodiscard]] double percentile(std::vector<double>& v, double q);

/// The highest of the standard tail percentiles (99.9, 99, 95, 90, 75,
/// 50) not above `cap` that leaves at least kTailSamplesBeyond samples
/// beyond its nearest rank among `n` samples; 0 when none does.
[[nodiscard]] double supported_percentile(std::size_t n, double cap = 99.0);

/// Median of `v` (sorted in place); 0 for an empty `v`.
[[nodiscard]] double median(std::vector<double>& v);

/// Arithmetic mean; 0 for an empty `v`.
[[nodiscard]] double mean(const std::vector<double>& v);

/// Summary of one timing distribution.
struct Dist {
  std::size_t n = 0;
  double p50 = 0;
  double tail = 0;    ///< value at tail_q
  double tail_q = 0;  ///< supported_percentile(n, cap); 0 = none
  double max = 0;
};

/// Sorts `v` in place and summarizes it; the tail percentile is the
/// highest supported one up to `cap`.
[[nodiscard]] Dist summarize(std::vector<double>& v, double cap = 99.0);

/// Like summarize, but robust to a short stall: samples (time, value) are
/// split into up to `max_windows` equal-time windows of at least
/// kWindowMinSamples samples on average, and the tail is the median over
/// windows of each window's tail percentile (tail_q: the lowest percentile
/// any window supported). p50 and max are over all samples.
inline constexpr std::size_t kWindowMinSamples = 1250;
[[nodiscard]] Dist summarize_windowed(
    std::vector<std::pair<std::int64_t, double>>& samples, double cap = 99.0,
    std::size_t max_windows = 64);

}  // namespace perfbench
