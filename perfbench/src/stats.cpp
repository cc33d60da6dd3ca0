#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

std::size_t nearest_rank(std::size_t n, double q) {
  if (n == 0) return 0;
  const double r = std::ceil(q / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)),
                                 1, n);
}

double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[nearest_rank(v.size(), q) - 1];
}

double supported_percentile(std::size_t n, double cap) {
  for (const double q : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (q > cap) continue;
    const std::size_t rank = nearest_rank(n, q);
    if (rank > 0 && n - rank >= kTailSamplesBeyond) return q;
  }
  return 0;
}

double median(std::vector<double>& v) { return percentile(v, 50.0); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

Dist summarize(std::vector<double>& v, double cap) {
  Dist d;
  d.n = v.size();
  if (v.empty()) return d;
  std::sort(v.begin(), v.end());
  d.p50 = v[nearest_rank(d.n, 50.0) - 1];
  d.tail_q = supported_percentile(d.n, cap);
  if (d.tail_q > 0) d.tail = v[nearest_rank(d.n, d.tail_q) - 1];
  d.max = v.back();
  return d;
}

Dist summarize_windowed(std::vector<std::pair<std::int64_t, double>>& samples,
                        double cap, std::size_t max_windows) {
  std::vector<double> all;
  all.reserve(samples.size());
  for (const auto& [t, v] : samples) all.push_back(v);
  Dist d = summarize(all, cap);
  const std::size_t w =
      std::clamp<std::size_t>(samples.size() / kWindowMinSamples, 1,
                              std::max<std::size_t>(max_windows, 1));
  if (w == 1 || samples.empty()) return d;
  std::sort(samples.begin(), samples.end());
  const std::int64_t t0 = samples.front().first;
  const double span = static_cast<double>(samples.back().first - t0) + 1.0;
  std::vector<std::vector<double>> win(w);
  for (const auto& [t, v] : samples)
    win[std::min(w - 1, static_cast<std::size_t>(
                            static_cast<double>(t - t0) / span *
                            static_cast<double>(w)))]
        .push_back(v);
  std::vector<double> tails;
  double q_min = cap;
  for (auto& x : win) {
    const Dist wd = summarize(x, cap);
    if (wd.tail_q == 0) continue;
    tails.push_back(wd.tail);
    q_min = std::min(q_min, wd.tail_q);
  }
  if (tails.empty()) return d;
  d.tail = median(tails);
  d.tail_q = q_min;
  return d;
}

}  // namespace perfbench
