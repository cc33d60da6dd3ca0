// Named metrics with units, and the outcome every scenario returns.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;  ///< samples behind the value (0: a count/ratio)
};

class Metrics {
 public:
  void add(std::string name, double value, std::string unit,
           std::size_t samples = 0);
  void append(const Metrics& other);
  [[nodiscard]] const std::vector<Metric>& all() const { return all_; }
  /// {"name": {"value": v, "unit": u}, ...} with every digit of v.
  [[nodiscard]] std::string to_json() const;

 private:
  std::vector<Metric> all_;
};

/// What one scenario run hands back to main.
struct Outcome {
  std::string scenario;
  Metrics e2e;    ///< end-to-end metrics
  Metrics layer;  ///< per-layer metrics (traced runs)
  std::vector<Span> spans;
  double setup_s = 0;  ///< median of the scenario's timed set-ups
  /// Peak RSS (MiB) when the scenario's steady work ended: a serve
  /// scenario reads it after its lo phase, before the hi phase and the
  /// ladder can queue requests in memory when the host is slow.
  double rss_mib = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< refused, timed out, unreachable or wrong
  std::uint64_t wrong = 0;   ///< wrong outputs (also counted in failed)
  std::vector<std::string> notes;  ///< human-readable flags and counts
};

/// JSON string literal for `s` (quotes included).
[[nodiscard]] std::string json_string(const std::string& s);

/// Monotonic clock in nanoseconds.
[[nodiscard]] std::int64_t now_ns();

/// Peak resident set size of this process in MiB (VmHWM).
[[nodiscard]] double rss_peak_mib();

/// Samples the task pool's arena size into a process-wide peak, and reads
/// that peak back.
void note_pool_arena();
[[nodiscard]] std::uint64_t pool_arena_peak();

}  // namespace perfbench
