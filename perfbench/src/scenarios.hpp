// The four scenarios of the benchmark. Each runs for `seconds` of measured
// time after its own set-up and returns its metrics (see METRICS.md).
#pragma once

#include <cstdint>

#include "report.hpp"

namespace perfbench {

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;  ///< record spans and per-layer metrics
};

/// Set-ups each scenario times; its setup_s is their median.
inline constexpr int kSetups = 3;

/// Fixed rates and SLOs of the serve scenarios (absolute, never derived
/// from a measured maximum).
struct RateSpec {
  double lo = 0, hi = 0, slo_ms = 0;
  double ladder_lo = 0, ladder_hi = 0;  ///< rung range searched
};
inline constexpr RateSpec kServeOpenRates{5'000, 25'000, 2.0, 5'000, 64'000};
inline constexpr RateSpec kMeshSkewRates{1'500, 3'000, 10.0, 2'000, 7'000};
inline constexpr double kLadderStep = 1.05;  ///< rungs at most 5% apart

[[nodiscard]] Outcome run_fib_fine(const RunConfig& cfg);
[[nodiscard]] Outcome run_raytrace_coarse(const RunConfig& cfg);
[[nodiscard]] Outcome run_serve_open(const RunConfig& cfg);
[[nodiscard]] Outcome run_mesh_skew(const RunConfig& cfg);

}  // namespace perfbench
