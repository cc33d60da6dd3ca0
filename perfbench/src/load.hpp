// Seeded load generation: open-loop Poisson arrival schedules, the class /
// body / payload mix, Zipf-skewed shard keys, self-checking payloads and
// the SLO rate ladder. Everything here is a pure function of its seed.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace perfbench {

/// SplitMix64: tiny, seedable, and good enough for load generation.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

/// Derives an independent stream seed from a run seed and a stream tag.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag);

/// The shard key of Zipf rank `rank` (0 = hottest); independent of seeds.
[[nodiscard]] std::uint64_t shard_key(std::size_t rank);

/// Zipf distribution over keys 0..n-1 (key 0 hottest).
class Zipf {
 public:
  Zipf(std::size_t n, double exponent);
  [[nodiscard]] std::size_t sample(Rng& rng) const;
  /// Probability of the hottest key.
  [[nodiscard]] double top_share() const { return cdf_.front(); }

 private:
  std::vector<double> cdf_;
};

/// Exponent whose Zipf over `n` keys gives the hottest key `share`.
[[nodiscard]] double zipf_exponent_for_top_share(std::size_t n, double share);

/// The request mix both serve workloads draw from.
struct LoadMix {
  std::uint32_t body_ns = 5'000;         ///< spin of an ordinary job
  std::uint32_t long_body_ns = 200'000;  ///< spin of a long batch job
  std::uint32_t long_batch_every = 20;   ///< 1 in N batch jobs is long (0: none)
  std::uint32_t payload_bytes = 32;
  std::uint32_t large_payload_bytes = 4096;
  std::uint32_t large_every = 16;        ///< 1 in N payloads is large
  std::size_t zipf_keys = 0;             ///< 0: no shard keys
  double zipf_top_share = 0.70;
};

/// One scheduled request. `due_ns` is relative to the phase start.
struct Arrival {
  std::int64_t due_ns = 0;
  std::uint8_t cls = 0;  ///< anahy::Priority value: 0 high, 1 normal, 2 batch
  std::uint32_t body_ns = 0;
  std::uint32_t payload_bytes = 0;
  std::uint64_t key = 0;
};

/// Poisson arrivals at `rate` per second for `seconds`, classes 1/6 high,
/// 2/6 normal, 3/6 batch, bodies, payload sizes and keys per `mix`.
[[nodiscard]] std::vector<Arrival> make_schedule(std::uint64_t seed,
                                                 double rate, double seconds,
                                                 const LoadMix& mix);

/// Payload layout: [index u64][body_ns u32][size u32][filler ...]; the
/// filler is a function of (seed, index) so an echo can be checked
/// without keeping a copy.
inline constexpr std::size_t kPayloadHeader = 16;
[[nodiscard]] std::vector<std::uint8_t> make_payload(std::uint64_t seed,
                                                     std::uint64_t index,
                                                     const Arrival& a);
/// The spin length a payload asks its body for (0 if malformed).
[[nodiscard]] std::uint32_t payload_body_ns(std::span<const std::uint8_t> p);
/// True when `echo` starts with exactly make_payload(seed, index, a).
[[nodiscard]] bool payload_matches(std::uint64_t seed, std::uint64_t index,
                                   std::uint32_t size,
                                   std::span<const std::uint8_t> echo);

/// Geometric rate ladder from `lo` up to at least `hi`, consecutive rungs
/// at most `step` (e.g. 1.05) apart.
[[nodiscard]] std::vector<double> ladder_grid(double lo, double hi,
                                              double step);

/// Outcome of one fixed-rate probe.
struct Probe {
  double rate = 0;
  double p99_ms = 0;
  bool backlog = false;   ///< completions fell behind the offered rate
  bool gen_late = false;  ///< the generator itself ran late beyond margin
  bool valid_p99 = true;  ///< enough samples for the p99
  [[nodiscard]] bool meets(double slo_ms) const {
    return valid_p99 && !backlog && !gen_late && p99_ms <= slo_ms;
  }
};

struct LadderResult {
  double max_rate = 0;       ///< highest rung that met the SLO
  bool floor_missed = false; ///< even the lowest rung missed (max_rate = it)
  std::vector<Probe> probes;
};

/// Bisects `grid` for its highest rung whose probe meets `slo_ms`,
/// assuming a rung meets it whenever a higher one does. A probe that was
/// late or fell behind counts as a miss.
[[nodiscard]] LadderResult run_ladder(const std::vector<double>& grid,
                                      double slo_ms,
                                      const std::function<Probe(double)>& probe);

}  // namespace perfbench
