#include "load.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace perfbench {

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag) {
  Rng r(seed ^ (tag * 0xD1B54A32D192ED03ull));
  return r.next();
}

std::uint64_t shard_key(std::size_t rank) {
  return mix_seed(0x6B657973u, rank);
}

Zipf::Zipf(std::size_t n, double exponent) {
  cdf_.resize(std::max<std::size_t>(n, 1));
  double sum = 0;
  for (std::size_t k = 0; k < cdf_.size(); ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), exponent);
    cdf_[k] = sum;
  }
  for (double& c : cdf_) c /= sum;
  cdf_.back() = 1.0;
}

std::size_t Zipf::sample(Rng& rng) const {
  const double u = rng.uniform();
  return static_cast<std::size_t>(
      std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
}

double zipf_exponent_for_top_share(std::size_t n, double share) {
  double lo = 0.0, hi = 16.0;  // top share rises monotonically with s
  for (int i = 0; i < 100; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (Zipf(n, mid).top_share() < share) lo = mid;
    else hi = mid;
  }
  return 0.5 * (lo + hi);
}

std::vector<Arrival> make_schedule(std::uint64_t seed, double rate,
                                   double seconds, const LoadMix& mix) {
  Rng rng(seed);
  std::vector<Arrival> out;
  out.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
  const Zipf zipf(mix.zipf_keys,
                  mix.zipf_keys > 1
                      ? zipf_exponent_for_top_share(mix.zipf_keys,
                                                    mix.zipf_top_share)
                      : 1.0);
  const double horizon_ns = seconds * 1e9;
  double t = 0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate * 1e9;
    if (t >= horizon_ns) break;
    Arrival a;
    a.due_ns = static_cast<std::int64_t>(t);
    const std::uint64_t c = rng.next() % 6;
    a.cls = c == 0 ? 0 : (c <= 2 ? 1 : 2);
    a.body_ns = mix.body_ns;
    if (a.cls == 2 && mix.long_batch_every > 0 &&
        rng.next() % mix.long_batch_every == 0)
      a.body_ns = mix.long_body_ns;
    a.payload_bytes = mix.large_every > 0 && rng.next() % mix.large_every == 0
                          ? mix.large_payload_bytes
                          : mix.payload_bytes;
    if (mix.zipf_keys > 0) {
      // The seed picks which key each request carries; the key values are
      // fixed, so every seed sees the same key -> node placement.
      a.key = shard_key(zipf.sample(rng));
    }
    out.push_back(a);
  }
  return out;
}

namespace {

void put_u64(std::uint8_t* p, std::uint64_t v) { std::memcpy(p, &v, 8); }
void put_u32(std::uint8_t* p, std::uint32_t v) { std::memcpy(p, &v, 4); }

void fill(std::uint64_t seed, std::uint64_t index, std::uint8_t* p,
          std::size_t n) {
  Rng r(seed ^ (index * 0x9E3779B97F4A7C15ull));
  for (std::size_t i = 0; i < n; i += 8) {
    const std::uint64_t w = r.next();
    std::memcpy(p + i, &w, std::min<std::size_t>(8, n - i));
  }
}

}  // namespace

std::vector<std::uint8_t> make_payload(std::uint64_t seed,
                                       std::uint64_t index,
                                       const Arrival& a) {
  std::vector<std::uint8_t> p(
      std::max<std::size_t>(a.payload_bytes, kPayloadHeader));
  put_u64(p.data(), index);
  put_u32(p.data() + 8, a.body_ns);
  put_u32(p.data() + 12, static_cast<std::uint32_t>(p.size()));
  fill(seed, index, p.data() + kPayloadHeader, p.size() - kPayloadHeader);
  return p;
}

std::uint32_t payload_body_ns(std::span<const std::uint8_t> p) {
  if (p.size() < kPayloadHeader) return 0;
  std::uint32_t v = 0;
  std::memcpy(&v, p.data() + 8, 4);
  return v;
}

bool payload_matches(std::uint64_t seed, std::uint64_t index,
                     std::uint32_t size, std::span<const std::uint8_t> echo) {
  const std::size_t n = std::max<std::size_t>(size, kPayloadHeader);
  if (echo.size() < n) return false;
  std::uint64_t idx = 0;
  std::uint32_t len = 0;
  std::memcpy(&idx, echo.data(), 8);
  std::memcpy(&len, echo.data() + 12, 4);
  if (idx != index || len != n) return false;
  std::vector<std::uint8_t> want(n - kPayloadHeader);
  fill(seed, index, want.data(), want.size());
  return std::memcmp(want.data(), echo.data() + kPayloadHeader,
                     want.size()) == 0;
}

std::vector<double> ladder_grid(double lo, double hi, double step) {
  std::vector<double> g;
  for (double r = lo; ; r *= step) {
    g.push_back(r);
    if (r >= hi) break;
  }
  return g;
}

LadderResult run_ladder(const std::vector<double>& grid, double slo_ms,
                        const std::function<Probe(double)>& probe) {
  LadderResult res;
  if (grid.empty()) return res;
  res.probes.push_back(probe(grid[0]));
  if (!res.probes.back().meets(slo_ms)) {
    res.max_rate = grid[0];
    res.floor_missed = true;
    return res;
  }
  std::size_t lo = 0, hi = grid.size();  // grid[lo] met; grid[hi] unknown/missed
  while (lo + 1 < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    res.probes.push_back(probe(grid[mid]));
    if (res.probes.back().meets(slo_ms)) lo = mid;
    else hi = mid;
  }
  res.max_rate = grid[lo];
  return res;
}

}  // namespace perfbench
