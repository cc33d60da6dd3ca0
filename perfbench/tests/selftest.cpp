// Tests of the benchmark's own code: percentiles, the seeded schedule and
// Zipf keys, payload checks, the SLO ladder and span self time. Exits
// non-zero on the first failed check.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <vector>

#include "load.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace {

using namespace perfbench;

int g_checks = 0;

#define CHECK(cond)                                                     \
  do {                                                                  \
    ++g_checks;                                                         \
    if (!(cond)) {                                                      \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,       \
                   __LINE__, #cond);                                    \
      std::exit(1);                                                     \
    }                                                                   \
  } while (0)

bool same(const std::vector<Arrival>& a, const std::vector<Arrival>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].due_ns != b[i].due_ns || a[i].cls != b[i].cls ||
        a[i].body_ns != b[i].body_ns ||
        a[i].payload_bytes != b[i].payload_bytes || a[i].key != b[i].key)
      return false;
  return true;
}

void test_percentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  CHECK(nearest_rank(100, 99) == 99);
  CHECK(nearest_rank(100, 50) == 50);
  CHECK(nearest_rank(7, 50) == 4);
  CHECK(nearest_rank(0, 50) == 0);
  CHECK(percentile(v, 99) == 99);
  CHECK(percentile(v, 50) == 50);
  CHECK(percentile(v, 100) == 100);
  std::vector<double> odd = {3, 1, 2};
  CHECK(median(odd) == 2);
  // Highest percentile that leaves at least ten samples beyond its rank.
  CHECK(supported_percentile(1000) == 99);   // rank 990, 10 beyond
  CHECK(supported_percentile(999) == 95);    // p99 would leave 9
  CHECK(supported_percentile(10000, 99.9) == 99.9);
  CHECK(supported_percentile(10000) == 99);  // capped at p99
  CHECK(supported_percentile(20) == 50);
  CHECK(supported_percentile(19) == 0);
  std::vector<double> big(1000);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<double>(i);
  const Dist d = summarize(big);
  CHECK(d.n == 1000 && d.tail_q == 99 && d.tail == 989 && d.p50 == 499);
  CHECK(d.max == 999);
  // Windowed tails: a stall confined to one of eight windows moves the
  // plain p99 but not the median of the window p99s.
  std::vector<std::pair<std::int64_t, double>> w;
  for (int i = 0; i < 8 * 1250; ++i)
    w.emplace_back(i, (i / 1250 == 3 && i % 1250 < 100) ? 100.0 : 1.0);
  std::vector<double> flat;
  for (const auto& x : w) flat.push_back(x.second);
  CHECK(summarize(flat).tail == 1.0 || summarize(flat).tail == 100.0);
  const Dist wd = summarize_windowed(w);
  CHECK(wd.tail == 1.0 && wd.tail_q == 99 && wd.n == 10000);
  CHECK(wd.max == 100.0);
  std::vector<std::pair<std::int64_t, double>> few = {{0, 1.0}, {1, 2.0}};
  CHECK(summarize_windowed(few).tail_q == 0);
}

void test_schedule() {
  LoadMix mix;
  const auto a = make_schedule(7, 5000, 2.0, mix);
  const auto b = make_schedule(7, 5000, 2.0, mix);
  const auto c = make_schedule(8, 5000, 2.0, mix);
  CHECK(same(a, b));
  CHECK(!same(a, c));
  CHECK(std::abs(static_cast<double>(a.size()) - 10000) < 400);
  std::size_t cls[3] = {}, large = 0, long_body = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ++cls[a[i].cls];
    if (a[i].payload_bytes == mix.large_payload_bytes) ++large;
    if (a[i].body_ns == mix.long_body_ns) {
      ++long_body;
      CHECK(a[i].cls == 2);  // long bodies are batch jobs only
    }
    if (i > 0) CHECK(a[i].due_ns >= a[i - 1].due_ns);
  }
  const double n = static_cast<double>(a.size());
  CHECK(std::abs(cls[0] / n - 1.0 / 6) < 0.02);
  CHECK(std::abs(cls[1] / n - 2.0 / 6) < 0.02);
  CHECK(std::abs(cls[2] / n - 3.0 / 6) < 0.02);
  CHECK(std::abs(large / n - 1.0 / 16) < 0.01);
  CHECK(std::abs(long_body / static_cast<double>(cls[2]) - 1.0 / 20) < 0.015);
}

void test_zipf_keys() {
  const double s = zipf_exponent_for_top_share(64, 0.70);
  CHECK(std::abs(Zipf(64, s).top_share() - 0.70) < 1e-6);
  LoadMix mix;
  mix.zipf_keys = 64;
  const auto a = make_schedule(11, 4000, 2.0, mix);
  const auto b = make_schedule(11, 4000, 2.0, mix);
  const auto c = make_schedule(12, 4000, 2.0, mix);
  CHECK(same(a, b));
  CHECK(!same(a, c));
  std::size_t hot = 0;
  std::set<std::uint64_t> keys;
  for (const Arrival& x : a) {
    if (x.key == shard_key(0)) ++hot;
    keys.insert(x.key);
  }
  CHECK(std::abs(static_cast<double>(hot) / a.size() - 0.70) < 0.02);
  // The key space is fixed: another seed draws from the same keys.
  for (const Arrival& x : c) {
    bool known = false;
    for (std::size_t r = 0; r < 64 && !known; ++r) known = x.key == shard_key(r);
    CHECK(known);
  }
}

void test_payload() {
  Arrival a;
  a.payload_bytes = 4096;
  a.body_ns = 1234;
  auto p = make_payload(5, 42, a);
  CHECK(p.size() == 4096);
  CHECK(payload_body_ns(p) == 1234);
  CHECK(payload_matches(5, 42, 4096, p));
  CHECK(!payload_matches(5, 43, 4096, p));
  CHECK(!payload_matches(6, 42, 4096, p));
  p[1000] ^= 1;
  CHECK(!payload_matches(5, 42, 4096, p));
  a.payload_bytes = 32;
  auto q = make_payload(5, 1, a);
  q.resize(q.size() + 16);  // body stamps appended after the echo
  CHECK(payload_matches(5, 1, 32, q));
}

void test_ladder() {
  const auto grid = ladder_grid(5000, 64000, 1.05);
  CHECK(grid.front() == 5000 && grid.back() >= 64000);
  for (std::size_t i = 1; i < grid.size(); ++i)
    CHECK(grid[i] / grid[i - 1] <= 1.0501);
  // Synthetic M/M/1-like tail: p99 = 0.5 ms / (1 - rate / 40k), so the
  // 2 ms SLO holds up to exactly 30k/s.
  auto curve = [](double r) {
    Probe p;
    p.rate = r;
    p.p99_ms = r < 40000 ? 0.5 / (1 - r / 40000) : 1e9;
    return p;
  };
  const LadderResult res = run_ladder(grid, 2.0, curve);
  double want = 0;
  for (const double r : grid)
    if (r <= 30000) want = r;
  CHECK(res.max_rate == want);
  CHECK(!res.floor_missed);
  CHECK(res.probes.size() <= 8);
  // A late generator or a growing backlog counts as a miss even when the
  // measured p99 looks fine.
  const LadderResult late = run_ladder(grid, 2.0, [&](double r) {
    Probe p = curve(r);
    p.gen_late = r > 20000;
    return p;
  });
  double want_late = 0;
  for (const double r : grid)
    if (r <= 20000) want_late = r;
  CHECK(late.max_rate == want_late);
  const LadderResult backlog = run_ladder(grid, 2.0, [&](double r) {
    Probe p = curve(r);
    p.backlog = r > 10000;
    return p;
  });
  CHECK(backlog.max_rate <= 10000 && backlog.max_rate * 1.05 > 10000);
  const LadderResult floor =
      run_ladder(grid, 0.1, [&](double r) { return curve(r); });
  CHECK(floor.floor_missed && floor.max_rate == grid.front());
}

void test_self_time() {
  // root [0,100] with children A [10,40] (overlapping B), B [30,60] and
  // C [90,120] (clipped to the root); A has a child [15,20].
  std::vector<Span> s = {
      {SpanName::kRequest, -1, 1, 0, 100},
      {SpanName::kInbound, 0, 1, 10, 40},
      {SpanName::kBody, 0, 1, 30, 60},
      {SpanName::kOutbound, 0, 1, 90, 120},
      {SpanName::kSubmit, 1, 1, 15, 20},
  };
  const auto self = self_times(s);
  CHECK(self[0] == 100 - 50 - 10);
  CHECK(self[1] == 30 - 5);
  CHECK(self[2] == 30);
  CHECK(self[3] == 30);
  CHECK(self[4] == 5);
  // A tiling request tree: the self times add up to the root's wall time.
  std::vector<Span> t = {
      {SpanName::kRequest, -1, 2, 0, 1000},
      {SpanName::kInbound, 0, 2, 100, 400},
      {SpanName::kSubmit, 1, 2, 100, 150},
      {SpanName::kBody, 0, 2, 400, 700},
      {SpanName::kOutbound, 0, 2, 700, 1000},
  };
  std::int64_t sum = 0;
  for (const std::int64_t x : self_times(t)) sum += x;
  CHECK(sum == 1000);
}

}  // namespace

int main() {
  test_percentiles();
  test_schedule();
  test_zipf_keys();
  test_payload();
  test_ladder();
  test_self_time();
  std::printf("perfbench selftest: %d checks passed\n", g_checks);
  return 0;
}
