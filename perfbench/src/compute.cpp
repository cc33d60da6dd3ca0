// fib_fine and raytrace_coarse: repeated solves at 1, 2 and 4 VPs,
// interleaved round-robin (seeded order per round) with the sequential
// kernel, every result checked against the sequential one.
#include <algorithm>
#include <array>
#include <cstdio>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>

#include "anahy/runtime.hpp"
#include "apps/fib_app.hpp"
#include "apps/raytrace_app.hpp"
#include "load.hpp"
#include "raytracer/raytracer.hpp"
#include "scenarios.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

constexpr std::array<int, 3> kVps = {1, 2, 4};
constexpr long kFibN = 28;
constexpr int kRaySize = 256, kRayComplexity = 100, kRayBands = 256;

/// Runtime counters of one solve.
struct SolveCounters {
  anahy::RuntimeStats::Snapshot rt;
  anahy::observe::Snapshot ob;
};

/// Everything measured for one leg (a VP count, or 0 = sequential code).
struct Leg {
  int vps = 0;
  std::vector<double> solve_ms;
  double total_s = 0;
  std::uint64_t tasks = 0, by_main = 0, steals = 0, attempts = 0,
                wakeups = 0, skipped = 0, slept = 0, helped = 0,
                ready_peak = 0, parks = 0;
  double park_ns = 0, vp_ns = 0, imbalance_sum = 0;

  void add(double seconds, const SolveCounters* c) {
    solve_ms.push_back(seconds * 1e3);
    total_s += seconds;
    if (c == nullptr) return;
    tasks += c->rt.tasks_executed;
    by_main += c->rt.tasks_run_by_main;
    steals += c->rt.steals;
    attempts += c->rt.steal_attempts;
    wakeups += c->rt.wakeups;
    skipped += c->rt.wakeups_skipped;
    slept += c->rt.joins_slept;
    helped += c->rt.joins_helped;
    ready_peak = std::max(ready_peak, c->rt.ready_peak);
    parks += c->ob.total.idle_parks;
    park_ns += static_cast<double>(c->ob.total.idle_park_ns);
    vp_ns += static_cast<double>(c->ob.elapsed_ns) * c->ob.num_vps;
    double max = 0, sum = 0;
    for (int v = 0; v < c->ob.num_vps; ++v) {
      const auto n =
          static_cast<double>(c->ob.per_vp[static_cast<std::size_t>(v)].tasks_run);
      max = std::max(max, n);
      sum += n;
    }
    if (sum > 0) imbalance_sum += max / (sum / c->ob.num_vps);
  }
  /// Solves per second at the median solve time: steadier than solves ÷
  /// total time on a shared host, where a few solves stall.
  [[nodiscard]] double rate() const {
    std::vector<double> t = solve_ms;
    return t.empty() ? 0 : 1000.0 / median(t);
  }
  [[nodiscard]] double per_k(std::uint64_t x) const {
    return tasks ? 1000.0 * static_cast<double>(x) / static_cast<double>(tasks)
                 : 0;
  }
  [[nodiscard]] double per_solve(double x) const {
    return solve_ms.empty() ? 0 : x / static_cast<double>(solve_ms.size());
  }
};

SolveCounters delta(const SolveCounters& after, const SolveCounters& before) {
  SolveCounters d;
  const auto& a = after.rt;
  const auto& b = before.rt;
  d.rt.tasks_executed = a.tasks_executed - b.tasks_executed;
  d.rt.tasks_run_by_main = a.tasks_run_by_main - b.tasks_run_by_main;
  d.rt.steals = a.steals - b.steals;
  d.rt.steal_attempts = a.steal_attempts - b.steal_attempts;
  d.rt.wakeups = a.wakeups - b.wakeups;
  d.rt.wakeups_skipped = a.wakeups_skipped - b.wakeups_skipped;
  d.rt.joins_slept = a.joins_slept - b.joins_slept;
  d.rt.joins_helped = a.joins_helped - b.joins_helped;
  d.rt.ready_peak = a.ready_peak;  // lifetime high-water mark
  d.ob = after.ob.delta(before.ob);
  return d;
}

SolveCounters counters(const anahy::Runtime& rt) {
  return {rt.stats(), rt.observe_snapshot()};
}

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e9;
}

/// A compute kernel as the round-robin loop sees it.
struct Kernel {
  const char* scenario = "";
  /// One timed set-up; keeps its state when `keep`.
  std::function<void(bool keep)> setup;
  /// One solve on `vps` VPs (0 = sequential). Returns the solve's wall
  /// seconds; fills `c` for Anahy solves; sets `ok` from the result check.
  std::function<double(int vps, SolveCounters* c, bool& ok)> solve;
  /// Extra kernel.* metrics (traced runs).
  std::function<void(Metrics&)> kernel_metrics;
  /// Sequential solves per round (a short sequential kernel gets several,
  /// so its median rests on as many samples as the Anahy legs' time).
  int seq_reps = 1;
};

Outcome run_compute(const RunConfig& cfg, Kernel k) {
  Outcome out;
  out.scenario = k.scenario;
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    const std::int64_t t0 = now_ns();
    k.setup(i + 1 == kSetups);
    setups.push_back(seconds_since(t0));
  }
  out.setup_s = median(setups);

  std::vector<Leg> legs(1 + kVps.size());
  for (std::size_t i = 0; i < kVps.size(); ++i) legs[i + 1].vps = kVps[i];
  std::vector<std::size_t> order(legs.size());
  std::iota(order.begin(), order.end(), 0);
  Rng rng(mix_seed(cfg.seed, 0xC0317E));
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(cfg.seconds * 1e9);
  auto solve_once = [&](Leg& leg) {
    SolveCounters c;
    bool ok = true;
    const std::int64_t t0 = now_ns();
    const double s = k.solve(leg.vps, leg.vps ? &c : nullptr, ok);
    ++out.attempted;
    if (!ok) {
      ++out.wrong;
      ++out.failed;
    }
    leg.add(s, leg.vps ? &c : nullptr);
    if (cfg.trace)
      out.spans.push_back({leg.vps ? SpanName::kSolve : SpanName::kSeqSolve,
                           -1, static_cast<std::uint64_t>(leg.vps), t0,
                           t0 + static_cast<std::int64_t>(s * 1e9)});
  };
  std::uint64_t round = 0;
  while (now_ns() < end || round == 0) {
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng.next() % i]);
    for (const std::size_t li : order)
      for (int rep = 0; rep < (legs[li].vps ? 1 : k.seq_reps); ++rep)
        solve_once(legs[li]);
    note_pool_arena();
    ++round;
  }

  out.rss_mib = rss_peak_mib();

  const Leg& seq = legs[0];
  const Leg& v1 = legs[1];
  const Leg& v2 = legs[2];
  const Leg& v4 = legs[3];
  out.e2e.add("solves_per_s_1vp", v1.rate(), "1/s", v1.solve_ms.size());
  out.e2e.add("solves_per_s_4vp", v4.rate(), "1/s", v4.solve_ms.size());
  out.e2e.add("speedup_2vp", v2.rate() / v1.rate(), "x", v2.solve_ms.size());
  out.e2e.add("speedup_4vp", v4.rate() / v1.rate(), "x", v4.solve_ms.size());
  out.e2e.add("seq_ratio_1vp", v1.rate() / seq.rate(), "x",
              seq.solve_ms.size());

  Metrics& m = out.layer;
  for (std::size_t i = 1; i < legs.size(); ++i) {
    std::vector<double> t = legs[i].solve_ms;
    const std::string s = std::to_string(legs[i].vps) + "vp";
    m.add("runtime.solve_ms_p50_" + s, percentile(t, 50), "ms", t.size());
    m.add("runtime.solve_ms_p90_" + s, percentile(t, 90), "ms", t.size());
  }
  for (const Leg* l : {&v1, &v4})
    m.add("runtime.ns_per_task_" + std::to_string(l->vps) + "vp",
          l->tasks ? l->total_s * 1e9 / static_cast<double>(l->tasks) : 0,
          "ns", l->solve_ms.size());
  m.add("runtime.wakeups_per_ktask_4vp", v4.per_k(v4.wakeups), "count");
  m.add("runtime.wakeups_skipped_per_ktask_4vp", v4.per_k(v4.skipped),
        "count");
  m.add("runtime.steal_success_ratio_4vp",
        v4.attempts ? static_cast<double>(v4.steals) /
                          static_cast<double>(v4.attempts)
                    : 1.0,
        "ratio");
  for (const Leg* l : {&v2, &v4}) {
    const std::string s = std::to_string(l->vps) + "vp";
    m.add("runtime.steals_per_ktask_" + s, l->per_k(l->steals), "count");
    m.add("runtime.main_task_frac_" + s,
          l->tasks ? static_cast<double>(l->by_main) /
                         static_cast<double>(l->tasks)
                   : 0,
          "ratio");
    m.add("runtime.idle_frac_" + s, l->vp_ns > 0 ? l->park_ns / l->vp_ns : 0,
          "ratio");
    m.add("runtime.parks_per_solve_" + s,
          l->per_solve(static_cast<double>(l->parks)), "count");
    m.add("runtime.park_ms_per_solve_" + s, l->per_solve(l->park_ns / 1e6),
          "ms");
    m.add("runtime.vp_task_imbalance_" + s, l->per_solve(l->imbalance_sum),
          "ratio");
  }
  m.add("runtime.joins_slept_per_ktask_4vp", v4.per_k(v4.slept), "count");
  m.add("runtime.joins_helped_per_ktask_4vp", v4.per_k(v4.helped), "count");
  m.add("runtime.ready_peak_4vp", static_cast<double>(v4.ready_peak), "count");
  std::vector<double> seq_ms = seq.solve_ms;
  m.add("kernel.seq_solve_ms", median(seq_ms), "ms", seq_ms.size());
  if (k.kernel_metrics) k.kernel_metrics(m);

  char buf[256];
  for (const Leg& l : legs) {
    std::vector<double> t = l.solve_ms;
    std::snprintf(buf, sizeof buf,
                  "%s %s: %zu solves, %.3f solves/s at the median %.3f ms",
                  k.scenario,
                  l.vps ? (std::to_string(l.vps) + " VP").c_str() : "seq",
                  t.size(), l.rate(), median(t));
    out.notes.emplace_back(buf);
  }
  return out;
}

}  // namespace

Outcome run_fib_fine(const RunConfig& cfg) {
  std::array<std::unique_ptr<anahy::Runtime>, kVps.size()> rts;
  long expected = 0;
  Kernel k;
  k.scenario = "fib_fine";
  k.seq_reps = 8;
  k.setup = [&](bool keep) {
    std::array<std::unique_ptr<anahy::Runtime>, kVps.size()> fresh;
    expected = apps::fib_sequential(kFibN);
    for (std::size_t i = 0; i < kVps.size(); ++i) {
      fresh[i] = std::make_unique<anahy::Runtime>(
          anahy::Options{.num_vps = kVps[i]});
      static_cast<void>(apps::fib_anahy(*fresh[i], 24));  // warm-up
    }
    if (keep) rts = std::move(fresh);
  };
  k.solve = [&](int vps, SolveCounters* c, bool& ok) {
    if (vps == 0) {
      const std::int64_t t0 = now_ns();
      ok = apps::fib_sequential(kFibN) == expected;
      return seconds_since(t0);
    }
    anahy::Runtime& rt = *rts[static_cast<std::size_t>(
        std::find(kVps.begin(), kVps.end(), vps) - kVps.begin())];
    const SolveCounters before = counters(rt);
    const std::int64_t t0 = now_ns();
    const long r = apps::fib_anahy(rt, kFibN);
    const double s = seconds_since(t0);
    *c = delta(counters(rt), before);
    ok = r == expected;
    return s;
  };
  return run_compute(cfg, k);
}

Outcome run_raytrace_coarse(const RunConfig& cfg) {
  std::optional<raytracer::BenchScene> scene;
  std::optional<raytracer::Framebuffer> reference;
  Kernel k;
  k.scenario = "raytrace_coarse";
  k.setup = [&](bool) {
    scene.emplace(raytracer::build_bench_scene(kRayComplexity));
    reference.emplace(kRaySize, kRaySize);
    apps::raytrace_sequential(scene->scene, scene->camera, *reference);
    anahy::Runtime rt(anahy::Options{.num_vps = kVps.back()});
    raytracer::Framebuffer fb(kRaySize, kRaySize);
    apps::raytrace_anahy(rt, scene->scene, scene->camera, fb, kRayBands);
  };
  k.solve = [&](int vps, SolveCounters* c, bool& ok) {
    raytracer::Framebuffer fb(kRaySize, kRaySize);
    if (vps == 0) {
      const std::int64_t t0 = now_ns();
      apps::raytrace_sequential(scene->scene, scene->camera, fb);
      const double s = seconds_since(t0);
      ok = fb == *reference;
      return s;
    }
    // Each solve owns its runtime, as the paper's programs do: start-up
    // and shutdown are part of the solve; the counter reads are not.
    const std::int64_t t0 = now_ns();
    auto rt = std::make_unique<anahy::Runtime>(anahy::Options{.num_vps = vps});
    apps::raytrace_anahy(*rt, scene->scene, scene->camera, fb, kRayBands);
    const std::int64_t t1 = now_ns();
    *c = counters(*rt);  // a fresh runtime: totals are the solve's
    const std::int64_t t2 = now_ns();
    rt.reset();
    const std::int64_t t3 = now_ns();
    ok = fb == *reference;
    return static_cast<double>((t1 - t0) + (t3 - t2)) / 1e9;
  };
  k.kernel_metrics = [&](Metrics& m) {
    // Each band rendered alone, sequentially: the slowest band bounds the
    // parallel solve time.
    const auto bands = raytracer::split_rows(kRaySize, kRayBands);
    raytracer::Framebuffer fb(kRaySize, kRaySize);
    std::vector<double> cost;
    for (const auto& b : bands) {
      const std::int64_t t0 = now_ns();
      raytracer::render_rows(scene->scene, scene->camera, fb, b.y0, b.y1);
      cost.push_back(static_cast<double>(now_ns() - t0));
    }
    const double mx = *std::max_element(cost.begin(), cost.end());
    m.add("kernel.band_cost_max_over_mean", mx / mean(cost), "ratio",
          cost.size());
  };
  return run_compute(cfg, k);
}

}  // namespace perfbench
