// Microbenchmark: task spawn/join throughput of the scheduling hot path.
//
// Runs the paper's Fibonacci workload (one task per recursive branch, the
// finest grain the runtime supports) under the work-stealing policy at
// 1/2/4 VPs, and reports tasks/second, the speedup over 1 VP, plus the
// scheduler counters that explain the result (steal rate vs LIFO depth,
// join inlining, eventcount wakeups). Reps are interleaved round-robin
// over the VP counts, so host noise hits every VP count alike; speedups
// compare medians. Emits machine-readable results to BENCH_spawn.json
// (override with --out=...).
//
// Flags: --fib=N (default 21)  --reps=R (default 3)  --out=PATH
//        --min-speedup4=X  exit 1 unless the 4-VP median throughput is at
//                          least X times the 1-VP median (0 = no gate;
//                          scripts/check.sh --scaling sets 2.5)
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "anahy/runtime.hpp"
#include "apps/fib_app.hpp"
#include "benchutil/cli.hpp"
#include "benchutil/stats.hpp"
#include "benchutil/table.hpp"
#include "benchutil/timer.hpp"

namespace {

constexpr int kVpCounts[] = {1, 2, 4};

struct Result {
  std::string policy = to_string(anahy::PolicyKind::kWorkStealing);
  int vps = 0;
  benchutil::RunStats seconds;  // one sample per rep
  anahy::RuntimeStats::Snapshot stats;  // from the last rep
  [[nodiscard]] double tasks_per_sec(long fib_n) const {
    return static_cast<double>(apps::fib_task_count(fib_n)) / seconds.min();
  }
};

/// One timed fib(fib_n) on a fresh `vps`-VP runtime, checked.
void run_once(Result& r, long fib_n) {
  anahy::Options o;
  o.num_vps = r.vps;
  anahy::Runtime rt(o);
  // Warm the pools/TLBs with a tiny run before timing.
  (void)apps::fib_anahy(rt, 5);
  benchutil::Timer t;
  const long got = apps::fib_anahy(rt, fib_n);
  r.seconds.add(t.elapsed_seconds());
  if (got != apps::fib_sequential(fib_n)) {
    std::fprintf(stderr, "FATAL: wrong fib result at %d vps\n", r.vps);
    std::exit(1);
  }
  r.stats = rt.stats();
}

/// Median throughput of `r` over the 1-VP median.
double speedup(const std::vector<Result>& results, const Result& r) {
  return results.front().seconds.median() / r.seconds.median();
}

void write_json(const std::string& path, long fib_n, int reps,
                const std::vector<Result>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"micro_spawn_throughput\",\n");
  std::fprintf(f, "  \"workload\": \"fib\",\n");
  std::fprintf(f, "  \"fib_n\": %ld,\n", fib_n);
  std::fprintf(f, "  \"tasks_per_run\": %ld,\n", apps::fib_task_count(fib_n));
  std::fprintf(f, "  \"reps\": %d,\n", reps);
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    const auto& s = r.stats;
    std::fprintf(
        f,
        "    {\"policy\": \"%s\", \"vps\": %d, \"tasks_per_sec\": %.0f, "
        "\"best_seconds\": %.6f, \"median_seconds\": %.6f, "
        "\"mean_seconds\": %.6f, "
        "\"steals\": %llu, \"steal_attempts\": %llu, "
        "\"joins_inlined\": %llu, \"joins_helped\": %llu, "
        "\"joins_slept\": %llu, \"ready_peak\": %llu, "
        "\"wakeups\": %llu, \"wakeups_skipped\": %llu}%s\n",
        r.policy.c_str(), r.vps, r.tasks_per_sec(fib_n), r.seconds.min(),
        r.seconds.median(), r.seconds.mean(),
        static_cast<unsigned long long>(s.steals),
        static_cast<unsigned long long>(s.steal_attempts),
        static_cast<unsigned long long>(s.joins_inlined),
        static_cast<unsigned long long>(s.joins_helped),
        static_cast<unsigned long long>(s.joins_slept),
        static_cast<unsigned long long>(s.ready_peak),
        static_cast<unsigned long long>(s.wakeups),
        static_cast<unsigned long long>(s.wakeups_skipped),
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  // Median throughput at each VP count over the 1-VP median.
  std::fprintf(f, "  \"speedup_vs_1vp\": {");
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::fprintf(f, "%s\"%d\": %.2f", i == 0 ? "" : ", ", results[i].vps,
                 speedup(results, results[i]));
  }
  std::fprintf(f, "}\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const benchutil::Cli cli(argc, argv);
  const long fib_n = cli.get_int("fib", 21);
  const int reps = cli.get_int("reps", 3);
  const std::string out = cli.get("out", "BENCH_spawn.json");
  const double min_speedup4 = cli.get_double("min-speedup4", 0.0);

  std::printf("micro_spawn_throughput: fib(%ld) = %ld tasks per run, "
              "%d interleaved reps, best-of-reps tasks/s, median speedups\n",
              fib_n, apps::fib_task_count(fib_n), reps);

  std::vector<Result> results(std::size(kVpCounts));
  for (std::size_t i = 0; i < results.size(); ++i)
    results[i].vps = kVpCounts[i];
  for (int rep = 0; rep < reps; ++rep)
    for (Result& r : results) run_once(r, fib_n);

  benchutil::Table table({"policy", "vps", "tasks/sec", "best s", "median s",
                          "steals", "attempts", "inlined", "ready-peak",
                          "wakeups", "skipped"});
  for (const Result& r : results) {
    table.add_row({r.policy, std::to_string(r.vps),
                   benchutil::Table::num(r.tasks_per_sec(fib_n)),
                   benchutil::Table::num(r.seconds.min()),
                   benchutil::Table::num(r.seconds.median()),
                   std::to_string(r.stats.steals),
                   std::to_string(r.stats.steal_attempts),
                   std::to_string(r.stats.joins_inlined),
                   std::to_string(r.stats.ready_peak),
                   std::to_string(r.stats.wakeups),
                   std::to_string(r.stats.wakeups_skipped)});
  }
  std::printf("%s\n", table.to_text().c_str());
  for (const Result& r : results) {
    std::printf("vps=%d: %.2fx the 1-VP median throughput\n", r.vps,
                speedup(results, r));
  }

  write_json(out, fib_n, reps, results);
  std::printf("wrote %s\n", out.c_str());

  if (min_speedup4 > 0) {
    const double s4 = speedup(results, results.back());
    if (s4 < min_speedup4) {
      std::printf("FAIL: 4-VP speedup %.2fx < %.2fx\n", s4, min_speedup4);
      return 1;
    }
    std::printf("OK: 4-VP speedup %.2fx >= %.2fx\n", s4, min_speedup4);
  }
  return 0;
}
