// perfbench: runs one workload of the benchmark of record and prints its
// metrics. Normally driven by run.py, which builds this binary first.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             [--out results.json] [--spans spans.csv] [--commit SHA]
//
// A workload is one scenario or a pair (compute + serve) that splits the
// measured seconds between its halves. With --trace 1 every scenario runs
// twice, untraced then traced, on half the time each, and the output is
// the per-layer metrics plus trace.overhead_frac.* for every end-to-end
// metric. The last stdout line is the result JSON; the exit status is 1
// when any output was wrong, 2 on a usage or environment refusal.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "anahy/task_pool.hpp"
#include "report.hpp"
#include "scenarios.hpp"

extern char** environ;

namespace {

using namespace perfbench;

using ScenarioFn = Outcome (*)(const RunConfig&);

/// A scenario of a workload and its share of the measured seconds.
struct Part {
  const char* name;
  ScenarioFn fn;
  double share;
};

/// The workloads of record pair a compute scenario with a serve scenario;
/// the single scenarios are there for diagnosis. The compute half gets the
/// larger share: its metrics are the gated ones (see README.md).
const std::map<std::string, std::vector<Part>>& workloads() {
  static const std::map<std::string, std::vector<Part>> w = {
      {"fib_fine-serve_open",
       {{"fib_fine", run_fib_fine, 0.65}, {"serve_open", run_serve_open, 0.35}}},
      {"raytrace_coarse-mesh_skew",
       {{"raytrace_coarse", run_raytrace_coarse, 0.65},
        {"mesh_skew", run_mesh_skew, 0.35}}},
      {"fib_fine", {{"fib_fine", run_fib_fine, 1.0}}},
      {"raytrace_coarse", {{"raytrace_coarse", run_raytrace_coarse, 1.0}}},
      {"serve_open", {{"serve_open", run_serve_open, 1.0}}},
      {"mesh_skew", {{"mesh_skew", run_mesh_skew, 1.0}}},
  };
  return w;
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload W --seed N "
               "--seconds S --trace 0|1 [--out PATH] [--spans PATH] "
               "[--commit SHA]\nworkloads:",
               why.c_str());
  for (const auto& [name, _] : workloads()) std::fprintf(stderr, " %s", name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s.size() > 19) return false;
  for (const char c : s)
    if (c < '0' || c > '9') return false;
  out = std::stoull(s);
  return true;
}

struct Args {
  std::string workload, out, spans, commit = "unknown";
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

Args parse(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    static const char* known[] = {"--workload", "--seed", "--seconds",
                                  "--trace",    "--out",  "--spans",
                                  "--commit"};
    if (std::find_if(std::begin(known), std::end(known), [&](const char* k) {
          return flag == k;
        }) == std::end(known))
      usage("unknown argument '" + flag + "'");
    if (i + 1 >= argc) usage("missing value for " + flag);
    if (!kv.emplace(flag, argv[i + 1]).second) usage("repeated " + flag);
  }
  for (const char* req : {"--workload", "--seed", "--seconds", "--trace"})
    if (!kv.count(req)) usage(std::string("missing ") + req);
  Args a;
  a.workload = kv["--workload"];
  if (!workloads().count(a.workload))
    usage("unknown workload '" + a.workload + "'");
  if (!parse_u64(kv["--seed"], a.seed)) usage("--seed must be an integer");
  std::uint64_t secs = 0;
  if (!parse_u64(kv["--seconds"], secs) || secs < 1 || secs > 600)
    usage("--seconds must be a whole number from 1 to 600");
  a.seconds = static_cast<double>(secs);
  if (kv["--trace"] != "0" && kv["--trace"] != "1")
    usage("--trace must be 0 or 1");
  a.trace = kv["--trace"] == "1";
  a.out = kv.count("--out") ? kv["--out"] : "";
  a.spans = kv.count("--spans") ? kv["--spans"] : "";
  if (kv.count("--commit")) a.commit = kv["--commit"];
  return a;
}

bool sanitizer_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return CPU_COUNT(&set);
}

std::string provenance_json(const Args& a) {
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "{\"cpus_available\": %d, \"cpu_model\": %s, \"compiler\": %s, "
      "\"optimized\": %s, \"assertions\": %s, \"sanitizer\": %s, "
      "\"commit\": %s, \"workload\": %s, \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %s, \"serve_open\": {\"lo\": %g, \"hi\": %g, "
      "\"slo_p99_ms\": %g}, \"mesh_skew\": {\"lo\": %g, \"hi\": %g, "
      "\"slo_p99_ms\": %g}, \"ladder_step\": %g}",
      available_cpus(), json_string(cpu_model()).c_str(),
      json_string(__VERSION__).c_str(),
#ifdef __OPTIMIZE__
      "true",
#else
      "false",
#endif
#ifdef NDEBUG
      "false",
#else
      "true",
#endif
      sanitizer_build() ? "true" : "false", json_string(a.commit).c_str(),
      json_string(a.workload).c_str(), static_cast<unsigned long long>(a.seed),
      a.seconds, a.trace ? "true" : "false", kServeOpenRates.lo,
      kServeOpenRates.hi, kServeOpenRates.slo_ms, kMeshSkewRates.lo,
      kMeshSkewRates.hi, kMeshSkewRates.slo_ms, kLadderStep);
  return buf;
}

/// One pass over the workload's scenarios.
struct Pass {
  std::vector<Outcome> outcomes;
  Metrics e2e, layer;
  std::uint64_t attempted = 0, failed = 0, wrong = 0;
};

Pass run_pass(const Args& a, bool trace, double seconds) {
  Pass p;
  double setup_s = 0, rss_mib = 0;
  for (const Part& part : workloads().at(a.workload)) {
    RunConfig cfg;
    cfg.seed = a.seed;
    cfg.seconds = seconds * part.share;
    cfg.trace = trace;
    p.outcomes.push_back(part.fn(cfg));
    const Outcome& o = p.outcomes.back();
    setup_s += o.setup_s;
    rss_mib = std::max(rss_mib, o.rss_mib);
    p.e2e.append(o.e2e);
    p.layer.append(o.layer);
    p.attempted += o.attempted;
    p.failed += o.failed;
    p.wrong += o.wrong;
    for (const std::string& n : o.notes) std::printf("  %s\n", n.c_str());
    std::printf("  %s: set-up %.4f s, %llu attempted, %llu failed, %llu "
                "wrong\n",
                part.name, o.setup_s,
                static_cast<unsigned long long>(o.attempted),
                static_cast<unsigned long long>(o.failed),
                static_cast<unsigned long long>(o.wrong));
    std::fflush(stdout);
  }
  p.e2e.add("setup_s", setup_s, "s");
  p.e2e.add("rss_peak_mib", rss_mib, "MiB");
  p.e2e.add("failed_frac",
            p.attempted ? static_cast<double>(p.failed) /
                              static_cast<double>(p.attempted)
                        : 0,
            "ratio", p.attempted);
  return p;
}

const std::set<std::string> kUngatedLatency = {
    "p50_ms_lo", "p99_ms_lo", "p50_ms_hi", "p99_ms_hi", "high_p99_ms_hi",
    "max_rate_at_slo"};

void print_table(const char* title, const Metrics& m) {
  std::printf("%s\n", title);
  for (const Metric& x : m.all())
    std::printf("  %-40s %14.6g %-6s%s\n", x.name.c_str(), x.value,
                x.unit.c_str(),
                x.samples ? (" (n=" + std::to_string(x.samples) + ")").c_str()
                          : "");
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  if (sanitizer_build()) {
    std::fprintf(stderr, "perfbench: refusing to report from a sanitizer "
                         "build\n");
    return 2;
  }
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "ANAHY_", 6) == 0) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set (the "
                           "benchmark measures the default configuration)\n",
                   *e);
      return 2;
    }

  const std::string prov = provenance_json(a);
  std::printf("provenance %s\n", prov.c_str());

  Pass main_pass = run_pass(a, false, a.trace ? a.seconds / 2 : a.seconds);
  Metrics result;
  std::uint64_t attempted = main_pass.attempted, failed = main_pass.failed,
                wrong = main_pass.wrong;
  if (!a.trace) {
    result = main_pass.e2e;
    print_table("end-to-end metrics:", result);
  } else {
    Pass traced = run_pass(a, true, a.seconds / 2);
    attempted += traced.attempted;
    failed += traced.failed;
    wrong += traced.wrong;
    result = traced.layer;
    // The serve latencies and ladder rate, from the untraced pass: recorded
    // beside the layers because they are too unsteady on a shared host to
    // gate as end-to-end metrics (README.md).
    for (const Metric& m : main_pass.e2e.all())
      if (kUngatedLatency.count(m.name))
        result.add("latency." + m.name, m.value, m.unit, m.samples);
    result.add("pool.live_bytes_end",
               static_cast<double>(anahy::pool_snapshot().live_bytes), "B");
    result.add("pool.arena_bytes_peak",
               static_cast<double>(pool_arena_peak()), "B");
    std::map<std::string, double> untraced;
    for (const Metric& m : main_pass.e2e.all()) untraced[m.name] = m.value;
    // Positive = the traced pass did worse, whichever way the metric points.
    static const std::set<std::string> higher_is_better = {
        "solves_per_s_1vp", "solves_per_s_4vp", "speedup_2vp", "speedup_4vp",
        "seq_ratio_1vp",    "max_rate_at_slo"};
    for (const Metric& m : traced.e2e.all()) {
      const double base = untraced[m.name];
      double worse = 0;
      if (higher_is_better.count(m.name))
        worse = m.value != 0 ? base / m.value - 1.0 : 0;
      else
        worse = base != 0 ? m.value / base - 1.0 : 0;
      result.add("trace.overhead_frac." + m.name, worse, "ratio");
    }
    print_table("end-to-end metrics (untraced pass):", main_pass.e2e);
    print_table("end-to-end metrics (traced pass):", traced.e2e);
    print_table("per-layer metrics (traced pass):", result);
    if (!a.spans.empty()) {
      std::vector<Span> spans;
      for (const Outcome& o : traced.outcomes)
        spans.insert(spans.end(), o.spans.begin(), o.spans.end());
      if (!write_spans_csv(a.spans, spans))
        std::fprintf(stderr, "perfbench: cannot write %s\n", a.spans.c_str());
    }
  }

  const std::string json =
      "{\"correct\": " + std::string(wrong == 0 ? "true" : "false") +
      ", \"attempted\": " + std::to_string(attempted) +
      ", \"failed\": " + std::to_string(failed) +
      ", \"metrics\": " + result.to_json() + "}";
  if (!a.out.empty()) {
    std::ofstream f(a.out);
    f << "{\"provenance\": " << prov << ",\n \"result\": " << json
      << ",\n \"samples\": {";
    bool first = true;
    for (const Metric& m : result.all()) {
      f << (first ? "" : ", ") << json_string(m.name) << ": " << m.samples;
      first = false;
    }
    f << "}}\n";
  }
  std::printf("%s\n", json.c_str());
  return wrong == 0 ? 0 : 1;
}
