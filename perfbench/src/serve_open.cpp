// serve_open: an open-loop Poisson schedule from one generator thread
// through one AsyncServeClient over epoll loopback into JobServer (2 VPs)
// plus ServeFrontEnd. Phases: rate lo, rate hi, then the SLO ladder.
#include <algorithm>
#include <chrono>
#include <future>
#include <memory>

#include "anahy/serve/job_server.hpp"
#include "cluster/serve_frontend.hpp"
#include "cluster/transport.hpp"
#include "open_loop.hpp"
#include "scenarios.hpp"

namespace perfbench {

namespace {

constexpr int kServerVps = 2;
constexpr int kWarmupJobs = 512;

/// Client settings: generous deadline and first backoff, so retransmits
/// only happen when a reply is really lost, never because a job queued.
cluster::CallOptions call_options() {
  cluster::CallOptions c;
  c.deadline = std::chrono::seconds(30);
  c.initial_backoff = std::chrono::seconds(5);
  c.max_backoff = std::chrono::seconds(10);
  return c;
}

struct Rig {
  std::vector<std::unique_ptr<cluster::Transport>> fabric;
  cluster::Registry reg;
  std::unique_ptr<anahy::serve::JobServer> server;
  std::unique_ptr<cluster::ServeFrontEnd> frontend;
  std::unique_ptr<cluster::AsyncServeClient> client;

  Rig() {
    fabric = cluster::make_epoll_fabric(2);
    reg.add(kBodyName, spin_echo_body);
    anahy::serve::ServerOptions so;
    so.runtime.num_vps = kServerVps;
    server = std::make_unique<anahy::serve::JobServer>(std::move(so));
    frontend = std::make_unique<cluster::ServeFrontEnd>(*server, *fabric[0],
                                                        reg);
    client = std::make_unique<cluster::AsyncServeClient>(*fabric[1], 0);
  }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
  ~Rig() {
    client.reset();
    frontend.reset();
    server.reset();
    fabric.clear();
  }

  /// Closed-loop warm-up burst; returns the number of bad replies.
  int warm_up(std::uint64_t seed) {
    LoadMix mix;
    const auto sched = make_schedule(seed, 1e6, kWarmupJobs / 1e6, mix);
    std::vector<std::future<cluster::AsyncServeClient::Reply>> futs;
    for (std::size_t i = 0; i < sched.size(); ++i)
      futs.push_back(client->submit_async(
          kBodyName, make_payload(seed, i, sched[i]), call_options(),
          static_cast<anahy::Priority>(sched[i].cls)));
    int bad = 0;
    for (std::size_t i = 0; i < futs.size(); ++i) {
      const auto r = futs[i].get();
      if (r.error != anahy::kOk ||
          !payload_matches(seed, i, sched[i].payload_bytes, r.payload))
        ++bad;
    }
    return bad;
  }
};

}  // namespace

Outcome run_serve_open(const RunConfig& cfg) {
  Outcome out;
  out.scenario = "serve_open";
  set_body_stamps(cfg.trace);
  const RateSpec& rates = kServeOpenRates;

  std::unique_ptr<Rig> rig;
  std::vector<double> setups;
  int warm_bad = 0;
  for (int i = 0; i < kSetups; ++i) {
    rig.reset();
    const std::int64_t t0 = now_ns();
    rig = std::make_unique<Rig>();
    warm_bad += rig->warm_up(mix_seed(cfg.seed, 0x3A7Du + i));
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  out.setup_s = median(setups);
  out.attempted += static_cast<std::uint64_t>(kWarmupJobs) * kSetups;
  out.failed += warm_bad;
  out.wrong += warm_bad;

  const cluster::CallOptions copts = call_options();
  OpenLoop gen(cfg.seed, LoadMix{},
               [&](Phase& ph, std::size_t i, std::vector<std::uint8_t> p) {
                 Phase* php = &ph;
                 static_cast<void>(rig->client->submit_async(
                     kBodyName, std::move(p), copts,
                     static_cast<anahy::Priority>(ph.rec[i].cls), -1, false,
                     [php, i](const cluster::AsyncServeClient::Reply& r) {
                       OpenLoop::complete(*php, i, r.error, r.payload,
                                          now_ns());
                     }));
               });
  Scraper scraper({rig->server.get()});

  const ServeLayers layers{{rig->server.get()},
                           {rig->frontend.get()},
                           {rig->fabric[0].get(), rig->fabric[1].get()}};
  const double phase_s = cfg.seconds * 0.2;
  const ServeSnapshot s0 = snapshot(layers);
  std::vector<PhaseResult> phases;
  phases.push_back(gen.run("lo", rates.lo, phase_s, 5.0));
  out.rss_mib = rss_peak_mib();
  phases.push_back(gen.run("hi", rates.hi, phase_s, 5.0));
  const ServeSnapshot s1 = snapshot(layers);
  const std::uint64_t pending_peak = scraper.pending_peak.load();
  const std::uint64_t inflight_peak = gen.peak_inflight();

  const std::vector<double> grid =
      ladder_grid(rates.ladder_lo, rates.ladder_hi, kLadderStep);
  const double probe_s = cfg.seconds * 0.6 / 7.0;
  int rung = 0;
  const LadderResult ladder = run_ladder(grid, rates.slo_ms, [&](double r) {
    // Long enough for a p99 with ten samples beyond it even at low rates.
    phases.push_back(gen.run("ladder" + std::to_string(rung++), r,
                             std::max(probe_s, 1300.0 / r), 5.0));
    return phases.back().probe();
  });
  scraper.stop();

  add_latency_metrics(phases[0], phases[1], out.e2e);
  out.e2e.add("max_rate_at_slo", ladder.max_rate, "1/s", ladder.probes.size());
  for (const PhaseResult& p : phases) out.notes.push_back(describe(p));
  if (ladder.floor_missed)
    out.notes.push_back("ladder: even the lowest rung missed the SLO");

  // Per-layer metrics over the lo and hi phases.
  Metrics& m = out.layer;
  const PhaseResult& hi = phases[1];
  add_serve_metrics(layers, s0, s1,
                    static_cast<double>(phases[0].sent + phases[1].sent), hi,
                    pending_peak, m);
  m.add("client.submit_us_p50", hi.submit_us.p50, "us", hi.submit_us.n);
  m.add("client.submit_us_p99", hi.submit_us.tail, "us", hi.submit_us.n);
  m.add("client.inflight_peak", static_cast<double>(inflight_peak), "count");
  m.add("client.retries", static_cast<double>(rig->client->retries()),
        "count");
  m.add("client.duplicate_replies",
        static_cast<double>(rig->client->duplicate_replies()), "count");
  add_gen_metrics(phases, m);
  add_scraper_metrics(scraper, m);
  if (cfg.trace) {
    gen.spans({"lo", "hi"}, /*router=*/false, out.spans);
    std::vector<Span> hi_spans;
    gen.spans({"hi"}, false, hi_spans);
    add_self_time_metrics(hi_spans, m);
    out.spans.insert(out.spans.end(), scraper.spans.begin(),
                     scraper.spans.end());
  }

  // Final accounting: every request must have resolved exactly once.
  const OpenLoop::Tally t = gen.tally(now_ns() + 10'000'000'000);
  out.attempted += t.attempted;
  out.failed += t.failed;
  out.wrong += t.wrong;
  note_pool_arena();
  rig.reset();
  return out;
}

}  // namespace perfbench
