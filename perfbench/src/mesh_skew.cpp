// mesh_skew: the open-loop generator through MeshRouter to two MeshNodes
// (1 VP each) over epoll loopback, with Zipf-skewed shard keys so one key
// carries ~70% of the jobs. Replies are timed when done() first turns
// true, by a poller that sweeps every outstanding handle.
#include <algorithm>
#include <array>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>

#include "cluster/mesh/mesh_node.hpp"
#include "cluster/mesh/router.hpp"
#include "cluster/transport.hpp"
#include "open_loop.hpp"
#include "scenarios.hpp"

namespace perfbench {

namespace {

constexpr int kNodes = 2;
constexpr std::uint32_t kRouterRank = kNodes;
constexpr int kWarmupJobs = 256;
constexpr std::size_t kKeys = 64;
constexpr std::chrono::seconds kDeadline{30};

LoadMix mesh_mix() {
  LoadMix mix;
  mix.body_ns = 250'000;
  mix.long_batch_every = 0;
  mix.zipf_keys = kKeys;
  mix.zipf_top_share = 0.70;
  return mix;
}

/// Sweeps outstanding router handles and completes each one the first
/// time done() reports it.
class Poller {
 public:
  explicit Poller(cluster::mesh::MeshRouter& router)
      : router_(router), thread_([this] { loop(); }) {}
  ~Poller() { stop(); }
  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  void add(std::uint64_t id, Phase* phase, std::size_t i) {
    std::lock_guard lock(mu_);
    incoming_.push_back({id, phase, i});
  }
  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

 private:
  struct Entry {
    std::uint64_t id;
    Phase* phase;
    std::size_t i;
  };
  void loop() {
    std::vector<Entry> active;
    while (!stop_.load()) {
      {
        std::lock_guard lock(mu_);
        active.insert(active.end(), incoming_.begin(), incoming_.end());
        incoming_.clear();
      }
      bool any = false;
      for (std::size_t k = 0; k < active.size();) {
        if (!router_.done(active[k].id)) {
          ++k;
          continue;
        }
        const std::int64_t t = now_ns();
        const auto reply = router_.wait(active[k].id);
        OpenLoop::complete(*active[k].phase, active[k].i, reply.error,
                           reply.payload, t);
        active[k] = active.back();
        active.pop_back();
        any = true;
      }
      if (!any) std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  cluster::mesh::MeshRouter& router_;
  std::mutex mu_;
  std::vector<Entry> incoming_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

struct Rig {
  std::vector<std::unique_ptr<cluster::Transport>> fabric;
  std::array<cluster::Registry, kNodes> regs;
  std::array<std::atomic<std::uint64_t>, kNodes> executed{};
  std::vector<std::unique_ptr<cluster::mesh::MeshNode>> nodes;
  std::unique_ptr<cluster::mesh::MeshRouter> router;

  Rig() {
    fabric = cluster::make_epoll_fabric(kNodes + 1);
    for (int i = 0; i < kNodes; ++i) {
      auto* count = &executed[static_cast<std::size_t>(i)];
      regs[static_cast<std::size_t>(i)].add(
          kBodyName, [count](std::span<const std::uint8_t> in) {
            count->fetch_add(1, std::memory_order_relaxed);
            return spin_echo_body(in);
          });
      cluster::mesh::MeshNodeOptions o;
      o.self = static_cast<std::uint32_t>(i);
      o.peers = {static_cast<std::uint32_t>(1 - i)};
      o.routers = {kRouterRank};
      o.server.runtime.num_vps = 1;
      nodes.push_back(std::make_unique<cluster::mesh::MeshNode>(
          *fabric[static_cast<std::size_t>(i)],
          regs[static_cast<std::size_t>(i)], o));
    }
    // The first retransmission waits 500 ms instead of 20 ms: queueing at
    // the hot node routinely exceeds 20 ms, and retransmitting every queued
    // job then floods the nodes with duplicates (they are suppressed, but
    // each costs a frame) until the mesh stops draining.
    cluster::mesh::MeshRouterOptions ro;
    ro.nodes = {0, 1};
    ro.retry_backoff = std::chrono::milliseconds(500);
    router = std::make_unique<cluster::mesh::MeshRouter>(*fabric[kRouterRank],
                                                         ro);
  }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
  ~Rig() {
    router.reset();
    nodes.clear();
    fabric.clear();
  }

  static cluster::mesh::RouterSubmitOptions submit_options(const Arrival& a) {
    cluster::mesh::RouterSubmitOptions o;
    o.key = a.key;
    o.priority = a.cls;
    o.deadline = kDeadline;
    return o;
  }

  /// Closed-loop warm-up burst; returns the number of bad replies.
  int warm_up(std::uint64_t seed) {
    const auto sched =
        make_schedule(seed, 1e6, kWarmupJobs / 1e6, mesh_mix());
    std::vector<std::uint64_t> ids;
    for (std::size_t i = 0; i < sched.size(); ++i)
      ids.push_back(router->submit(kBodyName, make_payload(seed, i, sched[i]),
                                   submit_options(sched[i])));
    int bad = 0;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const auto r = router->wait(ids[i]);
      if (r.error != anahy::kOk ||
          !payload_matches(seed, i, sched[i].payload_bytes, r.payload))
        ++bad;
    }
    return bad;
  }

  [[nodiscard]] std::array<std::uint64_t, kNodes> executions() const {
    return {executed[0].load(), executed[1].load()};
  }
  [[nodiscard]] std::uint64_t exported() const {
    std::uint64_t n = 0;
    for (const auto& node : nodes) n += node->counters().jobs_exported;
    return n;
  }
  [[nodiscard]] std::uint64_t grants() const {
    std::uint64_t n = 0;
    for (const auto& node : nodes) n += node->counters().steal_grants;
    return n;
  }
};

}  // namespace

Outcome run_mesh_skew(const RunConfig& cfg) {
  Outcome out;
  out.scenario = "mesh_skew";
  set_body_stamps(cfg.trace);
  const RateSpec& rates = kMeshSkewRates;

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

  Poller poller(*rig->router);
  OpenLoop gen(cfg.seed, mesh_mix(),
               [&](Phase& ph, std::size_t i, std::vector<std::uint8_t> p) {
                 const std::uint64_t id = rig->router->submit(
                     kBodyName, std::move(p),
                     Rig::submit_options(ph.sched[i]));
                 poller.add(id, &ph, i);
               });
  std::vector<anahy::serve::JobServer*> servers;
  std::vector<cluster::ServeFrontEnd*> frontends;
  for (const auto& n : rig->nodes) {
    servers.push_back(&n->server());
    frontends.push_back(&n->frontend());
  }
  Scraper scraper(servers);
  ServeLayers layers{servers, frontends, {}};
  for (const auto& t : rig->fabric) layers.endpoints.push_back(t.get());

  const double phase_s = cfg.seconds * 0.2;
  const ServeSnapshot s0 = snapshot(layers);
  const auto exec0 = rig->executions();
  const std::uint64_t exported0 = rig->exported(), grants0 = rig->grants();
  std::vector<PhaseResult> phases;
  phases.push_back(gen.run("lo", rates.lo, phase_s, 5.0));
  out.rss_mib = rss_peak_mib();
  phases.push_back(gen.run("hi", rates.hi, phase_s, 5.0));
  const ServeSnapshot s1 = snapshot(layers);
  const auto exec1 = rig->executions();
  const std::uint64_t exported1 = rig->exported(), grants1 = rig->grants();
  const std::uint64_t pending_peak = scraper.pending_peak.load();

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

  Metrics& m = out.layer;
  const PhaseResult& hi = phases[1];
  const double jobs = static_cast<double>(phases[0].sent + phases[1].sent);
  add_serve_metrics(layers, s0, s1, jobs, hi, pending_peak, m);
  m.add("mesh.submit_us_p50", hi.submit_us.p50, "us", hi.submit_us.n);
  m.add("mesh.submit_us_p99", hi.submit_us.tail, "us", hi.submit_us.n);
  const double e0 = static_cast<double>(exec1[0] - exec0[0]);
  const double e1 = static_cast<double>(exec1[1] - exec0[1]);
  m.add("mesh.node_share_max", e0 + e1 > 0 ? std::max(e0, e1) / (e0 + e1) : 0,
        "ratio");
  m.add("mesh.migrated_per_kjob",
        jobs > 0 ? 1000.0 * static_cast<double>(exported1 - exported0) / jobs
                 : 0,
        "count");
  m.add("mesh.steal_grants_per_kjob",
        jobs > 0 ? 1000.0 * static_cast<double>(grants1 - grants0) / jobs : 0,
        "count");
  const cluster::mesh::RouterCounters rc = rig->router->counters();
  m.add("mesh.retries", static_cast<double>(rc.retries), "count");
  m.add("mesh.reroutes", static_cast<double>(rc.reroutes), "count");
  m.add("mesh.withdrawals", static_cast<double>(rc.withdrawals), "count");
  m.add("mesh.unreachable", static_cast<double>(rc.unreachable), "count");
  m.add("mesh.stats_polls_per_s",
        static_cast<double>(s1.stats_queries - s0.stats_queries) /
            (static_cast<double>(s1.t - s0.t) / 1e9),
        "1/s");
  add_gen_metrics(phases, m);
  add_scraper_metrics(scraper, m);
  if (cfg.trace) {
    gen.spans({"lo", "hi"}, /*router=*/true, out.spans);
    std::vector<Span> hi_spans;
    gen.spans({"hi"}, true, hi_spans);
    add_self_time_metrics(hi_spans, m);
    out.spans.insert(out.spans.end(), scraper.spans.begin(),
                     scraper.spans.end());
  }

  const OpenLoop::Tally t = gen.tally(now_ns() + 10'000'000'000);
  out.attempted += t.attempted;
  out.failed += t.failed;
  out.wrong += t.wrong;
  poller.stop();
  note_pool_arena();
  rig.reset();
  return out;
}

}  // namespace perfbench
