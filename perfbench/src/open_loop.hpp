// The open-loop engine shared by serve_open and mesh_skew: one generator
// thread sends each request at its scheduled time regardless of earlier
// replies, completions are checked (exactly once, payload echoed) and timed
// from the scheduled send time, and a 10 Hz scraper plays the operator.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "load.hpp"
#include "report.hpp"
#include "stats.hpp"

namespace anahy::serve {
class JobServer;
}
namespace cluster {
class ServeFrontEnd;
class Transport;
}

namespace perfbench {

/// The registered job body: spins for the payload's body_ns and echoes the
/// payload; when stamping is on it appends its own start/end clock reads.
std::vector<std::uint8_t> spin_echo_body(std::span<const std::uint8_t> in);
void set_body_stamps(bool on);
inline constexpr const char* kBodyName = "perfbench_spin";

/// Per-request record. Written by the generator (due/sub*), the completion
/// path (done/replies/error/ok/body*), read after the phase.
struct Request {
  std::int64_t due = 0;  ///< absolute scheduled send time
  std::int64_t sub0 = 0, sub1 = 0;
  std::int64_t body0 = 0, body1 = 0;
  std::atomic<std::int64_t> done{0};
  std::atomic<std::uint32_t> replies{0};
  std::int32_t error = 0;
  bool ok = false;  ///< reply kOk and payload echoed
  std::uint8_t cls = 0;
  std::uint32_t size = 0;
};

/// One fixed-rate phase: its schedule and records.
struct Phase {
  std::string name;
  std::uint64_t payload_seed = 0;
  std::uint64_t first_index = 0;  ///< global request index of sched[0]
  std::vector<Arrival> sched;
  std::deque<Request> rec;  ///< deque: stable addresses, atomics in place
  std::atomic<std::uint64_t> done_count{0};
};

/// Phase summary.
struct PhaseResult {
  std::string name;
  double rate = 0;
  std::uint64_t sent = 0, completed = 0;
  std::uint64_t failed = 0;  ///< unanswered by the drain deadline, or bad
  Dist latency_ms, high_ms, late_ms, submit_us, inbound_ms, outbound_ms;
  std::uint64_t outstanding_at_end = 0;
  bool backlog = false;   ///< completions fell behind the offered rate
  bool gen_late = false;  ///< generator p99 lateness beyond kLateMarginMs
  [[nodiscard]] Probe probe() const;
};

inline constexpr double kLateMarginMs = 1.0;

/// How requests leave the generator: `send` issues request `index` of
/// `phase` (its record already holds due/cls/size) and must arrange for
/// OpenLoop::complete to be called exactly when its reply arrives.
using SendFn = std::function<void(Phase& phase, std::size_t i,
                                  std::vector<std::uint8_t> payload)>;

class OpenLoop {
 public:
  OpenLoop(std::uint64_t seed, LoadMix mix, SendFn send);
  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  /// Generates and runs a phase at `rate` for `seconds`, then waits up to
  /// `drain_s` for its replies. The phase stays owned (late replies land).
  PhaseResult run(const std::string& name, double rate, double seconds,
                  double drain_s);

  /// Completion path (any thread): checks and records one reply.
  static void complete(Phase& phase, std::size_t i, int error,
                       std::span<const std::uint8_t> payload, std::int64_t t);

  /// Spans of the named phases' requests (request, inbound, submit or
  /// router_submit, body, outbound) appended to `out`.
  void spans(const std::vector<std::string>& phases, bool router,
             std::vector<Span>& out) const;

  /// Final accounting over every phase, after waiting (until `deadline`)
  /// for replies still owed: each request must resolve exactly once with
  /// its payload echoed.
  struct Tally {
    std::uint64_t attempted = 0, failed = 0, wrong = 0;
  };
  [[nodiscard]] Tally tally(std::int64_t deadline) const;

  [[nodiscard]] std::uint64_t peak_inflight() const { return peak_inflight_; }

 private:
  std::uint64_t seed_;
  LoadMix mix_;
  SendFn send_;
  std::deque<Phase> phases_;
  std::uint64_t next_index_ = 0;
  std::uint64_t peak_inflight_ = 0;
};

/// The 10 Hz operator: scrapes observe_text() and records an aging sample
/// on each server, and samples the pending queue and pool arena gauges.
class Scraper {
 public:
  explicit Scraper(std::vector<anahy::serve::JobServer*> servers);
  ~Scraper();
  Scraper(const Scraper&) = delete;
  Scraper& operator=(const Scraper&) = delete;
  void stop();
  std::vector<double> scrape_ms, aging_us;
  std::atomic<std::uint64_t> pending_peak{0};
  std::vector<Span> spans;

 private:
  void loop();
  std::vector<anahy::serve::JobServer*> servers_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Adds the latency metrics shared by serve_open and mesh_skew:
/// p50/p99 at lo and hi and the high class's p99 at hi.
void add_latency_metrics(const PhaseResult& lo, const PhaseResult& hi,
                         Metrics& e2e);

/// Adds per-phase generator validity metrics (gen.*).
void add_gen_metrics(const std::vector<PhaseResult>& phases, Metrics& layer);

/// Adds observe.* and aging.* metrics from the scraper.
void add_scraper_metrics(Scraper& s, Metrics& layer);

/// Self time of each request-path layer, mean per request over the
/// requests whose spans are in `spans` (trace.self_ms_*), plus the share
/// of request wall time they cover (trace.path_coverage).
void add_self_time_metrics(const std::vector<Span>& spans, Metrics& layer);

/// The serve-side layers of one deployment (servers, their front-ends and
/// the transport endpoints), for counter snapshots.
struct ServeLayers {
  std::vector<anahy::serve::JobServer*> servers;
  std::vector<cluster::ServeFrontEnd*> frontends;
  std::vector<cluster::Transport*> endpoints;
};

/// Counters of the serve-side layers at one instant.
struct ServeSnapshot {
  std::int64_t t = 0;
  std::vector<std::uint64_t> by_class_completed, by_class_wait_ns,
      by_class_exec_ns;
  std::uint64_t writev = 0, tx_frames = 0, tx_bytes = 0, tx_partial = 0,
                tx_eagain = 0, rx_partial = 0, pool_allocs = 0,
                stats_queries = 0;
};
[[nodiscard]] ServeSnapshot snapshot(const ServeLayers& l);

/// serve.*, wire.*, frontend.* and pool.allocs_per_job over the interval
/// between two snapshots that carried `jobs` requests; wire latencies from
/// the `hi` phase.
void add_serve_metrics(const ServeLayers& l, const ServeSnapshot& a,
                       const ServeSnapshot& b, double jobs,
                       const PhaseResult& hi, std::uint64_t pending_peak,
                       Metrics& m);

/// A human-readable one-line summary of a phase.
[[nodiscard]] std::string describe(const PhaseResult& r);

}  // namespace perfbench
