#include "open_loop.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>

#include "anahy/serve/job_server.hpp"
#include "anahy/task_pool.hpp"
#include "anahy/types.hpp"
#include "cluster/epoll_transport.hpp"
#include "cluster/serve_frontend.hpp"
#include "cluster/transport.hpp"

namespace perfbench {

namespace {

std::atomic<bool> g_stamps{false};

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

void sleep_until_ns(std::int64_t t) {
  const std::int64_t now = now_ns();
  if (t > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
}

}  // namespace

void set_body_stamps(bool on) { g_stamps.store(on); }

std::vector<std::uint8_t> spin_echo_body(std::span<const std::uint8_t> in) {
  const std::int64_t start = now_ns();
  const std::int64_t until = start + payload_body_ns(in);
  while (now_ns() < until) {
  }
  std::vector<std::uint8_t> out(in.begin(), in.end());
  if (g_stamps.load(std::memory_order_relaxed)) {
    const std::int64_t end = now_ns();
    out.resize(in.size() + 16);
    std::memcpy(out.data() + in.size(), &start, 8);
    std::memcpy(out.data() + in.size() + 8, &end, 8);
  }
  return out;
}

Probe PhaseResult::probe() const {
  Probe p;
  p.rate = rate;
  p.p99_ms = latency_ms.tail;
  p.valid_p99 = latency_ms.tail_q >= 99.0;
  p.backlog = backlog;
  p.gen_late = gen_late;
  return p;
}

OpenLoop::OpenLoop(std::uint64_t seed, LoadMix mix, SendFn send)
    : seed_(seed), mix_(mix), send_(std::move(send)) {}

void OpenLoop::complete(Phase& phase, std::size_t i, int error,
                        std::span<const std::uint8_t> payload,
                        std::int64_t t) {
  Request& r = phase.rec[i];
  if (r.replies.fetch_add(1, std::memory_order_acq_rel) != 0) return;
  r.error = error;
  if (error == anahy::kOk) {
    r.ok = payload_matches(phase.payload_seed, phase.first_index + i, r.size,
                           payload);
    const std::size_t n = std::max<std::size_t>(r.size, kPayloadHeader);
    if (payload.size() == n + 16) {
      std::memcpy(&r.body0, payload.data() + n, 8);
      std::memcpy(&r.body1, payload.data() + n + 8, 8);
    } else if (payload.size() != n) {
      r.ok = false;
    }
  }
  r.done.store(t, std::memory_order_release);
  phase.done_count.fetch_add(1, std::memory_order_acq_rel);
}

PhaseResult OpenLoop::run(const std::string& name, double rate,
                          double seconds, double drain_s) {
  Phase& ph = phases_.emplace_back();
  ph.name = name;
  ph.payload_seed = mix_seed(seed_, 0x7061796Cu);
  ph.first_index = next_index_;
  ph.sched = make_schedule(
      mix_seed(seed_, 0x5C4Eu + phases_.size() * 0x1000 +
                          static_cast<std::uint64_t>(rate)),
      rate, seconds, mix_);
  ph.rec.resize(ph.sched.size());
  next_index_ += ph.sched.size();

  const std::int64_t start = now_ns() + 1'000'000;
  std::uint64_t sent = 0;
  for (std::size_t i = 0; i < ph.sched.size(); ++i) {
    const Arrival& a = ph.sched[i];
    Request& r = ph.rec[i];
    r.due = start + a.due_ns;
    r.cls = a.cls;
    r.size = a.payload_bytes;
    std::vector<std::uint8_t> payload =
        make_payload(ph.payload_seed, ph.first_index + i, a);
    sleep_until_ns(r.due);
    r.sub0 = now_ns();
    send_(ph, i, std::move(payload));
    r.sub1 = now_ns();
    ++sent;
    const std::uint64_t inflight =
        sent - ph.done_count.load(std::memory_order_relaxed);
    peak_inflight_ = std::max(peak_inflight_, inflight);
  }
  const std::int64_t end_due = start + static_cast<std::int64_t>(seconds * 1e9);
  sleep_until_ns(end_due);
  PhaseResult res;
  res.name = name;
  res.rate = rate;
  res.sent = sent;
  res.outstanding_at_end =
      sent - ph.done_count.load(std::memory_order_acquire);
  const std::int64_t drain_deadline =
      end_due + static_cast<std::int64_t>(drain_s * 1e9);
  while (ph.done_count.load(std::memory_order_acquire) < sent &&
         now_ns() < drain_deadline)
    std::this_thread::sleep_for(std::chrono::microseconds(500));

  // Latency and lateness keyed by due time, for the windowed tails.
  std::vector<std::pair<std::int64_t, double>> lat, high, late;
  std::vector<double> submit, inbound, outbound;
  lat.reserve(sent);
  late.reserve(sent);
  submit.reserve(sent);
  for (std::size_t i = 0; i < ph.rec.size(); ++i) {
    const Request& r = ph.rec[i];
    const std::uint32_t replies = r.replies.load(std::memory_order_acquire);
    const std::int64_t done = r.done.load(std::memory_order_acquire);
    late.emplace_back(r.due, ms(r.sub0 - r.due));
    submit.push_back(static_cast<double>(r.sub1 - r.sub0) / 1e3);
    double l = 0;
    if (done == 0) {
      ++res.failed;  // unanswered by the drain deadline
      l = ms(drain_deadline - r.due);
    } else {
      l = ms(done - r.due);
      if (r.error != anahy::kOk || !r.ok || replies > 1) {
        ++res.failed;  // refused, timed out, unreachable or wrong
      } else {
        ++res.completed;
        if (r.body0 > 0) {
          inbound.push_back(ms(r.body0 - r.sub0));
          outbound.push_back(ms(done - r.body1));
        }
      }
    }
    lat.emplace_back(r.due, l);  // a failed request misses any latency limit
    if (r.cls == 0) high.emplace_back(r.due, l);
  }
  res.latency_ms = summarize_windowed(lat);
  res.high_ms = summarize_windowed(high);
  res.late_ms = summarize_windowed(late);
  res.submit_us = summarize(submit);
  res.inbound_ms = summarize(inbound);
  res.outbound_ms = summarize(outbound);
  // More than 3% of the phase's requests still owed when its schedule
  // ends means completions fell behind the offered rate: a queue that grew
  // for the whole phase, not a stall of a few milliseconds.
  res.backlog = static_cast<double>(res.outstanding_at_end) >
                0.03 * static_cast<double>(sent) + 32.0;
  res.gen_late = res.late_ms.tail > kLateMarginMs;
  return res;
}

OpenLoop::Tally OpenLoop::tally(std::int64_t deadline) const {
  Tally t;
  for (const Phase& ph : phases_) {
    while (ph.done_count.load(std::memory_order_acquire) < ph.rec.size() &&
           now_ns() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    for (const Request& r : ph.rec) {
      ++t.attempted;
      // `done` publishes error and ok; a reply still being recorded counts
      // as unanswered.
      if (r.done.load(std::memory_order_acquire) == 0) {
        ++t.failed;
        continue;
      }
      const std::uint32_t replies = r.replies.load(std::memory_order_acquire);
      if (r.error != anahy::kOk) {
        ++t.failed;
      } else if (replies > 1 || !r.ok) {
        ++t.failed;
        ++t.wrong;
      }
    }
  }
  return t;
}

void OpenLoop::spans(const std::vector<std::string>& names, bool router,
                     std::vector<Span>& out) const {
  for (const Phase& ph : phases_) {
    if (std::find(names.begin(), names.end(), ph.name) == names.end())
      continue;
    for (std::size_t i = 0; i < ph.rec.size(); ++i) {
      const Request& r = ph.rec[i];
      const std::int64_t done = r.done.load(std::memory_order_acquire);
      if (!r.ok || r.body0 == 0 || done == 0) continue;
      const std::uint64_t id = ph.first_index + i;
      const auto root = static_cast<std::int32_t>(out.size());
      out.push_back({SpanName::kRequest, -1, id, r.due, done});
      const auto in = static_cast<std::int32_t>(out.size());
      out.push_back({SpanName::kInbound, root, id, r.sub0, r.body0});
      out.push_back({router ? SpanName::kRouterSubmit : SpanName::kSubmit, in,
                     id, r.sub0, std::min(r.sub1, r.body0)});
      out.push_back({SpanName::kBody, root, id, r.body0, r.body1});
      out.push_back({SpanName::kOutbound, root, id, r.body1, done});
    }
  }
}

Scraper::Scraper(std::vector<anahy::serve::JobServer*> servers)
    : servers_(std::move(servers)), thread_([this] { loop(); }) {}

Scraper::~Scraper() { stop(); }

void Scraper::stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

void Scraper::loop() {
  std::int64_t next = now_ns();
  while (!stop_.load()) {
    for (anahy::serve::JobServer* s : servers_) {
      const std::int64_t t0 = now_ns();
      static_cast<void>(s->observe_text());
      const std::int64_t t1 = now_ns();
      s->record_aging_sample();
      const std::int64_t t2 = now_ns();
      scrape_ms.push_back(ms(t1 - t0));
      aging_us.push_back(static_cast<double>(t2 - t1) / 1e3);
      spans.push_back({SpanName::kScrape, -1, 0, t0, t1});
      spans.push_back({SpanName::kAgingSample, -1, 0, t1, t2});
      if (const std::uint64_t p = s->stats().pending; p > pending_peak.load())
        pending_peak.store(p);
      note_pool_arena();
    }
    next += 100'000'000;  // 10 Hz
    while (!stop_.load() && now_ns() < next)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

void add_latency_metrics(const PhaseResult& lo, const PhaseResult& hi,
                         Metrics& e2e) {
  e2e.add("p50_ms_lo", lo.latency_ms.p50, "ms", lo.latency_ms.n);
  e2e.add("p99_ms_lo", lo.latency_ms.tail, "ms", lo.latency_ms.n);
  e2e.add("p50_ms_hi", hi.latency_ms.p50, "ms", hi.latency_ms.n);
  e2e.add("p99_ms_hi", hi.latency_ms.tail, "ms", hi.latency_ms.n);
  e2e.add("high_p99_ms_hi", hi.high_ms.tail, "ms", hi.high_ms.n);
}

void add_gen_metrics(const std::vector<PhaseResult>& phases, Metrics& layer) {
  std::uint64_t attempted = 0, failed = 0;
  for (const PhaseResult& p : phases) {
    attempted += p.sent;
    failed += p.failed;
    if (p.name != "lo" && p.name != "hi") continue;
    layer.add("gen.late_ms_p99_" + p.name, p.late_ms.tail, "ms", p.late_ms.n);
    layer.add("gen.late_ms_max_" + p.name, p.late_ms.max, "ms", p.late_ms.n);
    layer.add("gen.sent_" + p.name, static_cast<double>(p.sent), "count");
    layer.add("gen.completed_" + p.name, static_cast<double>(p.completed),
              "count");
  }
  layer.add("gen.failed_frac",
            attempted ? static_cast<double>(failed) /
                            static_cast<double>(attempted)
                      : 0,
            "ratio", attempted);
}

void add_scraper_metrics(Scraper& s, Metrics& layer) {
  const Dist scrape = summarize(s.scrape_ms);
  const Dist aging = summarize(s.aging_us);
  layer.add("observe.scrape_ms_p50", scrape.p50, "ms", scrape.n);
  layer.add("observe.scrape_ms_p99", scrape.tail, "ms", scrape.n);
  layer.add("aging.sample_us_p50", aging.p50, "us", aging.n);
  layer.add("aging.sample_us_p99", aging.tail, "us", aging.n);
}

void add_self_time_metrics(const std::vector<Span>& spans, Metrics& layer) {
  const std::vector<std::int64_t> self = self_times(spans);
  std::map<SpanName, double> sum_ms;
  double wall_ms = 0, covered_ms = 0;
  std::size_t requests = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    // Only request trees: the root and its descendants (depth <= 2 here).
    std::int32_t root = static_cast<std::int32_t>(i);
    while (spans[static_cast<std::size_t>(root)].parent >= 0)
      root = spans[static_cast<std::size_t>(root)].parent;
    if (spans[static_cast<std::size_t>(root)].name != SpanName::kRequest)
      continue;
    if (s.name == SpanName::kRequest) {
      ++requests;
      wall_ms += ms(s.end_ns - s.start_ns);
    }
    sum_ms[s.name] += ms(self[i]);
    covered_ms += ms(self[i]);
  }
  const double n = requests ? static_cast<double>(requests) : 1.0;
  auto self_metric = [&](const char* label, SpanName name) {
    layer.add(std::string("trace.self_ms_") + label, sum_ms[name] / n, "ms",
              requests);
  };
  self_metric("gen", SpanName::kRequest);
  self_metric("submit", SpanName::kSubmit);
  self_metric("router_submit", SpanName::kRouterSubmit);
  self_metric("inbound", SpanName::kInbound);
  self_metric("body", SpanName::kBody);
  self_metric("outbound", SpanName::kOutbound);
  layer.add("trace.path_coverage", wall_ms > 0 ? covered_ms / wall_ms : 0,
            "ratio", requests);
}

ServeSnapshot snapshot(const ServeLayers& l) {
  ServeSnapshot s;
  s.t = now_ns();
  s.by_class_completed.assign(anahy::kNumPriorities, 0);
  s.by_class_wait_ns.assign(anahy::kNumPriorities, 0);
  s.by_class_exec_ns.assign(anahy::kNumPriorities, 0);
  for (const anahy::serve::JobServer* srv : l.servers) {
    const anahy::serve::ServerStats st = srv->stats();
    for (std::size_t c = 0; c < anahy::kNumPriorities; ++c) {
      s.by_class_completed[c] += st.by_class[c].completed;
      s.by_class_wait_ns[c] +=
          static_cast<std::uint64_t>(st.by_class[c].queue_wait_ns_sum);
      s.by_class_exec_ns[c] +=
          static_cast<std::uint64_t>(st.by_class[c].exec_ns_sum);
    }
  }
  for (const cluster::Transport* t : l.endpoints) {
    const auto* w = dynamic_cast<const cluster::WireStatsSource*>(t);
    if (w == nullptr) continue;
    const cluster::WireCounters c = w->wire_counters();
    s.writev += c.writev_calls;
    s.tx_frames += c.tx_frames;
    s.tx_bytes += c.tx_bytes;
    s.tx_partial += c.tx_partial_writes;
    s.tx_eagain += c.tx_eagain;
    s.rx_partial += c.rx_partial_reads;
  }
  for (const cluster::ServeFrontEnd* f : l.frontends)
    s.stats_queries += f->stats_queries();
  s.pool_allocs = anahy::pool_snapshot().alloc_calls;
  return s;
}

void add_serve_metrics(const ServeLayers& l, const ServeSnapshot& a,
                       const ServeSnapshot& b, double jobs,
                       const PhaseResult& hi, std::uint64_t pending_peak,
                       Metrics& m) {
  auto per_job = [&](std::uint64_t x0, std::uint64_t x1, double scale) {
    return jobs > 0 ? scale * static_cast<double>(x1 - x0) / jobs : 0;
  };
  m.add("pool.allocs_per_job", per_job(a.pool_allocs, b.pool_allocs, 1),
        "count");

  const char* cls_name[] = {"high", "normal", "batch"};
  double exec_ns = 0, done = 0;
  std::int64_t wait_max[anahy::kNumPriorities] = {};
  std::uint64_t rejected = 0, offered = 0;
  for (const anahy::serve::JobServer* srv : l.servers) {
    const anahy::serve::ServerStats st = srv->stats();
    for (std::size_t c = 0; c < anahy::kNumPriorities; ++c) {
      wait_max[c] = std::max(wait_max[c], st.by_class[c].queue_wait_ns_max);
      rejected += st.by_class[c].rejected;
      offered += st.by_class[c].submitted + st.by_class[c].rejected;
    }
  }
  for (std::size_t c = 0; c < anahy::kNumPriorities; ++c) {
    const double n =
        static_cast<double>(b.by_class_completed[c] - a.by_class_completed[c]);
    m.add(std::string("serve.queue_wait_us_mean_") + cls_name[c],
          n > 0 ? static_cast<double>(b.by_class_wait_ns[c] -
                                      a.by_class_wait_ns[c]) /
                      n / 1e3
                : 0,
          "us", static_cast<std::size_t>(n));
    if (c != 1)
      m.add(std::string("serve.queue_wait_us_max_") + cls_name[c],
            static_cast<double>(wait_max[c]) / 1e3, "us");
    exec_ns +=
        static_cast<double>(b.by_class_exec_ns[c] - a.by_class_exec_ns[c]);
    done += n;
  }
  m.add("serve.exec_us_mean", done > 0 ? exec_ns / done / 1e3 : 0, "us",
        static_cast<std::size_t>(done));
  m.add("serve.pending_peak", static_cast<double>(pending_peak), "count");
  m.add("serve.rejected_frac",
        offered ? static_cast<double>(rejected) / static_cast<double>(offered)
                : 0,
        "ratio");

  m.add("wire.inbound_ms_p50", hi.inbound_ms.p50, "ms", hi.inbound_ms.n);
  m.add("wire.inbound_ms_p99", hi.inbound_ms.tail, "ms", hi.inbound_ms.n);
  m.add("wire.outbound_ms_p50", hi.outbound_ms.p50, "ms", hi.outbound_ms.n);
  m.add("wire.outbound_ms_p99", hi.outbound_ms.tail, "ms", hi.outbound_ms.n);
  m.add("wire.frames_per_writev",
        b.writev > a.writev ? static_cast<double>(b.tx_frames - a.tx_frames) /
                                  static_cast<double>(b.writev - a.writev)
                            : 0,
        "count");
  m.add("wire.writev_per_kjob", per_job(a.writev, b.writev, 1000), "count");
  m.add("wire.bytes_per_job", per_job(a.tx_bytes, b.tx_bytes, 1), "B");
  m.add("wire.tx_eagain_per_kjob", per_job(a.tx_eagain, b.tx_eagain, 1000),
        "count");
  m.add("wire.tx_partial_writes_per_kjob",
        per_job(a.tx_partial, b.tx_partial, 1000), "count");
  m.add("wire.rx_partial_reads_per_kjob",
        per_job(a.rx_partial, b.rx_partial, 1000), "count");
  std::uint64_t retransmits = 0, suppressed = 0;
  for (const cluster::ServeFrontEnd* f : l.frontends) {
    retransmits += f->retransmits();
    suppressed += f->duplicates_suppressed();
  }
  m.add("frontend.retransmits", static_cast<double>(retransmits), "count");
  m.add("frontend.duplicates_suppressed", static_cast<double>(suppressed),
        "count");
}

std::string describe(const PhaseResult& r) {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "phase %-8s rate %8.0f/s  sent %7llu  ok %7llu  failed %llu  "
      "p50 %.3f ms  p%g %.3f ms (n=%zu)  high p%g %.3f ms (n=%zu)  "
      "gen late p%g %.3f ms max %.3f ms  owed-at-end %llu%s%s",
      r.name.c_str(), r.rate, static_cast<unsigned long long>(r.sent),
      static_cast<unsigned long long>(r.completed),
      static_cast<unsigned long long>(r.failed), r.latency_ms.p50,
      r.latency_ms.tail_q, r.latency_ms.tail, r.latency_ms.n, r.high_ms.tail_q,
      r.high_ms.tail, r.high_ms.n, r.late_ms.tail_q, r.late_ms.tail,
      r.late_ms.max, static_cast<unsigned long long>(r.outstanding_at_end),
      r.backlog ? "  BACKLOG" : "", r.gen_late ? "  GEN-LATE" : "");
  return buf;
}

}  // namespace perfbench
