// Functional tests of the anahy::serve job service: the submit -> handle
// contract, admission control, priorities, timeouts, per-job checking and
// the drain/shutdown/destruction lifecycle.
#include "anahy/serve/job_server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace anahy;
using namespace anahy::serve;

constexpr std::int64_t kMs = 1'000'000;
constexpr std::int64_t kSec = 1'000 * kMs;

ServerOptions small_server(int vps = 2) {
  ServerOptions o;
  o.runtime.num_vps = vps;
  return o;
}

/// Body returning its input pointer (identity job).
void* identity(void* in) { return in; }

/// Body that spins until the pointed-to flag becomes true.
void* wait_for_flag(void* in) {
  auto* flag = static_cast<std::atomic<bool>*>(in);
  while (!flag->load(std::memory_order_acquire))
    std::this_thread::yield();
  return nullptr;
}

TEST(JobServer, SubmitRunsBodyAndResolvesHandle) {
  JobServer server(small_server());
  int value = 41;
  JobSpec spec;
  spec.body = [](void* in) -> void* {
    ++*static_cast<int*>(in);
    return in;
  };
  spec.input = &value;
  spec.label = "inc";
  JobHandle h = server.submit(std::move(spec));
  ASSERT_TRUE(h.valid());
  EXPECT_EQ(h.wait(), kOk);
  EXPECT_TRUE(h.done());
  EXPECT_EQ(h.state(), JobState::kDone);
  EXPECT_EQ(h.result().value, &value);
  EXPECT_EQ(value, 42);
  EXPECT_GT(h.id(), 0u);
}

TEST(JobServer, EmptyBodyIsRejectedInvalid) {
  JobServer server(small_server());
  JobHandle h = server.submit(JobSpec{});
  EXPECT_EQ(h.wait(), kInvalid);
}

TEST(JobServer, CheckWithoutServerSupportIsRejectedInvalid) {
  JobServer server(small_server());  // ServerOptions::check off
  JobSpec spec;
  spec.body = identity;
  spec.check = true;
  EXPECT_EQ(server.submit(std::move(spec)).wait(), kInvalid);
}

TEST(JobServer, DescendantForksInheritTheJobContext) {
  JobServer server(small_server(4));
  Runtime& rt = server.runtime();
  std::atomic<int> leaves{0};
  JobSpec spec;
  spec.body = [&](void*) -> void* {
    std::vector<TaskPtr> children;
    for (int i = 0; i < 16; ++i)
      children.push_back(rt.fork(
          [](void* in) -> void* {
            static_cast<std::atomic<int>*>(in)->fetch_add(1);
            return nullptr;
          },
          &leaves));
    for (auto& c : children) rt.join(c, nullptr);
    return nullptr;
  };
  JobHandle h = server.submit(std::move(spec));
  ASSERT_EQ(h.wait(), kOk);
  EXPECT_EQ(leaves.load(), 16);
  // Root + 16 children, all attributed to the job via its context.
  EXPECT_EQ(h.result().stats.tasks_created, 17u);
  EXPECT_EQ(h.result().stats.tasks_executed, 17u);
  EXPECT_EQ(h.result().stats.tasks_cancelled, 0u);
  EXPECT_GE(h.result().stats.queue_wait_ns, 0);
  EXPECT_GT(h.result().stats.exec_ns, 0);
}

TEST(JobServer, PerClassStatsAreAccounted) {
  JobServer server(small_server());
  const Priority classes[] = {Priority::kHigh, Priority::kNormal,
                              Priority::kBatch};
  std::vector<JobHandle> handles;
  for (Priority p : classes) {
    JobSpec spec;
    spec.body = identity;
    spec.priority = p;
    handles.push_back(server.submit(std::move(spec)));
  }
  for (auto& h : handles) EXPECT_EQ(h.wait(), kOk);
  const ServerStats s = server.stats();
  for (Priority p : classes) {
    EXPECT_EQ(s.of(p).submitted, 1u) << to_string(p);
    EXPECT_EQ(s.of(p).completed, 1u) << to_string(p);
  }
  EXPECT_EQ(s.submitted_total(), 3u);
  EXPECT_EQ(s.resolved_total(), 3u);
}

TEST(JobServer, MetricsTextExposesCounters) {
  JobServer server(small_server());
  JobSpec spec;
  spec.body = identity;
  server.submit(std::move(spec)).wait();
  const std::string text = server.metrics_text();
  EXPECT_NE(text.find("anahy_serve_jobs_submitted_total{class=\"normal\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("anahy_serve_jobs_active"), std::string::npos);
  EXPECT_NE(text.find("anahy_serve_queue_wait_ns_sum"), std::string::npos);
}

TEST(JobServer, RejectPolicyResolvesOverloadedWhenQueueFull) {
  ServerOptions opts = small_server();
  opts.max_pending = 1;
  opts.max_active = 1;
  opts.admission = ServerOptions::Admission::kReject;
  JobServer server(std::move(opts));

  std::atomic<bool> release{false};
  JobSpec blocker;
  blocker.body = wait_for_flag;
  blocker.input = &release;
  JobHandle active = server.submit(std::move(blocker));
  // Wait until the blocker occupies the single active slot.
  while (server.stats().active == 0) std::this_thread::yield();

  JobSpec queued;
  queued.body = identity;
  JobHandle pending = server.submit(std::move(queued));  // fills the queue

  JobSpec excess;
  excess.body = identity;
  JobHandle rejected = server.submit(std::move(excess));
  EXPECT_EQ(rejected.wait(), kOverloaded);
  EXPECT_EQ(server.stats().of(Priority::kNormal).rejected, 1u);

  release.store(true, std::memory_order_release);
  EXPECT_EQ(active.wait(), kOk);
  EXPECT_EQ(pending.wait(), kOk);
}

TEST(JobServer, BlockPolicyAppliesBackpressureThenAdmits) {
  ServerOptions opts = small_server();
  opts.max_pending = 1;
  opts.max_active = 1;
  opts.admission = ServerOptions::Admission::kBlock;
  JobServer server(std::move(opts));

  std::atomic<bool> release{false};
  JobSpec blocker;
  blocker.body = wait_for_flag;
  blocker.input = &release;
  JobHandle active = server.submit(std::move(blocker));
  while (server.stats().active == 0) std::this_thread::yield();
  JobSpec filler;
  filler.body = identity;
  JobHandle queued = server.submit(std::move(filler));  // queue now full

  std::atomic<bool> admitted{false};
  JobHandle blocked;
  std::thread submitter([&] {
    JobSpec spec;
    spec.body = identity;
    blocked = server.submit(std::move(spec));  // blocks until space frees
    admitted.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(admitted.load(std::memory_order_acquire));

  release.store(true, std::memory_order_release);
  submitter.join();
  EXPECT_EQ(active.wait(), kOk);
  EXPECT_EQ(queued.wait(), kOk);
  EXPECT_EQ(blocked.wait(), kOk);
}

TEST(JobServer, TimeoutCancelsNotYetStartedDescendants) {
  JobServer server(small_server(2));
  Runtime& rt = server.runtime();
  JobSpec spec;
  spec.timeout_ns = 20 * kMs;
  spec.body = [&](void*) -> void* {
    // Outlive the deadline, then fork: the children must be cancelled.
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    std::vector<TaskPtr> children;
    for (int i = 0; i < 8; ++i)
      children.push_back(rt.fork([](void*) -> void* {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        return nullptr;
      }, nullptr));
    for (auto& c : children) rt.join(c, nullptr);
    return nullptr;
  };
  JobHandle h = server.submit(std::move(spec));
  EXPECT_EQ(h.wait(), kTimedOut);
  EXPECT_GT(h.result().stats.tasks_cancelled, 0u);
  EXPECT_EQ(server.stats().of(Priority::kNormal).timed_out, 1u);
}

TEST(JobServer, ExpiredBeforeDispatchResolvesTimedOutWithoutRunning) {
  ServerOptions opts = small_server();
  opts.max_active = 1;
  JobServer server(std::move(opts));

  std::atomic<bool> release{false};
  JobSpec blocker;
  blocker.body = wait_for_flag;
  blocker.input = &release;
  JobHandle active = server.submit(std::move(blocker));
  while (server.stats().active == 0) std::this_thread::yield();

  std::atomic<bool> ran{false};
  JobSpec doomed;
  doomed.timeout_ns = 5 * kMs;  // expires while stuck behind the blocker
  doomed.body = [&ran](void*) -> void* {
    ran.store(true);
    return nullptr;
  };
  JobHandle h = server.submit(std::move(doomed));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  release.store(true, std::memory_order_release);
  EXPECT_EQ(active.wait(), kOk);
  EXPECT_EQ(h.wait(), kTimedOut);
  EXPECT_FALSE(ran.load());
}

TEST(JobServer, CancelQueuedJobResolvesAbortedWithoutRunning) {
  ServerOptions opts = small_server();
  opts.max_active = 1;
  JobServer server(std::move(opts));

  std::atomic<bool> release{false};
  JobSpec blocker;
  blocker.body = wait_for_flag;
  blocker.input = &release;
  JobHandle active = server.submit(std::move(blocker));
  while (server.stats().active == 0) std::this_thread::yield();

  std::atomic<bool> ran{false};
  JobSpec victim;
  victim.body = [&ran](void*) -> void* {
    ran.store(true);
    return nullptr;
  };
  JobHandle h = server.submit(std::move(victim));
  h.cancel();
  release.store(true, std::memory_order_release);
  EXPECT_EQ(active.wait(), kOk);
  EXPECT_EQ(h.wait(), kAborted);
  EXPECT_FALSE(ran.load());
}

TEST(JobServer, DrainFinishesQueuedWorkThenRejectsSubmits) {
  JobServer server(small_server());
  std::atomic<int> done{0};
  std::vector<JobHandle> handles;
  for (int i = 0; i < 32; ++i) {
    JobSpec spec;
    spec.body = [&done](void*) -> void* {
      done.fetch_add(1);
      return nullptr;
    };
    handles.push_back(server.submit(std::move(spec)));
  }
  server.drain();
  EXPECT_EQ(done.load(), 32);
  for (auto& h : handles) EXPECT_EQ(h.wait(), kOk);

  JobSpec late;
  late.body = identity;
  EXPECT_EQ(server.submit(std::move(late)).wait(), kPerm);
}

TEST(JobServer, OnCompleteCallbackFiresExactlyOnce) {
  JobServer server(small_server());
  std::atomic<int> calls{0};
  JobSpec spec;
  spec.body = identity;
  spec.on_complete = [&calls](const JobResult& r) {
    EXPECT_EQ(r.error, kOk);
    calls.fetch_add(1);
  };
  JobHandle h = server.submit(std::move(spec));
  EXPECT_EQ(h.wait(), kOk);
  server.drain();
  EXPECT_EQ(calls.load(), 1);
}

TEST(JobServer, ShutdownAbortsPendingAndReportsBusyActive) {
  ServerOptions opts = small_server();
  opts.max_active = 1;
  JobServer server(std::move(opts));

  // The blocker announces when its body is actually running: a job counts
  // as "active" from dispatch, but run_root's cancellation pre-check can
  // still resolve it without running the body until then.
  struct Gate {
    std::atomic<bool> started{false};
    std::atomic<bool> release{false};
  } gate;
  JobSpec blocker;
  blocker.body = [](void* in) -> void* {
    auto* g = static_cast<Gate*>(in);
    g->started.store(true, std::memory_order_release);
    while (!g->release.load(std::memory_order_acquire))
      std::this_thread::yield();
    return nullptr;
  };
  blocker.input = &gate;
  JobHandle active = server.submit(std::move(blocker));
  while (!gate.started.load(std::memory_order_acquire))
    std::this_thread::yield();

  std::vector<JobHandle> queued;
  for (int i = 0; i < 4; ++i) {
    JobSpec spec;
    spec.body = identity;
    queued.push_back(server.submit(std::move(spec)));
  }

  // The active job ignores cancellation (it spins on our flag), so a
  // bounded shutdown must time out; the queued jobs resolve kAborted.
  EXPECT_FALSE(server.shutdown(30 * kMs));
  for (auto& h : queued) EXPECT_EQ(h.wait(), kAborted);
  EXPECT_EQ(server.stats().of(Priority::kNormal).aborted, 4u);

  gate.release.store(true, std::memory_order_release);
  // Cancelled while running -> the job resolves kAborted, not kOk.
  EXPECT_EQ(active.wait(), kAborted);
  EXPECT_TRUE(server.shutdown(kSec));
}

TEST(JobServer, DestructionResolvesEveryOutstandingHandle) {
  std::vector<JobHandle> handles;
  {
    JobServer server(small_server());
    for (int i = 0; i < 64; ++i) {
      JobSpec spec;
      spec.body = identity;
      handles.push_back(server.submit(std::move(spec)));
    }
    // Destructor runs with jobs in every stage: queued, active, done.
  }
  for (auto& h : handles) {
    ASSERT_TRUE(h.done()) << "handle left unresolved by destruction";
    const int err = h.result().error;
    EXPECT_TRUE(err == kOk || err == kAborted) << err;
  }
}

TEST(JobServer, CheckedJobSurfacesItsRacesOnly) {
  ServerOptions opts;
  opts.runtime.num_vps = 1;  // one worker: canonical access order
  opts.check = true;
  JobServer server(std::move(opts));
  Runtime& rt = server.runtime();

  static long shared = 0;
  const auto racy_child = [](void* in) -> void* {
    check::write(&shared, sizeof shared);
    shared = reinterpret_cast<long>(in);
    return nullptr;
  };

  JobSpec racy;
  racy.check = true;
  racy.body = [&](void*) -> void* {
    TaskPtr a = rt.fork(racy_child, reinterpret_cast<void*>(1L));
    TaskPtr b = rt.fork(racy_child, reinterpret_cast<void*>(2L));
    rt.join(a, nullptr);
    rt.join(b, nullptr);
    return nullptr;
  };
  JobHandle rh = server.submit(std::move(racy));

  std::atomic<long> clean_acc{0};
  JobSpec clean;
  clean.check = true;
  clean.body = [&](void*) -> void* {
    TaskPtr a = rt.fork(
        [](void* in) -> void* {
          static_cast<std::atomic<long>*>(in)->fetch_add(1);
          return nullptr;
        },
        &clean_acc);
    rt.join(a, nullptr);
    return nullptr;
  };
  JobHandle ch = server.submit(std::move(clean));

  ASSERT_EQ(rh.wait(), kOk);
  ASSERT_EQ(ch.wait(), kOk);
  ASSERT_FALSE(rh.result().races.empty()) << "seeded race must be caught";
  EXPECT_TRUE(ch.result().races.empty()) << "clean job blamed for a race";
  for (const auto& r : rh.result().races) {
    EXPECT_TRUE(r.first_job == rh.id() || r.second_job == rh.id());
    EXPECT_NE(r.to_string().find("ANAHY-R001"), std::string::npos);
  }
}

TEST(JobServer, UncheckedJobCollectsNoRacesOnCheckServer) {
  ServerOptions opts;
  opts.runtime.num_vps = 1;
  opts.check = true;
  JobServer server(std::move(opts));
  Runtime& rt = server.runtime();

  static long shared2 = 0;
  const auto racy_child = [](void* in) -> void* {
    check::write(&shared2, sizeof shared2);
    shared2 = reinterpret_cast<long>(in);
    return nullptr;
  };
  JobSpec racy;  // check NOT requested: no reports attached to the result
  racy.body = [&](void*) -> void* {
    TaskPtr a = rt.fork(racy_child, reinterpret_cast<void*>(1L));
    TaskPtr b = rt.fork(racy_child, reinterpret_cast<void*>(2L));
    rt.join(a, nullptr);
    rt.join(b, nullptr);
    return nullptr;
  };
  JobHandle h = server.submit(std::move(racy));
  ASSERT_EQ(h.wait(), kOk);
  EXPECT_TRUE(h.result().races.empty());
}

TEST(ServeStats, CountersWrapAroundModularly) {
  // ServerStats counters are uint64 and monotonic for the server's
  // lifetime; a synthetic near-max snapshot must wrap modularly (defined
  // behavior) and keep rendering — a scraper sees the wrapped value and
  // its rate logic (delta with wraparound) still works.
  ServerStats s;
  ServerStats::ClassStats& c = s.of(Priority::kNormal);
  c.submitted = std::numeric_limits<std::uint64_t>::max();
  ++c.submitted;
  EXPECT_EQ(c.submitted, 0u);
  c.submitted = std::numeric_limits<std::uint64_t>::max() - 1;
  c.submitted += 3;  // wraps past max
  EXPECT_EQ(c.submitted, 1u);
  EXPECT_EQ(s.submitted_total(), 1u);
  const std::string text = s.to_metrics_text();
  EXPECT_NE(
      text.find("anahy_serve_jobs_submitted_total{class=\"normal\"} 1"),
      std::string::npos);

  // The same wraparound-delta contract holds for the observe counters.
  // delta() recomputes totals from the per-VP deltas, so wrap a VP slot.
  observe::Snapshot earlier, later;
  earlier.per_vp.resize(1);
  later.per_vp.resize(1);
  earlier.per_vp[0].forks = std::numeric_limits<std::uint64_t>::max() - 2;
  later.per_vp[0].forks = 5;  // 8 increments later, post-wrap
  const observe::Snapshot d = later.delta(earlier);
  EXPECT_EQ(d.per_vp[0].forks, 8u);
  EXPECT_EQ(d.total.forks, 8u);
}

TEST(JobServer, ObserveSnapshotMatchesResolvedJobsAfterDrain) {
  ServerOptions opts;
  opts.runtime.num_vps = 2;
  JobServer server(std::move(opts));
  Runtime& rt = server.runtime();

  // Each job forks 2 children: 3 tasks per job including the root.
  constexpr int kJobs = 20;
  const auto leaf = [](void*) -> void* { return nullptr; };
  std::vector<JobHandle> handles;
  for (int i = 0; i < kJobs; ++i) {
    JobSpec spec;
    spec.priority = static_cast<Priority>(i % kNumPriorities);
    spec.body = [&](void*) -> void* {
      TaskPtr a = rt.fork(leaf, nullptr);
      TaskPtr b = rt.fork(leaf, nullptr);
      rt.join(a, nullptr);
      rt.join(b, nullptr);
      return nullptr;
    };
    handles.push_back(server.submit(std::move(spec)));
  }
  for (auto& h : handles) ASSERT_EQ(h.wait(), kOk);
  server.drain();

  // Drained and quiesced: every handle resolved, so the telemetry totals
  // must account for every task — each fork ran, each job contributed its
  // root + 2 children, and the per-VP breakdown sums to the totals.
  const observe::Snapshot s = rt.observe_snapshot();
  EXPECT_EQ(s.total.forks, s.total.tasks_run);
  EXPECT_GE(s.total.tasks_run, static_cast<std::uint64_t>(3 * kJobs));
  observe::VpCounters sum;
  for (const auto& vp : s.per_vp) sum += vp;
  EXPECT_EQ(sum.tasks_run, s.total.tasks_run);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.pending, 0u);
  EXPECT_EQ(stats.active, 0u);
  std::uint64_t resolved = 0, serve_tasks = 0;
  for (const auto& c : stats.by_class) {
    resolved += c.completed;
    serve_tasks += c.tasks;
  }
  EXPECT_EQ(resolved, static_cast<std::uint64_t>(kJobs));
  // The runtime ran at least the tasks the serve layer attributed to jobs.
  EXPECT_GE(s.total.tasks_run, serve_tasks);
}

TEST(ServeObserve, DeadlineRiskAnomaliesFromSyntheticStats) {
  ServerStats s;
  EXPECT_TRUE(deadline_risk_anomalies(s, 100).empty());

  // Backlog at 80% of max_pending: P003.
  s.pending = 80;
  auto a = deadline_risk_anomalies(s, 100);
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a[0].code, observe::anomaly_code::kDeadlineRisk);
  s.pending = 79;
  EXPECT_TRUE(deadline_risk_anomalies(s, 100).empty());

  // Jobs already timed out: P003 regardless of backlog.
  s.of(Priority::kBatch).timed_out = 2;
  a = deadline_risk_anomalies(s, 100);
  ASSERT_EQ(a.size(), 1u);
  EXPECT_NE(a[0].detail.find("2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Fault containment: a throwing job body resolves kFaulted, never
// terminates the process.
// ---------------------------------------------------------------------------

TEST(JobServer, ThrowingBodyResolvesFaultedWithMessage) {
  JobServer server(small_server());
  JobSpec spec;
  spec.body = [](void*) -> void* {
    throw std::runtime_error("kaboom at task level");
  };
  spec.label = "thrower";
  JobHandle h = server.submit(std::move(spec));
  ASSERT_TRUE(h.valid());
  EXPECT_EQ(h.wait(), kFaulted);
  EXPECT_EQ(h.state(), JobState::kDone);
  EXPECT_NE(h.result().message.find("kaboom at task level"),
            std::string::npos)
      << h.result().message;
  EXPECT_EQ(h.result().value, nullptr);
  EXPECT_EQ(server.stats().of(Priority::kNormal).faulted, 1u);
}

TEST(JobServer, NonStdExceptionIsContainedToo) {
  JobServer server(small_server());
  JobSpec spec;
  spec.body = [](void*) -> void* { throw 42; };
  JobHandle h = server.submit(std::move(spec));
  EXPECT_EQ(h.wait(), kFaulted);
  EXPECT_NE(h.result().message.find("non-standard"), std::string::npos)
      << h.result().message;
}

TEST(JobServer, ThrowingDescendantFaultsTheJob) {
  // The throw happens in a forked child, not the root body: the context
  // records the fault, cancels the job's remaining work, and the job
  // resolves kFaulted (first fault wins).
  JobServer server(small_server(4));
  Runtime& rt = server.runtime();
  JobSpec spec;
  spec.body = [&](void*) -> void* {
    std::vector<TaskPtr> children;
    for (int i = 0; i < 4; ++i)
      children.push_back(rt.fork([](void* in) -> void* {
        if (in == nullptr) throw std::runtime_error("child kaboom");
        return nullptr;
      }, i == 2 ? nullptr : &i));
    for (auto& c : children) rt.join(c, nullptr);
    return nullptr;
  };
  JobHandle h = server.submit(std::move(spec));
  EXPECT_EQ(h.wait(), kFaulted);
  EXPECT_NE(h.result().message.find("child kaboom"), std::string::npos)
      << h.result().message;
}

TEST(JobServer, FaultedJobStillFiresOnCompleteAndDrainCounts) {
  JobServer server(small_server());
  std::atomic<int> callbacks{0};
  std::atomic<int> callback_error{0};
  JobSpec spec;
  spec.body = [](void*) -> void* { throw std::runtime_error("boom"); };
  spec.on_complete = [&](const JobResult& r) {
    callbacks.fetch_add(1);
    callback_error.store(r.error);
  };
  JobHandle h = server.submit(std::move(spec));
  EXPECT_EQ(h.wait(), kFaulted);
  server.drain();  // a faulted job is resolved work, not a drain leak
  // on_complete may trail wait(); drain() is what waits callbacks out.
  EXPECT_EQ(callbacks.load(), 1) << "kFaulted must fire on_complete once";
  EXPECT_EQ(callback_error.load(), kFaulted);
  const ServerStats s = server.stats();
  EXPECT_EQ(s.resolved_total(), 1u);
  EXPECT_EQ(s.of(Priority::kNormal).faulted, 1u);
  EXPECT_EQ(s.of(Priority::kNormal).completed, 0u);
}

TEST(JobServer, FaultedCountRidesTheExposition) {
  JobServer server(small_server());
  JobSpec spec;
  spec.body = [](void*) -> void* { throw std::runtime_error("boom"); };
  ASSERT_EQ(server.submit(std::move(spec)).wait(), kFaulted);
  const std::string text = server.observe_text();
  EXPECT_NE(
      text.find("anahy_serve_jobs_faulted_total{class=\"normal\"} 1"),
      std::string::npos)
      << text;
}

TEST(JobServer, HealthyJobsUnaffectedByAFaultedNeighbor) {
  // Containment means *isolation*: one faulted job must not poison
  // concurrent healthy jobs sharing the VPs.
  JobServer server(small_server(4));
  std::vector<JobHandle> good;
  JobSpec bad;
  bad.body = [](void*) -> void* { throw std::runtime_error("boom"); };
  JobHandle hbad = server.submit(std::move(bad));
  for (int i = 0; i < 8; ++i) {
    JobSpec spec;
    spec.body = identity;
    good.push_back(server.submit(std::move(spec)));
  }
  EXPECT_EQ(hbad.wait(), kFaulted);
  for (auto& h : good) EXPECT_EQ(h.wait(), kOk);
  const ServerStats s = server.stats();
  EXPECT_EQ(s.of(Priority::kNormal).completed, 8u);
  EXPECT_EQ(s.of(Priority::kNormal).faulted, 1u);
}

TEST(JobServer, ObserveTextMergesTelemetryAndServeMetrics) {
  JobServer server(small_server());
  JobSpec spec;
  spec.body = identity;
  ASSERT_EQ(server.submit(std::move(spec)).wait(), kOk);
  server.drain();

  const std::string text = server.observe_text();
  // One document, both layers: runtime telemetry first, serve counters
  // after (the kStatsQuery payload shape).
  EXPECT_NE(text.find("anahy_observe_epoch"), std::string::npos);
  EXPECT_NE(text.find("anahy_observe_steal_success_ratio"),
            std::string::npos);
  EXPECT_NE(text.find("anahy_serve_jobs_pending "), std::string::npos);
  EXPECT_LT(text.find("anahy_observe_epoch"),
            text.find("anahy_serve_jobs_pending "));
}

// ----------------------------------------------------------------------
// export_queued — the mesh-migration primitive (docs/MESH.md). Queued,
// never-dispatched, exportable jobs may change owner; everything else is
// untouchable.

/// One VP, one job at a time, blocked: everything submitted afterwards
/// stays queued until the flag flips. max_active = 1 is what keeps it
/// queued; unbounded, the dispatcher thread would hand each job to the
/// runtime as soon as it wakes, racing export_queued.
struct BlockedServer {
  JobServer server{[] {
    ServerOptions o = small_server(1);
    o.max_active = 1;
    return o;
  }()};
  std::atomic<bool> flag{false};
  JobHandle blocker;

  BlockedServer() {
    JobSpec spec;
    spec.body = wait_for_flag;
    spec.input = &flag;
    spec.priority = Priority::kHigh;
    spec.exportable = true;  // running jobs must still never export
    blocker = server.submit(std::move(spec));
    // The blocker must actually occupy the VP before tests queue behind it.
    while (server.stats().active == 0) std::this_thread::yield();
  }
  ~BlockedServer() {
    flag.store(true, std::memory_order_release);
    if (blocker.valid()) blocker.wait();
  }

  JobHandle queue_one(bool exportable, Priority pr = Priority::kBatch,
                      std::atomic<int>* ran = nullptr) {
    JobSpec spec;
    spec.body = [](void* in) -> void* {
      if (in != nullptr)
        static_cast<std::atomic<int>*>(in)->fetch_add(1,
                                                      std::memory_order_relaxed);
      return nullptr;
    };
    spec.input = ran;
    spec.priority = pr;
    spec.exportable = exportable;
    return server.submit(std::move(spec));
  }
};

TEST(JobServerExport, ExportsOnlyQueuedExportableJobsOfTheClass) {
  BlockedServer rig;
  std::atomic<int> ran{0};
  JobHandle e1 = rig.queue_one(true, Priority::kBatch, &ran);
  JobHandle e2 = rig.queue_one(true, Priority::kBatch, &ran);
  JobHandle local = rig.queue_one(false, Priority::kBatch, &ran);
  JobHandle other = rig.queue_one(true, Priority::kNormal, &ran);

  EXPECT_EQ(rig.server.export_queued(Priority::kBatch, 10), 2u);
  EXPECT_EQ(e1.wait(), kMigrated);
  EXPECT_EQ(e2.wait(), kMigrated);
  EXPECT_EQ(ran.load(), 0);  // migrated bodies never ran here

  // The local closure and the other class survive and run normally.
  rig.flag.store(true, std::memory_order_release);
  EXPECT_EQ(local.wait(), kOk);
  EXPECT_EQ(other.wait(), kOk);
  EXPECT_EQ(ran.load(), 2);
  EXPECT_EQ(rig.server.stats().by_class[2].migrated, 2u);
}

TEST(JobServerExport, RespectsMaxAndTakesTheNewestFirst) {
  BlockedServer rig;
  JobHandle oldest = rig.queue_one(true);
  JobHandle newest = rig.queue_one(true);
  EXPECT_EQ(rig.server.export_queued(Priority::kBatch, 1), 1u);
  // Newest-first: the job with the least sunk queue wait moves; the one
  // that already waited keeps its position.
  EXPECT_EQ(newest.wait(), kMigrated);
  rig.flag.store(true, std::memory_order_release);
  EXPECT_EQ(oldest.wait(), kOk);
}

TEST(JobServerExport, EligibleFilterAndRunningJobsAreRespected) {
  BlockedServer rig;
  JobHandle queued = rig.queue_one(true);
  // Filter rejects everything: nothing moves (the running blocker is
  // exportable but dispatched — it must not even be offered).
  EXPECT_EQ(rig.server.export_queued(Priority::kBatch, 10,
                                     [](const Job&) { return false; }),
            0u);
  // The blocker is kHigh and running; exporting kHigh finds nothing.
  EXPECT_EQ(rig.server.export_queued(Priority::kHigh, 10), 0u);
  rig.flag.store(true, std::memory_order_release);
  EXPECT_EQ(queued.wait(), kOk);
}

TEST(JobServerExport, CancelledAndDrainingJobsNeverExport) {
  {
    BlockedServer rig;
    JobHandle victim = rig.queue_one(true);
    victim.cancel();
    EXPECT_EQ(rig.server.export_queued(Priority::kBatch, 10), 0u);
    rig.flag.store(true, std::memory_order_release);
    EXPECT_EQ(victim.wait(), kAborted);
  }
  JobServer server(small_server(1));
  server.drain();
  EXPECT_EQ(server.export_queued(Priority::kBatch, 10), 0u);
}

TEST(JobServerExport, OnCompleteFiresForMigratedJobs) {
  BlockedServer rig;
  std::atomic<int> completions{0};
  JobSpec spec;
  spec.body = [](void*) -> void* { return nullptr; };
  spec.priority = Priority::kBatch;
  spec.exportable = true;
  spec.on_complete = [&completions](const JobResult& r) {
    if (r.error == kMigrated)
      completions.fetch_add(1, std::memory_order_relaxed);
  };
  JobHandle h = rig.server.submit(std::move(spec));
  EXPECT_EQ(rig.server.export_queued(Priority::kBatch, 1), 1u);
  EXPECT_EQ(h.wait(), kMigrated);
  EXPECT_EQ(completions.load(), 1);
}

}  // namespace
