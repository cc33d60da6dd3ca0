// Concurrency stress tests for the lock-free scheduling fast path: deque
// grow-under-steal, claim exactly-once semantics, eventcount wakeups, and
// registry churn. Labelled `tsan` in CMake: run them under a
// -DANAHY_SAN=thread build to let ThreadSanitizer check the memory-ordering
// arguments in docs/SCHEDULER.md.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <set>
#include <thread>
#include <vector>

#include "anahy/anahy.hpp"
#include "anahy/eventcount.hpp"
#include "anahy/policy_steal.hpp"
#include "anahy/steal_deque.hpp"
#include "apps/fib_app.hpp"

namespace {

using namespace anahy;

/// Satellite regression: grow() used to publish the new buffer with plain
/// stores; a thief could observe the buffer pointer without the copied
/// slots. Start from capacity 2 so the owner grows repeatedly *while*
/// several thieves are stealing, and check conservation of elements.
TEST(ChaseLevDequeGrow, MultiThiefGrowUnderStealConservesElements) {
  constexpr int kRounds = 50;
  constexpr int kBurst = 400;  // >> initial capacity: every round grows
  constexpr int kThieves = 3;

  ChaseLevDeque<int> d(2);
  std::atomic<long long> stolen_sum{0};
  std::atomic<long long> stolen_count{0};
  std::atomic<bool> done{false};

  std::vector<std::thread> thieves;
  thieves.reserve(kThieves);
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      while (!done.load(std::memory_order_acquire) || !d.empty()) {
        if (auto v = d.steal_top()) {
          stolen_sum.fetch_add(*v, std::memory_order_relaxed);
          stolen_count.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  long long pushed_sum = 0;
  long long owner_sum = 0;
  long long owner_count = 0;
  int next = 0;
  for (int round = 0; round < kRounds; ++round) {
    // Push a burst larger than the current capacity can have shrunk to,
    // forcing a grow while the thieves are mid-steal...
    for (int i = 0; i < kBurst; ++i) {
      d.push_bottom(next);
      pushed_sum += next;
      ++next;
    }
    // ...then drain roughly half from the bottom so indices keep wrapping.
    for (int i = 0; i < kBurst / 2; ++i) {
      if (auto v = d.pop_bottom()) {
        owner_sum += *v;
        ++owner_count;
      }
    }
  }
  while (auto v = d.pop_bottom()) {
    owner_sum += *v;
    ++owner_count;
  }
  done.store(true, std::memory_order_release);
  for (auto& t : thieves) t.join();
  while (auto v = d.pop_bottom()) {  // a thief may race the done flag
    owner_sum += *v;
    ++owner_count;
  }

  EXPECT_EQ(owner_count + stolen_count.load(), 1LL * kRounds * kBurst);
  EXPECT_EQ(owner_sum + stolen_sum.load(), pushed_sum);
}

TaskPtr make_task(TaskId id) {
  return std::make_shared<Task>(
      id, [](void*) -> void* { return nullptr; }, nullptr, TaskAttributes{},
      kRootTaskId, 1);
}

/// try_claim is the single consumption point: concurrent pops, steals and
/// remove_specific calls over the same tasks must hand out each task to
/// exactly one caller.
TEST(WorkStealingClaim, ConcurrentPopsAndRemovesClaimEachTaskOnce) {
  constexpr int kTasks = 4000;
  constexpr int kPoppers = 2;

  WorkStealingPolicy policy(kPoppers);
  std::vector<TaskPtr> tasks;
  tasks.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    tasks.push_back(make_task(static_cast<TaskId>(i + 1)));
    policy.push(tasks.back(), i % kPoppers);
  }

  std::atomic<long long> claimed{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int vp = 0; vp < kPoppers; ++vp) {
    threads.emplace_back([&, vp] {
      while (!stop.load(std::memory_order_acquire)) {
        if (policy.pop(vp) != nullptr)
          claimed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // The joiner: tries to inline specific tasks while the poppers drain.
  threads.emplace_back([&] {
    for (const auto& t : tasks) {
      if (policy.remove_specific(t, SchedulingPolicy::kExternalVp))
        claimed.fetch_add(1, std::memory_order_relaxed);
    }
  });

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (claimed.load(std::memory_order_acquire) < kTasks &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();

  EXPECT_EQ(claimed.load(), kTasks);
  EXPECT_EQ(policy.pop(0), nullptr);
  EXPECT_EQ(policy.approx_size(), 0u);
  for (const auto& t : tasks) EXPECT_EQ(t->state(), TaskState::kRunning);
}

/// remove_specific claims in O(1) and leaves the deque entry behind; the
/// owner's next pop must recognize the stale entry and skip past it.
TEST(WorkStealingClaim, PopDiscardsStaleEntryLeftByRemoveSpecific) {
  WorkStealingPolicy policy(1);
  auto a = make_task(1);
  auto b = make_task(2);
  policy.push(a, 0);
  policy.push(b, 0);  // owner end: b is on top of a
  EXPECT_TRUE(policy.remove_specific(b, 0));
  EXPECT_EQ(policy.pop(0), a);  // b's stale entry is silently discarded
  EXPECT_EQ(policy.pop(0), nullptr);
  EXPECT_EQ(policy.approx_size(), 0u);
}

TEST(EventCountTest, NotifyWithNoSleepersSkipsTheSlowPath) {
  EventCount ec;
  EXPECT_FALSE(ec.notify_one());
  EXPECT_FALSE(ec.notify_all());
}

TEST(EventCountTest, CancelledWaitLeavesNoSleeper) {
  EventCount ec;
  (void)ec.prepare_wait();
  ec.cancel_wait();
  EXPECT_FALSE(ec.notify_one());  // nobody should be woken
}

TEST(EventCountTest, WaiterWakesOnNotify) {
  EventCount ec;
  std::atomic<bool> work{false};
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    for (;;) {
      if (work.load(std::memory_order_acquire)) break;
      const auto e = ec.prepare_wait();
      if (work.load(std::memory_order_acquire)) {  // the mandatory re-check
        ec.cancel_wait();
        break;
      }
      ec.commit_wait(e);
    }
    woke.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  work.store(true, std::memory_order_release);
  ec.notify_all();
  waiter.join();
  EXPECT_TRUE(woke.load());
}

/// Hammer prepare/notify from several threads: no waiter may sleep through
/// a notify that observed it (the Dekker argument in eventcount.hpp).
TEST(EventCountTest, NoLostWakeupsUnderChurn) {
  EventCount ec;
  std::atomic<int> pending{0};  // "work items" published before notify
  std::atomic<int> consumed{0};
  std::atomic<bool> stop{false};
  constexpr int kItems = 20000;

  std::vector<std::thread> consumers;
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        int p = pending.load(std::memory_order_acquire);
        if (p > 0 &&
            pending.compare_exchange_weak(p, p - 1,
                                          std::memory_order_acq_rel)) {
          consumed.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        const auto e = ec.prepare_wait();
        if (pending.load(std::memory_order_acquire) > 0 ||
            stop.load(std::memory_order_acquire)) {
          ec.cancel_wait();
          continue;
        }
        ec.commit_wait(e);
      }
    });
  }

  for (int i = 0; i < kItems; ++i) {
    pending.fetch_add(1, std::memory_order_release);
    ec.notify_one();
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (consumed.load() < kItems &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  ec.notify_all();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(consumed.load(), kItems);
}

/// N publishers x M waiters on one eventcount, every waiter following the
/// prepare / re-check / commit protocol: with the fence-based notify, a
/// published item must always reach a waiter within the bound, without
/// any extra notify from the test (the Dekker argument in eventcount.hpp).
TEST(EventCountTest, ManyPublishersManyWaitersLoseNoWakeup) {
  EventCount ec;
  std::atomic<int> pending{0};
  std::atomic<int> consumed{0};
  std::atomic<bool> stop{false};
  constexpr int kPublishers = 3;
  constexpr int kWaiters = 3;
  constexpr int kPerPublisher = 5000;
  constexpr int kItems = kPublishers * kPerPublisher;

  auto take = [&] {
    int p = pending.load(std::memory_order_acquire);
    while (p > 0) {
      if (pending.compare_exchange_weak(p, p - 1, std::memory_order_acq_rel))
        return true;
    }
    return false;
  };
  std::vector<std::thread> threads;
  for (int w = 0; w < kWaiters; ++w) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        if (take()) {
          consumed.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        const auto e = ec.prepare_wait();
        if (pending.load(std::memory_order_acquire) > 0 ||
            stop.load(std::memory_order_acquire)) {
          ec.cancel_wait();
          continue;
        }
        ec.commit_wait(e);
      }
    });
  }
  for (int p = 0; p < kPublishers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerPublisher; ++i) {
        pending.fetch_add(1, std::memory_order_release);
        // Alternate the two notify flavours across publishers.
        if ((p + i) % 2 == 0) ec.notify_one();
        else ec.notify_all();
      }
    });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (consumed.load() < kItems &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  const int got = consumed.load();
  stop.store(true, std::memory_order_release);
  ec.notify_all();
  for (auto& t : threads) t.join();
  EXPECT_EQ(got, kItems) << "items stranded with every waiter asleep";
}

/// The list gauges are stripe sums: once a 4-VP fork/join run has
/// returned, every list reads empty and every created task has executed.
TEST(SchedulerConcurrency, ListsSettleToZeroAfterParallelFib) {
  Runtime rt(Options{.num_vps = 4});
  EXPECT_EQ(apps::fib_anahy(rt, 20), 6765);
  const auto l = rt.lists();
  EXPECT_EQ(l.ready, 0u);
  EXPECT_EQ(l.finished, 0u);
  EXPECT_EQ(l.blocked, 0u);
  EXPECT_EQ(l.unblocked, 0u);
  const auto s = rt.stats();
  EXPECT_EQ(s.tasks_created, s.tasks_executed);
  EXPECT_EQ(s.tasks_created,
            static_cast<std::uint64_t>(apps::fib_task_count(20)));
}

/// Ids drawn in per-thread blocks from four VPs at once never collide,
/// and the registry (sharded by id block) finds every one of them.
TEST(SchedulerConcurrency, ConcurrentForksGetUniqueIdsFoundByJoinById) {
  constexpr int kFlows = 4;
  constexpr int kPerFlow = 300;
  Runtime rt(Options{.num_vps = kFlows});
  std::array<std::vector<TaskId>, kFlows> ids;
  std::atomic<int> started{0};
  std::vector<TaskPtr> flows;
  for (int f = 0; f < kFlows; ++f) {
    flows.push_back(rt.fork(
        [&, f](void*) -> void* {
          // Hold each flow until all of them run at once (bounded, so a
          // slow VP wake-up cannot hang the test), then fork concurrently.
          started.fetch_add(1);
          const auto until =
              std::chrono::steady_clock::now() + std::chrono::seconds(2);
          while (started.load() < kFlows &&
                 std::chrono::steady_clock::now() < until) {
            std::this_thread::yield();
          }
          for (int i = 0; i < kPerFlow; ++i) {
            const auto tag = static_cast<std::uintptr_t>(f * kPerFlow + i + 1);
            TaskPtr t = rt.fork([](void* in) -> void* { return in; },
                                reinterpret_cast<void*>(tag));
            ids[static_cast<std::size_t>(f)].push_back(t->id());
          }
          return nullptr;
        },
        nullptr));
  }
  for (const TaskPtr& t : flows) ASSERT_EQ(rt.join(t, nullptr), kOk);

  std::set<TaskId> unique;
  for (int f = 0; f < kFlows; ++f) {
    const std::vector<TaskId>& flow_ids = ids[static_cast<std::size_t>(f)];
    for (int i = 0; i < kPerFlow; ++i) {
      const TaskId id = flow_ids[static_cast<std::size_t>(i)];
      EXPECT_TRUE(unique.insert(id).second) << "duplicate id " << id;
      void* r = nullptr;
      ASSERT_EQ(rt.join_by_id(id, &r), kOk) << "id " << id;
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(r),
                static_cast<std::uintptr_t>(f * kPerFlow + i + 1));
    }
  }
  EXPECT_EQ(rt.join_by_id(ids[0][0], nullptr), kNotFound);  // retired
}

/// A single forking thread on a fresh runtime still numbers its tasks
/// 1, 2, 3, … across id-block boundaries, so traces keep the paper's ids.
TEST(SchedulerConcurrency, SingleThreadForksGetDenseIds) {
  Runtime rt(Options{.num_vps = 4});
  constexpr int kTasks = 3 * static_cast<int>(Scheduler::kIdBlock) + 5;
  std::vector<TaskPtr> tasks;
  for (int i = 0; i < kTasks; ++i)
    tasks.push_back(rt.fork([](void*) -> void* { return nullptr; }, nullptr));
  for (int i = 0; i < kTasks; ++i)
    EXPECT_EQ(tasks[static_cast<std::size_t>(i)]->id(), TaskId(i + 1));
  for (const TaskPtr& t : tasks) EXPECT_EQ(rt.join(t, nullptr), kOk);
}

/// Sharded-registry churn: several external threads fork and join through
/// the same runtime; every result must come back exactly once.
TEST(SchedulerConcurrency, ExternalThreadsForkJoinChurn) {
  Runtime rt(Options{.num_vps = 2});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 300;
  std::vector<std::thread> threads;
  std::atomic<long long> total{0};
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      long long local = 0;
      for (int i = 0; i < kPerThread; ++i) {
        auto h = spawn(rt, [tid, i] { return tid * 100000 + i; });
        local += h.join();
      }
      total.fetch_add(local, std::memory_order_relaxed);
    });
  }
  for (auto& t : threads) t.join();

  long long expected = 0;
  for (int tid = 0; tid < kThreads; ++tid)
    for (int i = 0; i < kPerThread; ++i) expected += tid * 100000 + i;
  EXPECT_EQ(total.load(), expected);
  const auto s = rt.stats();
  EXPECT_EQ(s.tasks_executed, 1ULL * kThreads * kPerThread);
  EXPECT_EQ(s.joins_total, 1ULL * kThreads * kPerThread);
}

/// Satellite (c): with one VP the joiner *must* inline join targets out of
/// the ready list (remove_specific) to make progress; the stats counter
/// proves the O(1) claim path actually fires.
TEST(SchedulerConcurrency, JoinInliningFiresOnDeepFib) {
  Runtime rt(Options{.num_vps = 1});
  std::function<long(long)> fib = [&](long n) -> long {
    if (n < 2) return n;
    auto h = spawn(rt, fib, n - 1);
    const long b = fib(n - 2);
    return h.join() + b;
  };
  EXPECT_EQ(fib(15), 610);
  const auto s = rt.stats();
  EXPECT_GT(s.joins_inlined, 0u);
  EXPECT_EQ(s.tasks_run_by_main, s.tasks_executed);  // no worker threads
}

/// The lock-free work-stealing policy and the mutex-guarded central queue
/// must compute the same results (the determinism criterion, at every VP
/// count).
TEST(SchedulerConcurrency, LockFreeAndMutexPoliciesAgree) {
  for (const PolicyKind policy :
       {PolicyKind::kWorkStealing, PolicyKind::kFifo}) {
    for (const int vps : {1, 2, 4}) {
      Options o;
      o.num_vps = vps;
      o.policy = policy;
      Runtime rt(o);
      std::function<long(long)> fib = [&](long n) -> long {
        if (n < 2) return n;
        auto h = spawn(rt, fib, n - 1);
        const long b = fib(n - 2);
        return h.join() + b;
      };
      EXPECT_EQ(fib(16), 987)
          << "policy " << to_string(policy) << " vps " << vps;
    }
  }
}

}  // namespace
