// Eventcount: a wait/notify primitive whose notify path writes nothing
// when nobody is sleeping.
//
// The seed scheduler did `notify_one` + `notify_all` on every spawn, i.e. a
// potential syscall on the hot path even with all VPs busy. An eventcount
// splits the protocol: consumers announce themselves (prepare_wait),
// re-check their condition, and only then commit to sleeping; producers
// issue one seq_cst fence and read the waiter count, and only when it is
// non-zero bump the epoch and touch the mutex/condvar. With every VP busy
// a notify is a fence plus a read of a line nobody writes — no shared
// cache-line write on the fork/join path (the Eigen EventCount shape).
//
// Lost-wakeup argument (store-buffering / Dekker shape, fence form):
//   waiter:   waiters_.fetch_add; FENCE_w; e = epoch_.load;
//             re-check the condition; sleep under mu_ until epoch_ != e
//   notifier: publish the condition (an atomic store); FENCE_n;
//             read waiters_; if non-zero: epoch_++ under mu_, notify cv
// FENCE_w and FENCE_n are seq_cst fences, so they are totally ordered.
//  - FENCE_n before FENCE_w: the publishing store is sequenced before
//    FENCE_n and the waiter's re-check after FENCE_w, so the re-check
//    observes the published condition and the waiter never sleeps.
//  - FENCE_w before FENCE_n: the waiters_ increment is sequenced before
//    FENCE_w and the notifier's read after FENCE_n, so the notifier sees a
//    waiter and takes the slow path. It bumps the epoch under mu_. Either
//    the waiter's snapshot already read the bump (then, the bump being a
//    release RMW read by an acquire load, its re-check observes the
//    condition), or the bump comes later in epoch_'s modification order
//    and the waiter's predicate — evaluated under the same mutex — sees
//    epoch_ != e before it sleeps or is woken by the notify that follows.
// A waiter between prepare_wait and cancel_wait only over-counts waiters_
// for a moment, which costs one spurious slow-path notify, never a lost one.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <stop_token>

namespace anahy {

/// Cache-line aligned so two eventcounts (or an eventcount and a hot
/// neighbouring field) never share a line.
class alignas(64) EventCount {
 public:
  using Epoch = std::uint64_t;

  /// Step 1 of waiting: announce intent and snapshot the epoch. The caller
  /// MUST re-check its wait condition between prepare_wait and
  /// commit_wait, and call cancel_wait instead when the condition turned
  /// true.
  Epoch prepare_wait() {
    waiters_.fetch_add(1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);  // FENCE_w
    return epoch_.load(std::memory_order_acquire);
  }

  void cancel_wait() { waiters_.fetch_sub(1, std::memory_order_relaxed); }

  /// Step 2: sleep until the epoch moves past the snapshot.
  void commit_wait(Epoch e) {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] {
      return epoch_.load(std::memory_order_acquire) != e;
    });
    waiters_.fetch_sub(1, std::memory_order_relaxed);
  }

  /// Stop-token-aware variant; returns false when woken by the stop request
  /// with the epoch unchanged.
  bool commit_wait(Epoch e, const std::stop_token& st) {
    std::unique_lock lock(mu_);
    const bool moved = cv_.wait(lock, st, [&] {
      return epoch_.load(std::memory_order_acquire) != e;
    });
    waiters_.fetch_sub(1, std::memory_order_relaxed);
    return moved;
  }

  /// Wake one / every committed waiter. Returns whether anyone was waiting
  /// (false = the fast path: a fence and one read, nothing written). The
  /// caller counts the outcome, on its own stats stripe.
  bool notify_one() { return notify(false); }
  bool notify_all() { return notify(true); }

 private:
  bool notify(bool all) {
    std::atomic_thread_fence(std::memory_order_seq_cst);  // FENCE_n
    if (waiters_.load(std::memory_order_relaxed) == 0) return false;
    {
      // Bumping under the mutex serializes with a waiter between its
      // predicate check and its cv wait, so the notify below is not lost.
      std::lock_guard lock(mu_);
      epoch_.fetch_add(1, std::memory_order_release);
    }
    if (all) {
      cv_.notify_all();
    } else {
      cv_.notify_one();
    }
    return true;
  }

  std::atomic<Epoch> epoch_{0};
  std::atomic<std::int64_t> waiters_{0};
  std::mutex mu_;
  std::condition_variable_any cv_;
};

}  // namespace anahy
