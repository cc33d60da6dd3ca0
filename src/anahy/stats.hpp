// Runtime counters: always-on, lock-free, cheap.
//
// The hot event counters (one to eight increments per task on the fork/join
// path) are striped: each thread owns one cache-line-aligned stripe of the
// counter bank, so an increment is a plain relaxed load + store on a
// thread-private line instead of a locked read-modify-write on a shared
// one — roughly 3x cheaper per event, and never a point of contention.
// Totals are exact: `snapshot` sums the stripes, and every stripe has a
// single writer (threads beyond the stripe count share the overflow stripe
// and fall back to fetch_add there, keeping single-writer stripes intact).
//
// The scheduler's list gauges (finished tasks, blocked and unblocked join
// frames) live on the same stripes: +1 and -1 may land on different
// threads' stripes, so one stripe can read "negative" (unsigned wrap), but
// the wrapping sum over all stripes is the exact list size once the
// runtime is idle (docs/SCHEDULER.md, "No shared writes on the fork/join
// path").
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace anahy {

/// Aggregated executive-kernel counters. A plain-struct `Snapshot` can be
/// taken at any time; counters are monotonic within one Runtime lifetime.
class RuntimeStats {
 public:
  struct Snapshot {
    std::uint64_t tasks_created = 0;
    std::uint64_t tasks_executed = 0;
    std::uint64_t joins_total = 0;
    std::uint64_t joins_immediate = 0;  ///< target already finished
    std::uint64_t joins_inlined = 0;    ///< target pulled from ready & run inline
    std::uint64_t joins_helped = 0;     ///< other tasks run while waiting
    std::uint64_t joins_slept = 0;      ///< blocked on a target run elsewhere
    std::uint64_t continuations = 0;    ///< logical T_i -> T_{i+1} splits
    std::uint64_t steals = 0;           ///< successful steals (steal policy)
    std::uint64_t steal_attempts = 0;
    std::uint64_t tasks_run_by_main = 0;
    std::uint64_t ready_peak = 0;       ///< high-water mark of the ready list
    std::uint64_t wakeups = 0;          ///< eventcount notifies with sleepers
    std::uint64_t wakeups_skipped = 0;  ///< notifies skipped (nobody asleep)

    [[nodiscard]] std::string to_string() const;
  };

  /// Scheduler list gauges (paper §2.2.1): tasks finished but not yet
  /// fully joined, join frames blocked on their target, and frames whose
  /// target finished that are consuming the result.
  enum class List : unsigned { kFinished, kBlocked, kUnblocked };

  RuntimeStats();

  void on_task_created() { bump(kTasksCreated); }
  void on_task_executed(bool by_main) {
    bump(kTasksExecuted);
    if (by_main) bump(kTasksRunByMain);
  }
  void on_join() { bump(kJoinsTotal); }
  void on_join_immediate() { bump(kJoinsImmediate); }
  void on_join_inlined() { bump(kJoinsInlined); }
  void on_join_helped() { bump(kJoinsHelped); }
  void on_join_slept() { bump(kJoinsSlept); }
  void on_continuation() { bump(kContinuations); }
  /// Outcome of one eventcount notify (EventCount::notify_* return value).
  void on_notify(bool woke) { bump(woke ? kWakeups : kWakeupsSkipped); }
  /// Moves one entry into (+1) or out of (-1) a list gauge.
  void list_add(List l, int delta) {
    bump(counter_of(l),
         static_cast<std::uint64_t>(static_cast<std::int64_t>(delta)));
  }
  /// Current size of a list gauge (sum over stripes; exact when idle).
  [[nodiscard]] std::size_t list_size(List l) const;

  /// Ready-list high-water mark; the scheduler samples the ready size on a
  /// push stride, so this is the peak of the samples.
  void record_ready_len(std::uint64_t len) {
    std::uint64_t peak = ready_peak_.load(relaxed);
    while (len > peak &&
           !ready_peak_.compare_exchange_weak(peak, len, relaxed, relaxed)) {
    }
  }

  /// Stripe sums. Steal counters are owned by the policy; the scheduler
  /// fills them into its own copy of the snapshot.
  [[nodiscard]] Snapshot snapshot() const;

 private:
  static constexpr auto relaxed = std::memory_order_relaxed;

  enum HotCounter : unsigned {
    kTasksCreated,
    kTasksExecuted,
    kJoinsTotal,
    kJoinsImmediate,
    kJoinsInlined,
    kJoinsHelped,
    kJoinsSlept,
    kContinuations,
    kTasksRunByMain,
    kWakeups,
    kWakeupsSkipped,
    kListFinished,
    kListBlocked,
    kListUnblocked,
    kNumHotCounters,
  };

  /// One thread's stripe: atomics so cross-thread snapshot reads are
  /// race-free, but written by exactly one thread (plain load + store).
  struct alignas(64) Stripe {
    std::array<std::atomic<std::uint64_t>, kNumHotCounters> c{};
  };
  /// Stripe count: enough for every VP plus external threads in normal use;
  /// the last stripe doubles as the shared overflow stripe when more
  /// threads than stripes ever touch this instance.
  static constexpr unsigned kStripes = 32;

  void bump(HotCounter which, std::uint64_t delta = 1) {
    Stripe& s = stripe();
    std::atomic<std::uint64_t>& v = s.c[which];
    if (&s == &stripes_[kStripes - 1]) {
      // Overflow stripe: potentially shared, needs the real RMW.
      v.fetch_add(delta, relaxed);
    } else {
      v.store(v.load(relaxed) + delta, relaxed);
    }
  }

  static HotCounter counter_of(List l) {
    return static_cast<HotCounter>(kListFinished + static_cast<unsigned>(l));
  }

  /// Wrapping sum of one counter over every stripe.
  [[nodiscard]] std::uint64_t sum(HotCounter which) const;

  /// The calling thread's stripe of this instance (claimed on first use;
  /// instance-checked TLS, same idiom as the scheduler's VP binding).
  [[nodiscard]] Stripe& stripe() {
    if (tls_owner_ != instance_id_) [[unlikely]]
      claim_stripe();
    return stripes_[tls_index_];
  }
  void claim_stripe();

  static inline thread_local std::uint64_t tls_owner_ = 0;
  static inline thread_local unsigned tls_index_ = 0;

  const std::uint64_t instance_id_;
  std::array<Stripe, kStripes> stripes_;
  alignas(64) std::atomic<unsigned> stripes_used_{0};
  std::atomic<std::uint64_t> ready_peak_{0};
};

}  // namespace anahy
