// Work-stealing ready-list policy: per-VP lock-free deques, owner LIFO /
// thief FIFO, with strict priority classes.
//
// This is the load-balancing strategy the Anahy lineage (Athapascan-1,
// Cilk) implies: each virtual processor pushes and pops its own bottom end
// (depth-first, cache-friendly) while idle VPs steal the oldest task from a
// victim's top end (breadth-first, large-grained steals).
//
// The hot path is lock-free end to end (see docs/SCHEDULER.md):
//  - each worker VP owns one Chase-Lev deque of raw Task* PER PRIORITY
//    CLASS (high/normal/batch, docs/SERVE.md); owner push/pop and thief
//    steal never take a lock;
//  - pop services the owner's classes strictly in priority order (all
//    ready high tasks anywhere on this VP before any normal one), and a
//    thief sweeps every victim's high deques before any victim's normal
//    deque, so class order dominates locality order;
//  - a deque entry keeps its task alive through the task's ready-guard
//    self-reference, set on push and cleared by whichever pop/steal removes
//    the entry;
//  - consumption is decided by Task::try_claim (a CAS on the task state),
//    not by deque membership: join-inlining (remove_specific) claims the
//    task in O(1) and leaves a stale entry behind, which the eventual
//    popper recognizes (lost claim) and discards.
//
// A single-class program (everything Priority::kNormal, the default) pays
// nothing for the classes beyond two empty pop_bottom probes per pop.
//
// External (non-VP) threads are not the performance target and cannot obey
// the Chase-Lev single-owner discipline (any number of them may fork
// concurrently), so they share one small mutex-guarded overflow deque per
// class that worker thieves also scan.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "anahy/policy.hpp"
#include "anahy/steal_deque.hpp"

namespace anahy {

class WorkStealingPolicy final : public SchedulingPolicy {
 public:
  explicit WorkStealingPolicy(int num_vps);
  ~WorkStealingPolicy() override;

  void push(TaskPtr task, int vp) override;
  TaskPtr pop(int vp) override;
  bool remove_specific(const TaskPtr& task, int vp) override;
  [[nodiscard]] std::size_t approx_size() const override;
  [[nodiscard]] std::array<std::size_t, kNumPriorities> approx_size_by_class()
      const override;
  void set_telemetry(observe::Telemetry* telemetry) override {
    tele_ = telemetry;
  }
  [[nodiscard]] PolicyKind kind() const override {
    return PolicyKind::kWorkStealing;
  }

  /// Deque length at which push starts purging the stale-entry run at the
  /// bottom (entries whose task was already claimed by join-inlining).
  /// Without the purge a join-heavy flow accumulates one stale entry per
  /// task, keeping finished tasks alive for the whole run.
  static constexpr std::size_t kStalePurgeThreshold = 64;

  /// Cumulative number of successful steals (for runtime statistics);
  /// sums the per-slot counters.
  [[nodiscard]] std::uint64_t steals() const;
  /// Cumulative number of steal attempts, successful or not.
  [[nodiscard]] std::uint64_t steal_attempts() const;

 private:
  static constexpr std::size_t kClasses = kNumPriorities;

  /// Maps a caller id to its slot; slot num_vps_ is the external queue.
  [[nodiscard]] std::size_t slot(int vp) const;

  /// The (slot, class) deque. Deques are laid out class-major per slot so
  /// one VP's three deques share cache locality.
  [[nodiscard]] ChaseLevDeque<Task*>& deque(std::size_t slot,
                                            std::size_t cls) {
    return *deques_[slot * kClasses + cls];
  }

  /// Claims `raw` popped/stolen out of a lock-free deque; returns the
  /// keep-alive reference on success, nullptr when the entry was stale.
  /// `stolen` attributes the claim to the task's job steal counter;
  /// `claimer` is the calling thread's slot (its ready bank is debited).
  TaskPtr claim_deque_entry(Task* raw, bool stolen, std::size_t claimer);

  TaskPtr pop_external(std::size_t cls);
  TaskPtr steal_external(std::size_t cls, std::size_t claimer);

  /// One full steal sweep of class `cls` over every victim but `self`
  /// (including the external overflow queue).
  TaskPtr steal_class(std::size_t self, std::size_t cls);
  TaskPtr steal_from_others(std::size_t self);

  const std::size_t num_vps_;
  /// num_vps_ * kClasses lock-free deques, see deque().
  std::vector<std::unique_ptr<ChaseLevDeque<Task*>>> deques_;
  mutable std::mutex external_mu_;
  std::array<std::deque<TaskPtr>, kClasses> external_q_;
  /// Claimable-task counters, striped per slot so the hottest path never
  /// touches a shared cache line: +1 on the pushing slot, -1 on the
  /// *claiming* slot (pop, steal or remove_specific). A slot's value goes
  /// negative when its tasks are claimed elsewhere; only the sum over
  /// slots is the live count (O(num_vps) approx_size, transiently off by
  /// in-flight claims). Every write to a worker bank comes from that VP's
  /// own thread (plain load + store); the external bank is shared by any
  /// number of foreign threads (fetch_add). `push_tick` counts pushes for
  /// the deque-depth sampling stride, and `steals`/`steal_attempts` count
  /// this slot's steals as a thief, under the same discipline.
  /// `victim_rng` is the slot's private victim-order generator (racy but
  /// atomic on the shared external bank, where any value will do).
  struct alignas(64) ReadyBank {
    std::array<std::atomic<std::int64_t>, kClasses> c{};
    std::atomic<std::uint32_t> push_tick{0};
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> steal_attempts{0};
    std::atomic<std::uint64_t> victim_rng{0};
  };
  std::vector<ReadyBank> ready_;  // num_vps_ + 1; never resized after ctor

  /// Adds `d` to a counter of slot `s`'s bank (single writer on a worker
  /// slot, fetch_add on the shared external slot); returns the new value.
  template <typename T>
  T bump(std::size_t s, std::atomic<T>& v, T d) {
    if (s == num_vps_) return v.fetch_add(d, std::memory_order_relaxed) + d;
    const T n = v.load(std::memory_order_relaxed) + d;
    v.store(n, std::memory_order_relaxed);
    return n;
  }

  void bump_ready(std::size_t s, std::size_t cls, std::int64_t d) {
    bump(s, ready_[s].c[cls], d);
  }

  /// Advances the slot's push counter; true on every kDepthSampleStride-th
  /// push of that slot.
  bool tick_push(std::size_t s) {
    const std::uint32_t n = bump(s, ready_[s].push_tick, std::uint32_t{1});
    return n % kDepthSampleStride == 0;
  }

  /// Starting victim of slot `s`'s next steal sweep over `n` victims
  /// (xorshift64 on the slot's own bank line: no shared write per steal).
  std::size_t next_victim(std::size_t s, std::size_t n);
  /// Telemetry sink (null = detached); fed per-VP steal attempts/successes
  /// and push-time deque-depth samples.
  observe::Telemetry* tele_ = nullptr;
};

}  // namespace anahy
