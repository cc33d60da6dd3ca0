#include "anahy/policy_steal.hpp"

#include <algorithm>
#include <stdexcept>

#include "anahy/observe/telemetry.hpp"

namespace anahy {

WorkStealingPolicy::WorkStealingPolicy(int num_vps)
    : num_vps_(static_cast<std::size_t>(std::max(num_vps, 1))) {
  if (num_vps < 1)
    throw std::invalid_argument("WorkStealingPolicy needs >= 1 VP");
  deques_.reserve(num_vps_ * kClasses);
  for (std::size_t i = 0; i < num_vps_ * kClasses; ++i)
    deques_.push_back(std::make_unique<ChaseLevDeque<Task*>>());
  ready_ = std::vector<ReadyBank>(num_vps_ + 1);
  // Distinct non-zero xorshift seeds: fixed per slot, so victim order is
  // reproducible run to run, but no two thieves sweep in lockstep.
  for (std::size_t s = 0; s < ready_.size(); ++s)
    ready_[s].victim_rng.store(0x9E3779B97F4A7C15ULL * (s + 1),
                               std::memory_order_relaxed);
}

WorkStealingPolicy::~WorkStealingPolicy() {
  // Tasks still queued at shutdown are never run; break their ready-guard
  // self-references so they are reclaimed. Destruction is single-threaded,
  // so owner-only pop_bottom is safe on every deque.
  for (auto& d : deques_) {
    while (auto e = d->pop_bottom()) (void)(*e)->take_ready_guard();
  }
}

std::size_t WorkStealingPolicy::slot(int vp) const {
  if (vp < 0 || static_cast<std::size_t>(vp) >= num_vps_)
    return num_vps_;  // external / main-flow slot
  return static_cast<std::size_t>(vp);
}

namespace {
bool still_claimable(const Task& t) {
  const TaskState s = t.state();
  return s == TaskState::kCreated || s == TaskState::kReady;
}

std::size_t class_of(const Task& t) {
  return static_cast<std::size_t>(t.priority());
}
}  // namespace

void WorkStealingPolicy::push(TaskPtr task, int vp) {
  const std::size_t s = slot(vp);
  const std::size_t cls = class_of(*task);
  bump_ready(s, cls, +1);
  // Depth is a statistical gauge: sample one push in kDepthSampleStride
  // per slot instead of paying the telemetry call on every push.
  const bool sample_depth = tele_ != nullptr && tick_push(s);
  if (s == num_vps_) {
    std::size_t depth;
    {
      std::lock_guard lock(external_mu_);
      // Amortized stale purge: join-inlining claims tasks in O(1) and
      // leaves their queue entries behind; drop the stale run at the back
      // so a join-heavy flow does not keep every finished task alive. Each
      // entry is dropped at most once, so this is O(1) amortized.
      auto& q = external_q_[cls];
      while (!q.empty() && !still_claimable(*q.back())) q.pop_back();
      q.push_back(std::move(task));
      depth = q.size();
    }
    if (sample_depth) tele_->sample_deque_depth(vp, depth);
    return;
  }
  Task* raw = task.get();
  raw->set_ready_guard(std::move(task));
  ChaseLevDeque<Task*>& d = deque(s, cls);
  // Same purge for the owner's deque (push is owner-only, so pop_bottom is
  // legal here). Only when the deque looks oversized: the common case pays
  // nothing, and a burst purge stops at the first still-claimable entry,
  // which goes straight back to the bottom.
  if (d.approx_size() >= kStalePurgeThreshold) {
    while (auto e = d.pop_bottom()) {
      Task* bottom = *e;
      if (still_claimable(*bottom)) {
        d.push_bottom(bottom);  // keep-alive guard still attached
        break;
      }
      (void)bottom->take_ready_guard();  // stale: release the keep-alive
    }
  }
  d.push_bottom(raw);
  if (sample_depth) tele_->sample_deque_depth(vp, d.approx_size());
}

TaskPtr WorkStealingPolicy::claim_deque_entry(Task* raw, bool stolen,
                                              std::size_t claimer) {
  // We removed the entry, so we clear the guard exactly once — whether the
  // claim wins (the guard becomes our strong reference) or the entry was
  // stale (a joiner inlined the task; drop the keep-alive and move on).
  TaskPtr task = raw->take_ready_guard();
  if (!raw->try_claim()) return nullptr;
  bump_ready(claimer, class_of(*raw), -1);
  if (stolen) {
    if (TaskContext* ctx = raw->context().get())
      ctx->note_steal();
  }
  return task;
}

TaskPtr WorkStealingPolicy::pop(int vp) {
  const std::size_t self = slot(vp);
  if (self == num_vps_) {
    for (std::size_t cls = 0; cls < kClasses; ++cls)
      if (TaskPtr t = pop_external(cls)) return t;
    return steal_from_others(self);
  }
  // Strict class order across the owner's deques: every ready high task on
  // this VP runs before any normal one (LIFO within a class).
  for (std::size_t cls = 0; cls < kClasses; ++cls) {
    ChaseLevDeque<Task*>& d = deque(self, cls);
    while (auto e = d.pop_bottom()) {  // owner end: LIFO
      if (TaskPtr t = claim_deque_entry(*e, /*stolen=*/false, self)) return t;
    }
  }
  return steal_from_others(self);
}

TaskPtr WorkStealingPolicy::pop_external(std::size_t cls) {
  std::lock_guard lock(external_mu_);
  auto& q = external_q_[cls];
  while (!q.empty()) {
    TaskPtr task = std::move(q.back());  // owner end: LIFO
    q.pop_back();
    if (task->try_claim()) {
      // pop_external is only reached by external callers (pop() with the
      // external slot), so the debit lands on the shared bank.
      bump_ready(num_vps_, cls, -1);
      return task;
    }
  }
  return nullptr;
}

TaskPtr WorkStealingPolicy::steal_external(std::size_t cls,
                                           std::size_t claimer) {
  std::lock_guard lock(external_mu_);
  auto& q = external_q_[cls];
  while (!q.empty()) {
    TaskPtr task = std::move(q.front());  // thief end: FIFO
    q.pop_front();
    if (task->try_claim()) {
      bump_ready(claimer, cls, -1);
      if (TaskContext* ctx = task->context().get())
        ctx->note_steal();
      return task;
    }
  }
  return nullptr;
}

std::size_t WorkStealingPolicy::next_victim(std::size_t s, std::size_t n) {
  std::atomic<std::uint64_t>& r = ready_[s].victim_rng;
  std::uint64_t x = r.load(std::memory_order_relaxed);
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  r.store(x, std::memory_order_relaxed);
  return static_cast<std::size_t>(x % n);
}

std::uint64_t WorkStealingPolicy::steals() const {
  std::uint64_t n = 0;
  for (const ReadyBank& bank : ready_)
    n += bank.steals.load(std::memory_order_relaxed);
  return n;
}

std::uint64_t WorkStealingPolicy::steal_attempts() const {
  std::uint64_t n = 0;
  for (const ReadyBank& bank : ready_)
    n += bank.steal_attempts.load(std::memory_order_relaxed);
  return n;
}

TaskPtr WorkStealingPolicy::steal_class(std::size_t self, std::size_t cls) {
  const std::size_t n = num_vps_ + 1;  // victims include the external queue
  // Each sweep starts at a victim drawn from the thief's own generator and
  // then visits every victim once.
  const std::size_t start = next_victim(self, n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t victim = (start + i) % n;
    if (victim == self) continue;
    bump(self, ready_[self].steal_attempts, std::uint64_t{1});
    // Per-thief telemetry: `self` is this policy's slot index, which is
    // exactly the telemetry slot (the external slot maps to "external").
    if (tele_ != nullptr)
      tele_->on_steal_attempt(static_cast<int>(self));
    if (victim == num_vps_) {
      if (TaskPtr t = steal_external(cls, self)) {
        bump(self, ready_[self].steals, std::uint64_t{1});
        if (tele_ != nullptr)
          tele_->on_steal_success(static_cast<int>(self));
        return t;
      }
      continue;
    }
    ChaseLevDeque<Task*>& d = deque(victim, cls);
    for (;;) {
      auto e = d.steal_top();
      if (!e) {
        // steal_top conflates "empty" with "lost a CAS race"; a lost race
        // means another thief made progress, so retry while the victim
        // still looks non-empty instead of giving up on queued work.
        if (d.empty()) break;
        continue;
      }
      if (TaskPtr t = claim_deque_entry(*e, /*stolen=*/true, self)) {
        bump(self, ready_[self].steals, std::uint64_t{1});
        if (tele_ != nullptr)
          tele_->on_steal_success(static_cast<int>(self));
        return t;
      }
    }
  }
  return nullptr;
}

TaskPtr WorkStealingPolicy::steal_from_others(std::size_t self) {
  // Class-major sweep: every victim's high deque is probed before any
  // victim's normal deque, so a thief never picks up batch work while a
  // high task is ready anywhere in the system.
  for (std::size_t cls = 0; cls < kClasses; ++cls)
    if (TaskPtr t = steal_class(self, cls)) return t;
  return nullptr;
}

bool WorkStealingPolicy::remove_specific(const TaskPtr& task, int vp) {
  // O(1) claim instead of scanning the deques: winning the state CAS is
  // what "being removed from the ready list" means in this policy; the
  // entry left behind is recognized as stale and dropped by its popper.
  if (task == nullptr || !task->try_claim()) return false;
  bump_ready(slot(vp), class_of(*task), -1);
  return true;
}

std::size_t WorkStealingPolicy::approx_size() const {
  std::int64_t n = 0;
  for (const ReadyBank& bank : ready_)
    for (const auto& c : bank.c) n += c.load(std::memory_order_relaxed);
  return n > 0 ? static_cast<std::size_t>(n) : 0;
}

std::array<std::size_t, kNumPriorities>
WorkStealingPolicy::approx_size_by_class() const {
  std::array<std::size_t, kNumPriorities> by_class{};
  for (std::size_t cls = 0; cls < kClasses; ++cls) {
    std::int64_t n = 0;
    for (const ReadyBank& bank : ready_)
      n += bank.c[cls].load(std::memory_order_relaxed);
    by_class[cls] = n > 0 ? static_cast<std::size_t>(n) : 0;
  }
  return by_class;
}

}  // namespace anahy
