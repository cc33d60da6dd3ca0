#include "anahy/scheduler.hpp"

#include <cassert>
#include <chrono>

#include "anahy/check/detector.hpp"
#include "anahy/policy_steal.hpp"
#include "anahy/task_pool.hpp"
#include "anahy/trace_analysis.hpp"

namespace anahy {

thread_local std::vector<Scheduler::Frame> Scheduler::tls_frames_;
thread_local Scheduler::Frame Scheduler::tls_root_{nullptr, kRootTaskId, 0};
thread_local std::uint64_t Scheduler::tls_root_owner_ = 0;
thread_local int Scheduler::tls_vp_ = SchedulingPolicy::kExternalVp;
thread_local std::uint64_t Scheduler::tls_vp_owner_ = 0;
thread_local bool Scheduler::tls_worker_ = false;
thread_local TaskId Scheduler::tls_id_next_ = 0;
thread_local TaskId Scheduler::tls_id_end_ = 0;
thread_local std::uint64_t Scheduler::tls_id_owner_ = 0;
thread_local std::uint32_t Scheduler::tls_fork_tick_ = 0;

namespace {
std::atomic<std::uint64_t> g_scheduler_instances{0};

/// Best-effort message of the in-flight exception (containment path).
std::string current_exception_message() {
  try {
    throw;
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "non-standard exception";
  }
}
}  // namespace

Scheduler::Scheduler(const Options& opts)
    : instance_id_(g_scheduler_instances.fetch_add(1) + 1),
      opts_(opts),
      policy_(make_policy(opts.policy, opts.num_vps)) {
  opts_.trace = opts_.trace || opts_.profile;  // spans need the graph
  trace_.set_enabled(opts_.trace);
  if (opts_.trace) {
    // The root flow (the paper's T0) exists before any fork.
    trace_.record_task(kRootTaskId, kInvalidTaskId, 0, false);
    trace_.record_label(kRootTaskId, "main");
  }
  if (opts_.telemetry) {
    tele_ = std::make_unique<observe::Telemetry>(opts_.num_vps);
    policy_->set_telemetry(tele_.get());
  }
  if (opts_.profile)
    profiler_ = std::make_unique<observe::SpanProfiler>(opts_.num_vps);
  if (opts.check) {
    // Serial-elision configuration = one VP (the canonical detection mode;
    // docs/CHECKING.md). The detector also becomes the process-wide sink
    // of the check::read/write instrumentation entry points.
    detector_ = std::make_unique<check::Detector>(opts.num_vps == 1);
    check::set_active_detector(detector_.get());
  }
}

Scheduler::~Scheduler() {
  if (detector_ != nullptr &&
      check::active_detector() == detector_.get()) {
    check::set_active_detector(nullptr);
  }
  // Tasks never joined (or never run) are still registered; break their
  // registry self-references so they are reclaimed with the scheduler.
  for (Shard& sh : shards_) {
    std::lock_guard lock(sh.mu);
    for (Task* t = sh.head; t != nullptr;) {
      Task* next = t->reg_next_;
      t->reg_prev_ = t->reg_next_ = nullptr;
      t->registry_guard_.reset();  // may destroy *t
      t = next;
    }
    sh.head = nullptr;
  }
}

void Scheduler::bind_thread_to_vp(int vp, bool worker) {
  tls_vp_ = vp;
  tls_vp_owner_ = instance_id_;
  tls_worker_ = worker;
}

int Scheduler::bound_vp() const {
  return tls_vp_owner_ == instance_id_ ? tls_vp_
                                       : SchedulingPolicy::kExternalVp;
}

bool Scheduler::is_bound_worker() const {
  return tls_worker_ && tls_vp_owner_ == instance_id_;
}

Scheduler::Frame& Scheduler::root_frame() {
  if (tls_root_owner_ != instance_id_) {
    tls_root_owner_ = instance_id_;
    tls_root_ = Frame{nullptr, kRootTaskId, 0};
  }
  return tls_root_;
}

Scheduler::Frame& Scheduler::current_frame() {
  return tls_frames_.empty() ? root_frame() : tls_frames_.back();
}

TaskId Scheduler::current_flow_id() {
  // Outside any task frame this is the main flow. We report the stable
  // root id (T0) rather than its latest continuation id, which is what
  // the paper's athread_self means by "the main flow".
  return tls_frames_.empty() ? kRootTaskId : tls_frames_.back().flow_id;
}

std::size_t Scheduler::current_stack_depth() { return tls_frames_.size(); }

TaskId Scheduler::current_task_id() {
  return tls_frames_.empty() ? kRootTaskId : tls_frames_.back().task->id();
}

bool Scheduler::on_current_stack(const Task* task) {
  for (const Frame& f : tls_frames_)
    if (f.task == task) return true;
  return false;
}

TaskId Scheduler::next_task_id() {
  if (tls_id_owner_ != instance_id_ || tls_id_next_ == tls_id_end_)
      [[unlikely]] {
    tls_id_next_ = next_id_.fetch_add(kIdBlock, std::memory_order_relaxed);
    tls_id_end_ = tls_id_next_ + kIdBlock;
    tls_id_owner_ = instance_id_;
  }
  return tls_id_next_++;
}

TaskPtr Scheduler::create_task(TaskBody body, void* input,
                               const TaskAttributes& attr, std::string label) {
  return create_task(std::move(body), input, attr, std::move(label), nullptr);
}

TaskPtr Scheduler::create_task(TaskBody body, void* input,
                               const TaskAttributes& attr, std::string label,
                               TaskContextPtr ctx) {
  Frame& f = current_frame();
  // Context inheritance: a fork issued from inside a job's task joins that
  // job, unless the caller attached a context explicitly (the job root).
  const bool explicit_ctx = ctx != nullptr;
  if (!explicit_ctx && f.task != nullptr) ctx = f.task->context();
  const TaskId id = next_task_id();
  // allocate_shared + the pool allocator: one block per task (control block
  // and Task fused), served from the forking thread's free-list cache.
  auto task =
      std::allocate_shared<Task>(TaskPoolAllocator<Task>{}, id,
                                 std::move(body), input, attr, f.flow_id,
                                 f.level + 1);
  std::uint64_t job = 0;
  if (ctx != nullptr) {
    if (explicit_ctx) ctx->root_task = id;
    ctx->note_created();
    // Memory accounting (anahy::aging): charge the job the exact pool
    // block size allocate_shared just drew on this thread; the Task
    // destructor credits it back wherever the last reference drops.
    if (pool_accounting()) {
      const auto bytes =
          static_cast<std::uint32_t>(pool_detail::tls_last_alloc_bytes);
      task->set_pool_bytes(bytes);
      ctx->note_pool_alloc(bytes);
    }
    job = ctx->job;
    task->set_context(std::move(ctx));
  }
  task->set_state(TaskState::kReady);

  if (detector_ != nullptr) [[unlikely]]
    detector_->on_fork(current_task_id(), id, label, job);

  const int vp = bound_vp();
  if (trace_.enabled()) {
    trace_.record_task(id, f.flow_id, f.level + 1, false, job);
    trace_.record_task_attrs(id, attr.join_number(), attr.data_len());
    // In profile mode the fork edge carries its timestamp and VP so the
    // Chrome export can draw a flow arrow from the fork site to the
    // child's first execution slice.
    if (profiler_ != nullptr)
      trace_.record_edge_stamped(f.flow_id, id, TraceEdgeKind::kFork,
                                 trace_.now_ns(), vp);
    else
      trace_.record_edge(f.flow_id, id, TraceEdgeKind::kFork);
    if (!label.empty()) trace_.record_label(id, std::move(label));
  }

  // Register before publishing to the ready list so a consumer that runs
  // and retires the task instantly always finds the registry entry.
  register_task(task);
  policy_->push(task, vp);
  // The ready-list peak is a gauge: approx_size() reads every VP's bank,
  // so sample it on the policy's depth stride instead of on every fork.
  if (tls_fork_tick_++ % SchedulingPolicy::kDepthSampleStride == 0)
    stats_.record_ready_len(policy_->approx_size());
  stats_.on_task_created();
  if (tele_ != nullptr) tele_->on_fork(vp);
  // Eventcount notifies: a fence and a read when nobody sleeps; the
  // condvar is only touched for genuinely idle VPs/joiners.
  stats_.on_notify(ready_ec_.notify_one());
  // Blocked joiners may help with the new task.
  stats_.on_notify(join_ec_.notify_all());
  return task;
}

void Scheduler::register_task(const TaskPtr& task) {
  Shard& sh = shard(task->id());
  Task* raw = task.get();
  raw->registry_guard_ = task;
  std::lock_guard lock(sh.mu);
  raw->reg_prev_ = nullptr;
  raw->reg_next_ = sh.head;
  if (sh.head != nullptr) sh.head->reg_prev_ = raw;
  sh.head = raw;
}

TaskPtr Scheduler::find(TaskId id) const {
  const Shard& sh = shard(id);
  std::lock_guard lock(sh.mu);
  for (const Task* t = sh.head; t != nullptr; t = t->reg_next_)
    if (t->id() == id) return t->registry_guard_;
  return nullptr;
}

void Scheduler::retire(Task* task) {
  Shard& sh = shard(task->id());
  TaskPtr guard;  // release the self-reference outside the shard lock
  {
    std::lock_guard lock(sh.mu);
    guard = std::move(task->registry_guard_);
    if (guard == nullptr) return;  // already retired
    if (task->reg_prev_ != nullptr) task->reg_prev_->reg_next_ = task->reg_next_;
    else sh.head = task->reg_next_;
    if (task->reg_next_ != nullptr) task->reg_next_->reg_prev_ = task->reg_prev_;
    task->reg_prev_ = task->reg_next_ = nullptr;
  }
}

Scheduler::ReapResult Scheduler::reap_orphans() {
  ReapResult out;
  for (Shard& sh : shards_) {
    // Collect candidates under the shard lock, release their guards (and
    // so, usually, free their pool blocks) outside it: a Task destructor
    // must never run inside a ShardLock critical section.
    std::vector<TaskPtr> doomed;
    {
      std::lock_guard lock(sh.mu);
      for (Task* t = sh.head; t != nullptr; t = t->reg_next_) {
        if (t->state() != TaskState::kFinished) continue;
        const TaskContextPtr& ctx = t->context();
        if (ctx == nullptr || !ctx->resolved()) continue;
        doomed.push_back(t->registry_guard_);
      }
    }
    for (const TaskPtr& t : doomed) {
      out.tasks += 1;
      out.bytes += t->pool_bytes();
      retire(t.get());
    }
  }
  return out;
}

void Scheduler::run_task(const TaskPtr& task, int vp) {
  // Cancellation: a task whose job context was cancelled (or whose
  // deadline passed) before it started is completed without running its
  // body — it "finishes" with a null result, so joiners unblock normally.
  // The job's root task is exempt: it carries the completion bookkeeping
  // of the serve layer and must always run (task_context.hpp).
  TaskContext* ctx = task->context().get();
  const bool cancelled = ctx != nullptr && task->id() != ctx->root_task &&
                         ctx->should_skip();
  task->set_state(TaskState::kRunning);
  tls_frames_.push_back({task.get(), task->id(), task->level()});

  // Checker auto-instrumentation: a task with a declared payload size
  // (attr datalen) reads its input buffer. Explicit instrumentation inside
  // the body goes through check::read/write. A job opts in per JobSpec
  // (ctx->checked); context-free tasks follow the attribute alone.
  const bool instrumented = detector_ != nullptr &&
                            task->attributes().checked() &&
                            (ctx == nullptr || ctx->checked);
  if (instrumented && !cancelled) {
    const std::size_t dl = task->attributes().data_len();
    if (dl > 0 && task->input() != nullptr)
      detector_->on_access(task->id(), task->input(), dl,
                           /*is_write=*/false);
  }

  // Credit the job counters BEFORE invoking the body: the root task of a
  // served job snapshots its context's counters from inside its own body
  // (Job::complete), and must see itself as executed. `cancelled` is final
  // at this point, so the accounting matches the post-body state.
  if (ctx != nullptr) ctx->note_executed(cancelled);
  // Same ordering for the observe counter: a body may publish its own
  // completion (a served job's root resolves its handle from inside
  // invoke()), and an observer that synchronizes with that completion —
  // drain(), JobHandle::wait() — must already find this run counted.
  if (tele_ != nullptr) tele_->on_task_run(vp);

  // Per-task timing feeds the trace; two clock reads per task are a
  // measurable fraction of a fine-grained task, so skip them untraced.
  const bool timed = trace_.enabled();
  const std::int64_t trace_start = timed ? trace_.now_ns() : -1;
  const auto t0 = timed ? std::chrono::steady_clock::now()
                        : std::chrono::steady_clock::time_point{};
  void* result = nullptr;
  if (!cancelled) {
    try {
      result = task->invoke();
    } catch (const TaskExit& exit) {
      result = exit.result;
    } catch (...) {
      if (ctx == nullptr) {
        // Context-free tasks keep POSIX semantics: bodies must not throw.
        // Restore the frame so the failure is at least attributed to the
        // right flow, then rethrow (which terminates the process).
        tls_frames_.pop_back();
        throw;
      }
      // Containment: a throwing body of a served job must not take the
      // whole process down. Capture the message into the job's context
      // (first fault wins), cancel the rest of the DAG, and let the task
      // finish with a null result so joiners unblock; the serve layer
      // resolves the job kFaulted from the context.
      ctx->note_fault(current_exception_message());
      result = nullptr;
    }
  }
  tls_frames_.pop_back();

  task->set_result(result);
  if (timed) {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    task->set_exec_ns(ns);
    if (profiler_ != nullptr) {
      // Profile mode: buffer the span (plus VP and job identity) in the
      // executing VP's private buffer instead of taking the trace mutex on
      // every task; flush_profile() folds them into the graph.
      profiler_->record(vp, task->id(), ctx != nullptr ? ctx->job : 0,
                        trace_start, ns);
    } else {
      trace_.record_exec_interval(task->id(), trace_start, ns);
    }
  }

  // Count the execution BEFORE the task becomes observable as finished, so
  // a joiner that consumes the result immediately already sees the counter.
  // "Run by main" means run by any thread that is not one of this
  // scheduler's worker VPs — the main flow (even when bound to a VP slot
  // via main_participates) or a foreign helping thread.
  stats_.on_task_executed(!is_bound_worker());

  // The finish hook (and the auto-instrumented result write) must precede
  // the kFinished release store: a joiner that acquire-reads kFinished
  // derives its post-join strand from the target's final strand.
  if (detector_ != nullptr) {
    if (instrumented && !cancelled) {
      const std::size_t dl = task->attributes().data_len();
      if (dl > 0 && result != nullptr)
        detector_->on_access(task->id(), result, dl, /*is_write=*/true);
    }
    detector_->on_finish(task->id());
  }

  if (task->attributes().join_number() == 0) {
    // Detached task: nobody may join it; reclaim immediately.
    task->set_state(TaskState::kJoined);
    retire(task.get());
  } else {
    // The increment must precede the kFinished release store, so the
    // joiner's decrement is ordered after it and the sum settles exactly.
    stats_.list_add(RuntimeStats::List::kFinished, +1);
    task->set_state(TaskState::kFinished);  // release: publishes the result
  }
  stats_.on_notify(join_ec_.notify_all());
}

int Scheduler::try_consume(const TaskPtr& task, void** result) {
  const int remaining = task->try_consume_join();
  if (remaining < 0) return kNotFound;  // join budget raced away
  if (result != nullptr) *result = task->result();
  if (remaining == 0) {
    // Last join: this caller retires the task. The kFinished -> kJoined
    // transition needs no notification of its own; every waiter was
    // already woken by the finish and re-checks the state.
    task->set_state(TaskState::kJoined);
    retire(task.get());
    stats_.list_add(RuntimeStats::List::kFinished, -1);
  }
  if (detector_ != nullptr) {
    // The join edge orders the target's whole execution before this flow's
    // continuation; the joiner then reads the declared result payload.
    detector_->on_join(current_task_id(), task->id());
    const TaskContext* tctx = task->context().get();
    if (task->attributes().checked() && (tctx == nullptr || tctx->checked)) {
      const std::size_t dl = task->attributes().data_len();
      if (dl > 0 && task->result() != nullptr)
        detector_->on_access(current_task_id(), task->result(), dl,
                             /*is_write=*/false);
    }
  }
  if (trace_.enabled()) {
    trace_.record_join_performed(task->id());
    if (profiler_ != nullptr)
      trace_.record_edge_stamped(task->flow_id(), current_frame().flow_id,
                                 TraceEdgeKind::kJoin, trace_.now_ns(),
                                 bound_vp());
    else
      trace_.record_edge(task->flow_id(), current_frame().flow_id,
                         TraceEdgeKind::kJoin);
  }
  if (tele_ != nullptr) tele_->on_join(bound_vp());
  return kOk;
}

void Scheduler::record_double_join(const Task& task) {
  // A kNotFound on a live handle means the join budget was already spent:
  // the POSIX contract returns ESRCH and the linter records a double-join.
  if (!trace_.enabled()) return;
  trace_.record_anomaly(lint_code::kDoubleJoin, task.id(),
                        "join attempted after the join budget of " +
                            std::to_string(task.attributes().join_number()) +
                            " was exhausted");
}

int Scheduler::join(const TaskPtr& task, void** result, int vp) {
  stats_.on_join();
  if (!task) return kNotFound;
  if (on_current_stack(task.get())) return kDeadlock;

  {
    // Lock-free fast path: acquire-read the state, CAS the join budget.
    const TaskState s = task->state();
    if (s == TaskState::kJoined || task->joins_remaining() <= 0) {
      record_double_join(*task);
      return kNotFound;
    }
    if (s == TaskState::kFinished) {
      const int rc = try_consume(task, result);
      if (rc == kOk) stats_.on_join_immediate();
      else if (rc == kNotFound) record_double_join(*task);
      return rc;
    }
  }

  // Blocking path: the flow logically splits; the code below this join is
  // the continuation T_{i+1}, blocked on `task` (paper §2.2.1). The VP
  // stays useful: it runs the target inline, or other ready tasks, and
  // sleeps only when the target runs elsewhere and nothing is ready.
  stats_.on_continuation();
  if (trace_.enabled()) {
    Frame& f = current_frame();
    const TaskId cont_id = next_task_id();
    const std::uint64_t job =
        f.task != nullptr && f.task->context() != nullptr
            ? f.task->context()->job
            : 0;
    trace_.record_task(cont_id, f.flow_id, f.level, true, job);
    trace_.record_edge(f.flow_id, cont_id, TraceEdgeKind::kContinue);
    f.flow_id = cont_id;
    if (f.task != nullptr) f.task->set_flow_id(cont_id);
  }

  const bool may_help =
      vp != SchedulingPolicy::kExternalVp || opts_.external_helps;
  bool slept = false;
  bool waited = false;  // inlined, helped or slept: the join is classified
  stats_.list_add(RuntimeStats::List::kBlocked, +1);
  for (;;) {
    TaskState s = task->state();
    if (s == TaskState::kJoined) {
      stats_.list_add(RuntimeStats::List::kBlocked, -1);
      record_double_join(*task);
      return kNotFound;  // join budget raced away
    }
    if (s == TaskState::kFinished) {
      // The target ran on another VP and finished while this flow was
      // preparing to sleep on it: still a join that blocked on a running
      // target, so it counts as slept and every join lands in a class.
      if (!waited) stats_.on_join_slept();
      stats_.list_add(RuntimeStats::List::kBlocked, -1);
      stats_.list_add(RuntimeStats::List::kUnblocked, +1);
      const int rc = try_consume(task, result);
      stats_.list_add(RuntimeStats::List::kUnblocked, -1);
      if (rc == kNotFound) record_double_join(*task);
      return rc;
    }

    if (may_help) {
      // 1) Join-inlining: claim the target itself out of the ready list.
      if (s == TaskState::kReady && policy_->remove_specific(task, vp)) {
        stats_.on_join_inlined();
        waited = true;
        run_task(task, vp);
        continue;
      }
      // 2) Help: run any other ready task while we wait.
      if (TaskPtr other = policy_->pop(vp)) {
        stats_.on_join_helped();
        waited = true;
        run_task(other, vp);
        continue;
      }
    }
    // 3) Sleep until the target finishes (or, when helping, until new
    //    ready work appears that we could run meanwhile). Eventcount
    //    two-phase wait: announce, re-check, then commit to sleeping.
    const EventCount::Epoch e = join_ec_.prepare_wait();
    s = task->state();
    if (s == TaskState::kFinished || s == TaskState::kJoined ||
        (may_help && policy_->approx_size() > 0)) {
      join_ec_.cancel_wait();
      continue;
    }
    if (!slept) {
      stats_.on_join_slept();
      slept = waited = true;
    }
    join_ec_.commit_wait(e);
  }
}

int Scheduler::try_join(const TaskPtr& task, void** result) {
  stats_.on_join();
  if (!task) return kNotFound;
  if (on_current_stack(task.get())) return kDeadlock;
  const TaskState s = task->state();
  if (s == TaskState::kJoined || task->joins_remaining() <= 0) {
    trace_.record_anomaly(lint_code::kDoubleJoin, task->id(),
                          "tryjoin attempted after the join budget was "
                          "exhausted");
    return kNotFound;
  }
  if (s != TaskState::kFinished) return kBusy;
  const int rc = try_consume(task, result);
  if (rc == kOk) stats_.on_join_immediate();
  return rc;
}

int Scheduler::join_by_id(TaskId id, void** result, int vp) {
  TaskPtr task = find(id);
  if (!task) {
    // Gone from the registry: either the id was never created (W003) or
    // the task was already fully joined and retired - a double-join
    // (W002). The trace, when enabled, can tell the two apart.
    if (trace_.enabled()) {
      if (trace_.has_node(id)) {
        trace_.record_anomaly(lint_code::kDoubleJoin, id,
                              "join on an already-retired task (budget "
                              "exhausted)");
      } else {
        trace_.record_anomaly(lint_code::kJoinNonexistent, id,
                              "join on a task id that was never created");
      }
    }
    return kNotFound;
  }
  return join(task, result, vp);
}

TaskPtr Scheduler::wait_for_task(int vp, const std::stop_token& st) {
  for (;;) {
    if (TaskPtr task = policy_->pop(vp)) return task;
    if (tele_ != nullptr) tele_->on_idle_spin(vp);
    const EventCount::Epoch e = ready_ec_.prepare_wait();
    if (st.stop_requested()) {
      ready_ec_.cancel_wait();
      return nullptr;
    }
    // Re-check after announcing ourselves: a producer that pushed before
    // reading the waiter count is now guaranteed visible here.
    if (TaskPtr task = policy_->pop(vp)) {
      ready_ec_.cancel_wait();
      return task;
    }
    // Committing to sleep is the cold path, so the two extra clock reads
    // that meter parked time (the idle-fraction gauge) cost nothing that
    // matters.
    if (tele_ == nullptr) {
      if (!ready_ec_.commit_wait(e, st)) return nullptr;  // stop requested
    } else {
      const auto park_start = std::chrono::steady_clock::now();
      const bool keep = ready_ec_.commit_wait(e, st);
      tele_->on_idle_park(
          vp, std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - park_start)
                  .count());
      if (!keep) return nullptr;  // stop requested
    }
  }
}

void Scheduler::notify_all() {
  ready_ec_.notify_all();
  join_ec_.notify_all();
}

void Scheduler::drain() {
  // Run ready tasks on this thread until the created == executed fixpoint:
  // nothing queued, nothing running. A task still running on a worker VP
  // may fork more work, so we sleep on the join eventcount (notified by both
  // spawn and finish) rather than spinning, and re-check after each wake.
  const int vp = bound_vp();
  for (;;) {
    if (TaskPtr t = policy_->pop(vp)) {
      run_task(t, vp);
      continue;
    }
    const auto s = stats_.snapshot();
    if (s.tasks_executed >= s.tasks_created) return;
    const EventCount::Epoch e = join_ec_.prepare_wait();
    if (policy_->approx_size() > 0) {
      join_ec_.cancel_wait();
      continue;
    }
    const auto s2 = stats_.snapshot();
    if (s2.tasks_executed >= s2.tasks_created) {
      join_ec_.cancel_wait();
      return;
    }
    join_ec_.commit_wait(e);
  }
}

Scheduler::ListSnapshot Scheduler::lists() const {
  ListSnapshot s;
  s.ready = policy_->approx_size();
  s.finished = stats_.list_size(RuntimeStats::List::kFinished);
  s.blocked = stats_.list_size(RuntimeStats::List::kBlocked);
  s.unblocked = stats_.list_size(RuntimeStats::List::kUnblocked);
  return s;
}

observe::Snapshot Scheduler::observe_snapshot() const {
  observe::Snapshot s;
  if (tele_ != nullptr) {
    s = tele_->snapshot();
  } else {
    // Telemetry off: zero counters, but keep the shape so exposition and
    // the serve stats endpoint still render.
    s.num_vps = opts_.num_vps;
    s.per_vp.resize(static_cast<std::size_t>(opts_.num_vps) + 1);
  }
  const auto by_class = policy_->approx_size_by_class();
  for (std::size_t cls = 0; cls < by_class.size(); ++cls)
    s.ready_by_class[cls] = by_class[cls];
  return s;
}

void Scheduler::flush_profile() {
  if (profiler_ != nullptr) profiler_->flush_into(trace_);
}

RuntimeStats::Snapshot Scheduler::stats_snapshot() const {
  RuntimeStats::Snapshot s = stats_.snapshot();
  if (const auto* ws = dynamic_cast<const WorkStealingPolicy*>(policy_.get())) {
    s.steals = ws->steals();
    s.steal_attempts = ws->steal_attempts();
  }
  return s;
}

}  // namespace anahy
